//! Evaluation of relational-algebra expressions.
//!
//! The evaluator is recursive; the natural join is a hash join on the common
//! attributes. [`eval_with_stats`] additionally counts the tuples produced by
//! every intermediate operator, which the optimizer ablation benches use to
//! show *why* pushdown matters (the same shape the early query-optimization
//! experiments established).

use crate::algebra::expr::{join_steps, Expr, Predicate};
use crate::catalog::Database;
use crate::error::RelError;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::Result;
use bq_governor::{Charger, QueryContext};
use std::collections::HashMap;

/// Counters for intermediate-result sizes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvalStats {
    /// Total tuples produced by all operators (including the root).
    pub intermediate_tuples: u64,
    /// Number of operator nodes evaluated.
    pub operators: u64,
}

/// Evaluate `expr` against `db` with no governance (an unlimited context;
/// every check degenerates to one relaxed atomic load).
pub fn eval(expr: &Expr, db: &Database) -> Result<Relation> {
    eval_with_ctx(expr, db, &QueryContext::unlimited())
}

/// Evaluate and report intermediate-result statistics.
pub fn eval_with_stats(expr: &Expr, db: &Database) -> Result<(Relation, EvalStats)> {
    eval_with_stats_ctx(expr, db, &QueryContext::unlimited())
}

/// Evaluate `expr` under a governor context: a deadline/cancellation
/// check runs at every operator node, and the materialization loops with
/// data-dependent blow-up (product, join, union) charge their output
/// against the context's memory budget.
pub fn eval_with_ctx(expr: &Expr, db: &Database, ctx: &QueryContext) -> Result<Relation> {
    let mut stats = EvalStats::default();
    eval_inner(expr, db, ctx, &mut stats)
}

/// [`eval_with_ctx`] plus intermediate-result statistics.
pub fn eval_with_stats_ctx(
    expr: &Expr,
    db: &Database,
    ctx: &QueryContext,
) -> Result<(Relation, EvalStats)> {
    let mut stats = EvalStats::default();
    let rel = eval_inner(expr, db, ctx, &mut stats)?;
    Ok((rel, stats))
}

fn eval_inner(
    expr: &Expr,
    db: &Database,
    ctx: &QueryContext,
    stats: &mut EvalStats,
) -> Result<Relation> {
    ctx.check()?;
    stats.operators += 1;
    let out = match expr {
        Expr::Rel(name) => db.get(name)?.clone(),
        Expr::Select { pred, input } => filter(eval_inner(input, db, ctx, stats)?, pred)?,
        Expr::Project { cols, input } => {
            let rel = eval_inner(input, db, ctx, stats)?;
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            let schema = rel.schema().project(&names)?;
            let indices: Vec<usize> = cols
                .iter()
                .map(|c| rel.schema().require(c))
                .collect::<Result<_>>()?;
            let mut out = Relation::new(schema);
            for t in rel.iter() {
                out.insert(t.project(&indices))?;
            }
            out
        }
        Expr::Rename { pairs, input } => {
            let rel = eval_inner(input, db, ctx, stats)?;
            let schema = rel.schema().rename(pairs)?;
            rel.with_renamed_schema(schema)?
        }
        Expr::Qualify { var, input } => {
            let rel = eval_inner(input, db, ctx, stats)?;
            let schema = rel.schema().qualify(var);
            rel.with_renamed_schema(schema)?
        }
        Expr::Join { inputs, pred } => {
            let rels: Vec<Relation> = inputs
                .iter()
                .map(|e| eval_inner(e, db, ctx, stats))
                .collect::<Result<_>>()?;
            join(rels, pred, ctx, stats)?
        }
        Expr::NaturalJoin(l, r) => {
            let lrel = eval_inner(l, db, ctx, stats)?;
            let rrel = eval_inner(r, db, ctx, stats)?;
            natural_join_with_ctx(&lrel, &rrel, ctx)?
        }
        Expr::Union(l, r) => {
            let lrel = eval_inner(l, db, ctx, stats)?;
            let rrel = eval_inner(r, db, ctx, stats)?;
            check_compatible(&lrel, &rrel, "union")?;
            let mut out = lrel.clone();
            for t in rrel.iter() {
                out.insert(t.clone())?;
            }
            out
        }
        Expr::Difference(l, r) => {
            let lrel = eval_inner(l, db, ctx, stats)?;
            let rrel = eval_inner(r, db, ctx, stats)?;
            check_compatible(&lrel, &rrel, "difference")?;
            let mut out = Relation::new(lrel.schema().clone());
            for t in lrel.iter() {
                if !rrel.contains(t) {
                    out.insert(t.clone())?;
                }
            }
            out
        }
        Expr::Intersection(l, r) => {
            let lrel = eval_inner(l, db, ctx, stats)?;
            let rrel = eval_inner(r, db, ctx, stats)?;
            check_compatible(&lrel, &rrel, "intersection")?;
            let mut out = Relation::new(lrel.schema().clone());
            for t in lrel.iter() {
                if rrel.contains(t) {
                    out.insert(t.clone())?;
                }
            }
            out
        }
        Expr::Division(l, r) => {
            let lrel = eval_inner(l, db, ctx, stats)?;
            let rrel = eval_inner(r, db, ctx, stats)?;
            division(&lrel, &rrel)?
        }
    };
    stats.intermediate_tuples += out.len() as u64;
    Ok(out)
}

/// Fold `rels` left-deep into their join on `pred`, applying each
/// conjunct where [`join_steps`] places it. Every tuple a step produces is
/// charged: a runaway product dies at the budget, not at the allocator.
fn join(
    rels: Vec<Relation>,
    pred: &Predicate,
    ctx: &QueryContext,
    stats: &mut EvalStats,
) -> Result<Relation> {
    let schemas: Vec<&Schema> = rels.iter().map(Relation::schema).collect();
    let mut steps = join_steps(&schemas, pred).into_iter();
    let mut rels = rels.into_iter();
    let (Some(first), Some((own, _))) = (rels.next(), steps.next()) else {
        return Err(RelError::SchemaMismatch("a join of no inputs".into()));
    };
    let mut acc = filter(first, &own)?;
    let mut charger = Charger::new(ctx);
    for (k, (rel, (own, on))) in rels.zip(steps).enumerate() {
        if k > 0 {
            // The step before built `acc`.
            stats.intermediate_tuples += acc.len() as u64;
        }
        let right = filter(rel, &own)?;
        let mut out = Relation::new(acc.schema().product(right.schema())?);
        for lt in acc.iter() {
            ctx.check()?;
            for rt in right.iter() {
                let t = lt.concat(rt);
                if on.eval(out.schema(), &t)? {
                    if charger.is_enabled() {
                        charger.charge(t.approx_bytes())?;
                    }
                    out.insert(t)?;
                }
            }
        }
        acc = out;
    }
    charger.flush()?;
    Ok(acc)
}

/// The tuples of `rel` that satisfy `pred`; `rel` itself when `pred` is
/// `True`.
fn filter(rel: Relation, pred: &Predicate) -> Result<Relation> {
    if *pred == Predicate::True {
        return Ok(rel);
    }
    let mut out = Relation::new(rel.schema().clone());
    for t in rel.iter() {
        if pred.eval(rel.schema(), t)? {
            out.insert(t.clone())?;
        }
    }
    Ok(out)
}

fn check_compatible(l: &Relation, r: &Relation, op: &str) -> Result<()> {
    if !l.schema().union_compatible(r.schema()) {
        return Err(RelError::NotUnionCompatible(format!(
            "{op}: {} vs {}",
            l.schema(),
            r.schema()
        )));
    }
    Ok(())
}

/// Hash natural join on the attributes common to both schemas. With no
/// common attributes this degenerates to the cartesian product (classical
/// semantics).
pub fn natural_join(l: &Relation, r: &Relation) -> Result<Relation> {
    natural_join_with_ctx(l, r, &QueryContext::unlimited())
}

/// [`natural_join`] charging output tuples against `ctx`'s budget — the
/// no-common-attributes case is a cartesian product and blows up the same
/// way.
pub fn natural_join_with_ctx(l: &Relation, r: &Relation, ctx: &QueryContext) -> Result<Relation> {
    let common = l.schema().common_attrs(r.schema());
    let l_common: Vec<usize> = common
        .iter()
        .map(|c| l.schema().require(c))
        .collect::<Result<_>>()?;
    let r_common: Vec<usize> = common
        .iter()
        .map(|c| r.schema().require(c))
        .collect::<Result<_>>()?;
    // Right-side attributes that are not join attributes, in order.
    let r_rest: Vec<usize> = (0..r.schema().arity())
        .filter(|i| !r_common.contains(i))
        .collect();

    let mut schema: Schema = l.schema().clone();
    for &i in &r_rest {
        let a = &r.schema().attrs()[i];
        schema.push(&a.name, a.ty)?;
    }

    // Build: hash the right side on its join-key values.
    let mut table: HashMap<Vec<&crate::value::Value>, Vec<&Tuple>> = HashMap::new();
    for rt in r.iter() {
        let key: Vec<&crate::value::Value> = r_common.iter().map(|&i| rt.get(i)).collect();
        table.entry(key).or_default().push(rt);
    }

    let mut charger = Charger::new(ctx);
    let mut out = Relation::new(schema);
    for lt in l.iter() {
        let key: Vec<&crate::value::Value> = l_common.iter().map(|&i| lt.get(i)).collect();
        if let Some(matches) = table.get(&key) {
            for rt in matches {
                let rest = rt.project(&r_rest);
                let joined = lt.concat(&rest);
                if charger.is_enabled() {
                    charger.charge(joined.approx_bytes())?;
                }
                out.insert(joined)?;
            }
        }
    }
    charger.flush()?;
    Ok(out)
}

/// Division `L ÷ R`: tuples over `L`'s non-`R` attributes that co-occur in
/// `L` with *every* tuple of `R`. Grouping implementation: hash `L` by its
/// quotient part and keep groups whose remainder set covers `R`.
pub fn division(l: &Relation, r: &Relation) -> Result<Relation> {
    // Quotient attributes (in L order) and positions of R's attrs in L.
    let mut d_idx: Vec<usize> = Vec::new();
    let mut schema = Schema::default();
    for (i, a) in l.schema().attrs().iter().enumerate() {
        if r.schema().index_of(&a.name).is_none() {
            d_idx.push(i);
            schema.push(&a.name, a.ty)?;
        }
    }
    if d_idx.is_empty() || d_idx.len() == l.schema().arity() {
        return Err(RelError::SchemaMismatch(format!(
            "division needs ∅ ⊂ divisor attrs ⊂ dividend attrs: {} ÷ {}",
            l.schema(),
            r.schema()
        )));
    }
    let r_in_l: Vec<usize> = r
        .schema()
        .names()
        .iter()
        .map(|n| l.schema().require(n))
        .collect::<Result<_>>()?;

    let mut groups: HashMap<Tuple, std::collections::BTreeSet<Tuple>> = HashMap::new();
    for t in l.iter() {
        groups
            .entry(t.project(&d_idx))
            .or_default()
            .insert(t.project(&r_in_l));
    }
    let divisor: std::collections::BTreeSet<Tuple> = r.iter().cloned().collect();
    let mut out = Relation::new(schema);
    for (quotient, remainder) in groups {
        if divisor.is_subset(&remainder) {
            out.insert(quotient)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::expr::Predicate;
    use crate::tup;
    use crate::value::{Type, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.add(
            "emp",
            Relation::from_rows(
                &[("name", Type::Str), ("dept", Type::Str), ("sal", Type::Int)],
                vec![
                    vec![Value::str("ann"), Value::str("cs"), Value::Int(90)],
                    vec![Value::str("bob"), Value::str("cs"), Value::Int(70)],
                    vec![Value::str("eve"), Value::str("ee"), Value::Int(80)],
                ],
            )
            .unwrap(),
        );
        db.add(
            "dept",
            Relation::from_rows(
                &[("dept", Type::Str), ("bldg", Type::Int)],
                vec![
                    vec![Value::str("cs"), Value::Int(1)],
                    vec![Value::str("ee"), Value::Int(2)],
                ],
            )
            .unwrap(),
        );
        db
    }

    #[test]
    fn select_filters() {
        let out = eval(
            &Expr::rel("emp").select(Predicate::eq_const("dept", "cs")),
            &db(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn project_deduplicates() {
        let out = eval(&Expr::rel("emp").project(&["dept"]), &db()).unwrap();
        assert_eq!(out.len(), 2, "three tuples project to two departments");
    }

    #[test]
    fn natural_join_matches_on_common_attr() {
        let out = eval(&Expr::rel("emp").natural_join(Expr::rel("dept")), &db()).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema().names(), vec!["name", "dept", "sal", "bldg"]);
        assert!(out.contains(&tup!["ann", "cs", 90i64, 1i64]));
    }

    #[test]
    fn join_without_common_attrs_is_product() {
        let mut db = Database::new();
        db.add(
            "a",
            Relation::from_rows(
                &[("x", Type::Int)],
                vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            )
            .unwrap(),
        );
        db.add(
            "b",
            Relation::from_rows(&[("y", Type::Int)], vec![vec![Value::Int(3)]]).unwrap(),
        );
        let out = eval(&Expr::rel("a").natural_join(Expr::rel("b")), &db).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn union_difference_intersection() {
        let mut db = Database::new();
        let mk = |vals: &[i64]| {
            Relation::from_rows(
                &[("x", Type::Int)],
                vals.iter().map(|&v| vec![Value::Int(v)]).collect(),
            )
            .unwrap()
        };
        db.add("a", mk(&[1, 2, 3]));
        db.add("b", mk(&[2, 3, 4]));
        let u = eval(&Expr::rel("a").union(Expr::rel("b")), &db).unwrap();
        assert_eq!(u.len(), 4);
        let d = eval(&Expr::rel("a").difference(Expr::rel("b")), &db).unwrap();
        assert_eq!(d.tuples(), vec![tup![1i64]]);
        let i = eval(&Expr::rel("a").intersection(Expr::rel("b")), &db).unwrap();
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn incompatible_set_ops_error() {
        let e = Expr::rel("emp").union(Expr::rel("dept"));
        assert!(matches!(
            eval(&e, &db()),
            Err(RelError::NotUnionCompatible(_))
        ));
    }

    #[test]
    fn rename_and_qualify() {
        let out = eval(&Expr::rel("dept").rename("bldg", "building"), &db()).unwrap();
        assert_eq!(out.schema().names(), vec!["dept", "building"]);
        let out = eval(&Expr::rel("dept").qualify("d"), &db()).unwrap();
        assert_eq!(out.schema().names(), vec!["d.dept", "d.bldg"]);
    }

    #[test]
    fn product_counts_pairs() {
        let e = Expr::rel("emp")
            .qualify("e")
            .product(Expr::rel("dept").qualify("d"));
        let out = eval(&e, &db()).unwrap();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn stats_count_intermediates() {
        let e = Expr::rel("emp")
            .qualify("e")
            .product(Expr::rel("dept").qualify("d"))
            .select(Predicate::eq_attrs("e.dept", "d.dept"));
        let (out, stats) = eval_with_stats(&e, &db()).unwrap();
        assert_eq!(out.len(), 3);
        // rel(3) + qualify(3) + rel(2) + qualify(2) + product(6) + select(3) = 19
        assert_eq!(stats.intermediate_tuples, 19);
        assert_eq!(stats.operators, 6);
    }

    /// takes(student, course) ÷ required(course).
    fn division_db() -> Database {
        let mut db = Database::new();
        db.add(
            "takes",
            Relation::from_rows(
                &[("student", Type::Str), ("course", Type::Str)],
                vec![
                    vec![Value::str("ann"), Value::str("db")],
                    vec![Value::str("ann"), Value::str("os")],
                    vec![Value::str("bob"), Value::str("db")],
                    vec![Value::str("eve"), Value::str("os")],
                    vec![Value::str("eve"), Value::str("db")],
                    vec![Value::str("eve"), Value::str("ai")],
                ],
            )
            .unwrap(),
        );
        db.add(
            "required",
            Relation::from_rows(
                &[("course", Type::Str)],
                vec![vec![Value::str("db")], vec![Value::str("os")]],
            )
            .unwrap(),
        );
        db
    }

    #[test]
    fn division_finds_universal_matches() {
        let db = division_db();
        let out = eval(&Expr::rel("takes").division(Expr::rel("required")), &db).unwrap();
        assert_eq!(out.schema().names(), vec!["student"]);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tup!["ann"]));
        assert!(out.contains(&tup!["eve"]));
    }

    #[test]
    fn division_by_empty_divisor_returns_all_quotients() {
        let mut db = division_db();
        db.add(
            "required",
            Relation::with_schema(&[("course", Type::Str)]).unwrap(),
        );
        let out = eval(&Expr::rel("takes").division(Expr::rel("required")), &db).unwrap();
        assert_eq!(out.len(), 3, "∀ over ∅ is vacuously true");
    }

    #[test]
    fn division_schema_violations_rejected() {
        let db = division_db();
        // Divisor attrs not a subset of dividend's.
        let bad = Expr::rel("required").division(Expr::rel("takes"));
        assert!(eval(&bad, &db).is_err());
        // Divisor equal to dividend leaves an empty quotient schema.
        let bad2 = Expr::rel("takes").division(Expr::rel("takes"));
        assert!(eval(&bad2, &db).is_err());
    }

    #[test]
    fn division_matches_its_defining_identity() {
        let db = division_db();
        let direct = eval(&Expr::rel("takes").division(Expr::rel("required")), &db).unwrap();
        // π_D(L) − π_D((π_D(L) × R) − π_{D∪R}(L))
        let pi_d = Expr::rel("takes").project(&["student"]);
        let identity = pi_d.clone().difference(
            pi_d.product(Expr::rel("required"))
                .difference(Expr::rel("takes").project(&["student", "course"]))
                .project(&["student"]),
        );
        let via_identity = eval(&identity, &db).unwrap();
        assert_eq!(direct, via_identity);
    }

    #[test]
    fn composite_query_end_to_end() {
        // Names of employees in building 1 earning over 75.
        let e = Expr::rel("emp")
            .natural_join(Expr::rel("dept"))
            .select(Predicate::eq_const("bldg", 1i64).and(Predicate::cmp(
                crate::algebra::expr::Operand::attr("sal"),
                crate::value::CmpOp::Gt,
                crate::algebra::expr::Operand::Const(Value::Int(75)),
            )))
            .project(&["name"]);
        let out = eval(&e, &db()).unwrap();
        assert_eq!(out.tuples(), vec![tup!["ann"]]);
    }
}
