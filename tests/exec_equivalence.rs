//! Differential tests for the morsel-driven executor (the bq-exec engine):
//! on hundreds of random algebra-expression/database pairs, every execution
//! mode must agree with the recursive reference evaluator
//! [`bq_relational::algebra::eval::eval`] — same sorted tuple set on
//! success, and an error exactly when the oracle errors.
//!
//! Every generator is seeded; `BQ_EXEC_SEED=<n>` runs other cases than the
//! default ones, and a failure prints the value to pin it with.

use big_queries::bq_core::{Db, Query};
use big_queries::bq_exec::engine::SET_BUILD;
use big_queries::bq_exec::{lower, ExecMode, Executor, PhysPlan};
use big_queries::bq_faults::{self as faults, Action, Policy, Trigger};
use big_queries::bq_governor::QueryContext;
use big_queries::bq_relational::algebra::eval::eval;
use big_queries::bq_relational::algebra::expr::{Expr, Operand, Predicate};
use big_queries::bq_relational::algebra::optimize::optimize;
use big_queries::bq_relational::calculus::ast::{Formula, Query as CalcQuery, Term};
use big_queries::bq_relational::calculus::eval::eval_query;
use big_queries::bq_relational::catalog::Database;
use big_queries::bq_relational::codd::calculus_to_algebra;
use big_queries::bq_relational::error::RelError;
use big_queries::bq_relational::value::CmpOp;
use big_queries::bq_relational::{Relation, Schema, Tuple, Type, Value};
use big_queries::bq_util::{Rng, SplitMix64};
use std::sync::{RwLock, RwLockReadGuard};

/// `exec.morsel.panic` is armed process-wide (the panic must land on a
/// worker thread), so the test that arms it runs alone: it takes this
/// lock exclusively and every other test takes it shared.
static FAILPOINTS: RwLock<()> = RwLock::new(());

fn unarmed() -> RwLockReadGuard<'static, ()> {
    FAILPOINTS.read().unwrap_or_else(|e| e.into_inner())
}

/// What every generator seed below is xor-ed with: unset (or 0) keeps the
/// cases this suite has always run, any other value explores new ones.
fn exec_seed() -> u64 {
    std::env::var("BQ_EXEC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn seeded(constant: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(constant ^ exec_seed())
}

/// Attribute pool shared by all generated relations: a fixed type per name
/// so natural joins and set operations line up by construction.
const POOL: [(&str, Type); 4] = [
    ("a", Type::Int),
    ("b", Type::Int),
    ("c", Type::Str),
    ("d", Type::Int),
];

fn random_value(rng: &mut SplitMix64, ty: Type) -> Value {
    match ty {
        Type::Int => Value::Int(rng.gen_range(5) as i64),
        Type::Str => Value::Str(["x", "y", "z"][rng.gen_index(3)].to_string()),
        Type::Bool => Value::Bool(rng.gen_bool()),
    }
}

/// A random database: 2–3 relations over random subsets of the pool with
/// 0–12 rows each (duplicates collapse under set semantics).
fn random_db(rng: &mut SplitMix64) -> Database {
    let mut db = Database::new();
    let n_rels = 2 + rng.gen_index(2);
    for r in 0..n_rels {
        // Random non-empty subset of the pool, kept in pool order.
        let mut cols: Vec<(&str, Type)> = Vec::new();
        while cols.is_empty() {
            cols = POOL.iter().copied().filter(|_| rng.gen_bool()).collect();
        }
        let mut rel = Relation::with_schema(&cols).unwrap();
        for _ in 0..rng.gen_index(13) {
            let row: Vec<Value> = cols.iter().map(|&(_, ty)| random_value(rng, ty)).collect();
            rel.insert(Tuple::new(row)).unwrap();
        }
        db.add(&format!("r{r}"), rel);
    }
    db
}

/// A random predicate over `schema`. With small probability it references
/// an unknown attribute, so the error path gets differential coverage too.
fn random_pred(rng: &mut SplitMix64, schema: &Schema, depth: usize) -> Predicate {
    if depth > 0 && rng.gen_pct(30) {
        let l = random_pred(rng, schema, depth - 1);
        let r = random_pred(rng, schema, depth - 1);
        return match rng.gen_index(3) {
            0 => Predicate::And(Box::new(l), Box::new(r)),
            1 => Predicate::Or(Box::new(l), Box::new(r)),
            _ => Predicate::Not(Box::new(l)),
        };
    }
    let attr_of = |rng: &mut SplitMix64| -> (String, Type) {
        if rng.gen_pct(5) || schema.arity() == 0 {
            ("zz".to_string(), Type::Int)
        } else {
            let a = &schema.attrs()[rng.gen_index(schema.arity())];
            (a.name.clone(), a.ty)
        }
    };
    let (name, ty) = attr_of(rng);
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let op = ops[rng.gen_index(ops.len())];
    let right = if rng.gen_bool() {
        Operand::Const(random_value(rng, ty))
    } else {
        Operand::attr(attr_of(rng).0)
    };
    Predicate::cmp(Operand::attr(name), op, right)
}

/// A random algebra expression over `db`, possibly invalid (the oracle and
/// the engine must then *both* reject it).
fn random_expr(rng: &mut SplitMix64, db: &Database, depth: usize, fresh: &mut u32) -> Expr {
    let names = db.names();
    if depth == 0 || rng.gen_pct(25) {
        return Expr::rel(names[rng.gen_index(names.len())]);
    }
    let child = random_expr(rng, db, depth - 1, fresh);
    let schema = child.schema(db).ok();
    match rng.gen_index(8) {
        0 => {
            let pred = match &schema {
                Some(s) => random_pred(rng, s, 2),
                None => Predicate::True,
            };
            child.select(pred)
        }
        1 => match &schema {
            Some(s) if s.arity() > 0 => {
                let mut cols: Vec<&str> = Vec::new();
                while cols.is_empty() {
                    cols = s
                        .names()
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_bool())
                        .collect();
                }
                if rng.gen_pct(5) {
                    cols.push("zz");
                }
                child.project(&cols)
            }
            _ => child.project(&["a"]),
        },
        2 => match &schema {
            Some(s) if s.arity() > 0 => {
                let from = s.names()[rng.gen_index(s.arity())].to_string();
                *fresh += 1;
                let to = if rng.gen_pct(10) {
                    s.names()[rng.gen_index(s.arity())].to_string()
                } else {
                    format!("w{fresh}")
                };
                child.rename(&from, &to)
            }
            _ => child.rename("a", "w0"),
        },
        3 => {
            *fresh += 1;
            child.qualify(&format!("q{fresh}"))
        }
        4 => {
            let other = random_expr(rng, db, depth - 1, fresh);
            child.natural_join(other)
        }
        5 => {
            let other = random_expr(rng, db, depth - 1, fresh);
            if rng.gen_pct(70) {
                // Qualified sides have disjoint attributes, so the product
                // is well-formed; the other 30% exercise the error path.
                *fresh += 1;
                let (l, r) = (format!("q{fresh}l"), format!("q{fresh}r"));
                child.qualify(&l).product(other.qualify(&r))
            } else {
                child.product(other)
            }
        }
        6 => {
            let right = if rng.gen_pct(70) {
                // Union-compatible by construction.
                let pred = match &schema {
                    Some(s) => random_pred(rng, s, 1),
                    None => Predicate::True,
                };
                child.clone().select(pred)
            } else {
                random_expr(rng, db, depth - 1, fresh)
            };
            match rng.gen_index(3) {
                0 => child.union(right),
                1 => child.difference(right),
                _ => child.intersection(right),
            }
        }
        _ => match &schema {
            Some(s) if s.arity() >= 2 && rng.gen_pct(70) => {
                // Divide by a strict non-empty projection of the dividend:
                // shape-valid by construction.
                let keep = 1 + rng.gen_index(s.arity() - 1);
                let cols: Vec<&str> = s.names()[..keep].to_vec();
                let divisor = child.clone().project(&cols);
                child.division(divisor)
            }
            _ => {
                let other = random_expr(rng, db, depth - 1, fresh);
                child.division(other)
            }
        },
    }
}

fn executors(rng: &mut SplitMix64) -> Vec<Executor> {
    let morsel = [1, 2, 7, 64, 1024][rng.gen_index(5)];
    let mut out = vec![Executor::new(ExecMode::Sequential).with_morsel_size(morsel)];
    for workers in [1, 2, 4, 8] {
        out.push(Executor::new(ExecMode::Parallel(workers)).with_morsel_size(morsel));
    }
    out
}

/// Every executor must return exactly the oracle's sorted tuple set under
/// the oracle's schema, and fail exactly when the oracle fails.
fn assert_engine_agrees(
    case: u64,
    expr: &Expr,
    db: &Database,
    expected: &Result<Relation, RelError>,
    executors: &[Executor],
) {
    for ex in executors {
        let got = ex.execute(expr, db);
        let at = format!(
            "BQ_EXEC_SEED={} case {case} mode {:?}",
            exec_seed(),
            ex.mode()
        );
        match (expected, got) {
            (Ok(want), Ok(got)) => {
                assert_eq!(got.schema(), want.schema(), "{at}: schema drift on {expr}");
                let want_rows: Vec<&Tuple> = want.iter().collect();
                let got_rows: Vec<&Tuple> = got.iter().collect();
                assert_eq!(got_rows, want_rows, "{at}: rows differ on {expr}");
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => panic!("{at}: engine rejected {expr}: {e}"),
            (Err(e), Ok(_)) => panic!("{at}: engine accepted {expr}: oracle says {e}"),
        }
    }
}

/// The tentpole differential test: 240 random expression/database pairs,
/// each executed under sequential mode and worker counts 1/2/4/8.
#[test]
fn engine_agrees_with_oracle_on_random_expressions() {
    let _g = unarmed();
    let mut rng = seeded(0xe8ec_2024);
    let (mut ok_cases, mut err_cases, mut nonempty) = (0u32, 0u32, 0u32);
    for case in 0..240 {
        let mut db = seeded(0xd000 + case);
        let db = random_db(&mut db);
        let mut fresh = 0;
        let expr = random_expr(&mut rng, &db, 3, &mut fresh);
        let expected = eval(&expr, &db);
        match &expected {
            Ok(rel) => {
                ok_cases += 1;
                if !rel.is_empty() {
                    nonempty += 1;
                }
            }
            Err(_) => err_cases += 1,
        }
        assert_engine_agrees(case, &expr, &db, &expected, &executors(&mut rng));
    }
    // Guard against generator degeneration: both paths must be exercised
    // and a healthy share of successful answers must be non-empty.
    assert!(ok_cases >= 100, "only {ok_cases}/240 cases evaluated");
    assert!(err_cases >= 10, "only {err_cases}/240 cases errored");
    assert!(nonempty >= 40, "only {nonempty} non-empty answers");
}

/// A constant to compare a column of type `ty` against: usually from the
/// column's own domain, sometimes outside it on either side (empty and
/// whole-table ranges), sometimes of another type or a labelled null (the
/// cross-type branch of `total_cmp`, which orders the table too).
fn scan_const(rng: &mut SplitMix64, ty: Type) -> Value {
    match rng.gen_index(10) {
        0 => Value::Int(-1),
        1 => Value::Int(99),
        2 => Value::str(""),
        3 => Value::str("zzz"),
        4 => Value::Bool(rng.gen_bool()),
        5 => Value::Null(rng.gen_range(2) as u32),
        _ => random_value(rng, ty),
    }
}

fn scan_cmp(rng: &mut SplitMix64, cols: &[(String, Type)], col: usize, ops: &[CmpOp]) -> Predicate {
    let (name, ty) = &cols[col];
    let op = ops[rng.gen_index(ops.len())];
    let (attr, constant) = (Operand::attr(name), Operand::Const(scan_const(rng, *ty)));
    if rng.gen_pct(20) {
        // `3 < a` reads `a > 3`.
        Predicate::cmp(constant, op.flip(), attr)
    } else {
        Predicate::cmp(attr, op, constant)
    }
}

/// A predicate over a base table's columns (under their current names),
/// and whether its shape allows a seek: some top-level conjunct pins or
/// bounds the leading column and no operand is unknown.
fn scan_pred(rng: &mut SplitMix64, cols: &[(String, Type)]) -> (Predicate, bool) {
    use CmpOp::*;
    const ALL: [CmpOp; 6] = [Eq, Ne, Lt, Le, Gt, Ge];
    const RANGE: [CmpOp; 4] = [Lt, Le, Gt, Ge];
    let and = |a: Predicate, b: Predicate| Predicate::And(Box::new(a), Box::new(b));
    match rng.gen_index(7) {
        // One comparison on any column.
        0 => {
            let col = rng.gen_index(cols.len());
            let p = scan_cmp(rng, cols, col, &ALL);
            let seeks = col == 0 && !matches!(p, Predicate::Cmp { op: Ne, .. });
            (p, seeks)
        }
        // Equality prefix of one or two columns, maybe a range on the next.
        1 | 2 => {
            let fixed = (1 + rng.gen_index(2)).min(cols.len());
            let mut conjuncts: Vec<Predicate> =
                (0..fixed).map(|c| scan_cmp(rng, cols, c, &[Eq])).collect();
            if fixed < cols.len() && rng.gen_bool() {
                conjuncts.push(scan_cmp(rng, cols, fixed, &RANGE));
                if rng.gen_bool() {
                    conjuncts.push(scan_cmp(rng, cols, fixed, &RANGE));
                }
            }
            // Conjunct order must not matter to the seek.
            if rng.gen_bool() {
                conjuncts.reverse();
            }
            (conjuncts.into_iter().reduce(and).unwrap(), true)
        }
        // A range on the leading column, one- or two-sided, plus a residual.
        3 => {
            let mut p = scan_cmp(rng, cols, 0, &RANGE);
            if rng.gen_bool() {
                p = and(p, scan_cmp(rng, cols, 0, &RANGE));
            }
            if rng.gen_bool() {
                p = and(p, scan_cmp(rng, cols, cols.len() - 1, &ALL));
            }
            (p, true)
        }
        // Disjunction and negation pin nothing.
        4 => {
            let (l, r) = (scan_cmp(rng, cols, 0, &ALL), scan_cmp(rng, cols, 0, &ALL));
            (Predicate::Or(Box::new(l), Box::new(r)), false)
        }
        5 => (
            Predicate::Not(Box::new(scan_cmp(rng, cols, 0, &[Eq, Lt, Ge]))),
            false,
        ),
        // An unknown name makes evaluation fallible: no seek, and an error
        // exactly when a tuple reaches the operand.
        _ => {
            let ghost = Predicate::eq_const("zz", 0i64);
            let pin = scan_cmp(rng, cols, 0, &[Eq]);
            let p = if rng.gen_bool() {
                and(pin, ghost)
            } else {
                and(ghost, pin)
            };
            (p, false)
        }
    }
}

/// Selections over base tables — the plans lowering folds into the scan
/// and, on a leading-column prefix, turns into an ordered seek — must agree
/// with the oracle exactly like every other plan: through qualification
/// and renaming, across types, on empty and whole-table ranges, at every
/// worker count.
#[test]
fn selections_over_base_tables_agree_with_oracle() {
    let _g = unarmed();
    let mut rng = seeded(0x5ee4_2026);
    let (mut seeks, mut nonempty, mut partial, mut errors) = (0u32, 0u32, 0u32, 0u32);
    for case in 0..400u64 {
        // One table of up to 60 rows over a random prefix-closed choice of
        // the pool, with the odd labelled null.
        let arity = 1 + rng.gen_index(POOL.len());
        let start = rng.gen_index(POOL.len() - arity + 1);
        let pool = &POOL[start..start + arity];
        let mut rel = Relation::with_schema(pool).unwrap();
        for _ in 0..rng.gen_index(61) {
            let row = pool.iter().map(|&(_, ty)| {
                if rng.gen_pct(3) {
                    Value::Null(rng.gen_range(2) as u32)
                } else {
                    random_value(&mut rng, ty)
                }
            });
            rel.insert(Tuple::new(row.collect())).unwrap();
        }
        let rows = rel.len();
        let mut db = Database::new();
        db.add("t", rel);

        // One to three selections, with relabellings between them.
        let mut cols: Vec<(String, Type)> =
            pool.iter().map(|&(n, ty)| (n.to_string(), ty)).collect();
        let mut expr = Expr::rel("t");
        let mut may_seek = false;
        for layer in 0..1 + rng.gen_index(3) {
            if rng.gen_pct(40) {
                let var = format!("q{layer}");
                expr = expr.qualify(&var);
                for (name, _) in &mut cols {
                    *name = format!("{var}.{name}");
                }
            }
            if rng.gen_pct(30) {
                let col = rng.gen_index(cols.len());
                let to = format!("w{layer}");
                expr = expr.rename(&cols[col].0, &to);
                cols[col].0 = to;
            }
            let (pred, seekable) = scan_pred(&mut rng, &cols);
            expr = expr.select(pred);
            may_seek |= seekable;
        }
        // A fallible conjunct anywhere in the chain forbids the seek.
        let fallible = expr.to_string().contains("zz = 0");

        let plan = lower(&expr, &db).unwrap().render();
        assert!(!plan.contains("Filter"), "case {case}: not folded:\n{plan}");
        assert_eq!(
            plan.contains(" seek "),
            may_seek && !fallible,
            "case {case}: {expr}\n{plan}"
        );
        seeks += u32::from(plan.contains(" seek "));

        let expected = eval(&expr, &db);
        match &expected {
            Ok(out) => {
                nonempty += u32::from(!out.is_empty());
                partial += u32::from(!out.is_empty() && out.len() < rows);
            }
            Err(_) => errors += 1,
        }
        assert_engine_agrees(case, &expr, &db, &expected, &executors(&mut rng));
    }
    assert!(seeks >= 150, "only {seeks}/400 plans seek");
    assert!(nonempty >= 100, "only {nonempty}/400 answers are non-empty");
    assert!(
        partial >= 60,
        "only {partial}/400 answers are a strict subset"
    );
    assert!(
        errors >= 10,
        "only {errors}/400 cases reach the unknown name"
    );
}

/// One side of a generated product: table `t{i}` under the alias `q{i}`,
/// with its qualified column names and their types. Column 0 is always an
/// int — the column chains join on.
struct Side {
    expr: Expr,
    cols: Vec<(String, Type)>,
}

/// A value for a product side: small domains, so keys repeat and joins
/// fan out, with the odd labelled null (equal to itself under `=`, and
/// the only thing two columns of different types can agree on).
fn side_value(rng: &mut SplitMix64, ty: Type) -> Value {
    if rng.gen_pct(5) {
        return Value::Null(rng.gen_range(2) as u32);
    }
    match ty {
        Type::Int => Value::Int(rng.gen_range(4) as i64),
        _ => random_value(rng, ty),
    }
}

/// Add `n` tables of 2–3 columns and 0–14 rows to a fresh database.
fn product_sides(rng: &mut SplitMix64, n: usize) -> (Database, Vec<Side>) {
    let mut db = Database::new();
    let sides = (0..n)
        .map(|i| {
            let mut types = vec![Type::Int];
            for _ in 0..1 + rng.gen_index(2) {
                types.push([Type::Int, Type::Int, Type::Str, Type::Bool][rng.gen_index(4)]);
            }
            let names: Vec<String> = (0..types.len()).map(|c| format!("c{c}")).collect();
            let attrs: Vec<(&str, Type)> = names.iter().map(String::as_str).zip(types).collect();
            let mut rel = Relation::with_schema(&attrs).unwrap();
            // One side in eight is empty.
            let rows = if rng.gen_pct(12) {
                0
            } else {
                1 + rng.gen_index(14)
            };
            for _ in 0..rows {
                let row = attrs.iter().map(|&(_, ty)| side_value(rng, ty));
                rel.insert(Tuple::new(row.collect())).unwrap();
            }
            db.add(&format!("t{i}"), rel);
            Side {
                expr: Expr::rel(format!("t{i}")).qualify(&format!("q{i}")),
                cols: attrs
                    .iter()
                    .map(|&(name, ty)| (format!("q{i}.{name}"), ty))
                    .collect(),
            }
        })
        .collect();
    (db, sides)
}

fn col_eq(l: &(String, Type), r: &(String, Type)) -> Predicate {
    Predicate::eq_attrs(&l.0, &r.0)
}

fn pick<'a>(rng: &mut SplitMix64, side: &'a Side) -> &'a (String, Type) {
    &side.cols[rng.gen_index(side.cols.len())]
}

/// A conjunct that is true of some joined tuples and no key for a join:
/// an inequality across the sides or a comparison with a constant.
fn residual(rng: &mut SplitMix64, l: &Side, r: &Side) -> Predicate {
    if rng.gen_bool() {
        let op = [CmpOp::Le, CmpOp::Ne, CmpOp::Gt][rng.gen_index(3)];
        let (l, r) = (pick(rng, l), pick(rng, r));
        Predicate::cmp(Operand::attr(&l.0), op, Operand::attr(&r.0))
    } else {
        let (name, ty) = pick(rng, r);
        let constant = Operand::Const(side_value(rng, *ty));
        Predicate::cmp(Operand::attr(name), CmpOp::Ne, constant)
    }
}

/// What lowering is expected to make of a generated selection.
#[derive(Debug, PartialEq)]
enum Shape {
    /// A hash join, no product left.
    Join,
    /// The selection stays a filter over the product.
    Product,
}

/// `σ[pred](q0 × q1)` in the shapes that decide between a join and a
/// product, with the expected decision.
fn two_way(rng: &mut SplitMix64, sides: &[Side]) -> (Predicate, Shape) {
    let (l, r) = (&sides[0], &sides[1]);
    let and = |a: Predicate, b: Predicate| Predicate::And(Box::new(a), Box::new(b));
    // Column pairs are drawn regardless of type: an int column set equal
    // to a str column is a join too, one only labelled nulls survive.
    let cross = |rng: &mut SplitMix64| {
        let (a, b) = (pick(rng, l), pick(rng, r));
        if rng.gen_bool() {
            col_eq(a, b)
        } else {
            col_eq(b, a)
        }
    };
    match rng.gen_index(5) {
        // One to three cross-side equalities, maybe a residue among them.
        0 | 1 => {
            let mut conjuncts: Vec<Predicate> =
                (0..1 + rng.gen_index(3)).map(|_| cross(rng)).collect();
            if rng.gen_bool() {
                let at = rng.gen_index(conjuncts.len() + 1);
                conjuncts.insert(at, residual(rng, l, r));
            }
            if rng.gen_pct(20) {
                // A same-side equality is residue, not a key.
                conjuncts.push(col_eq(pick(rng, l), pick(rng, l)));
            }
            (conjuncts.into_iter().reduce(and).unwrap(), Shape::Join)
        }
        // The only cross-side equality sits under ∨ or ¬.
        2 => {
            let hidden = if rng.gen_bool() {
                Predicate::Or(Box::new(cross(rng)), Box::new(residual(rng, l, r)))
            } else {
                Predicate::Not(Box::new(cross(rng)))
            };
            let p = if rng.gen_bool() {
                and(hidden, residual(rng, l, r))
            } else {
                hidden
            };
            (p, Shape::Product)
        }
        // No equality at all.
        3 => (residual(rng, l, r), Shape::Product),
        // An unknown name that only the tuples passing `pin` reach: the
        // oracle fails exactly when there is one, so no tuple may be
        // skipped.
        _ => {
            let (name, ty) = pick(rng, l);
            let pin = Predicate::cmp(
                Operand::attr(name),
                CmpOp::Eq,
                Operand::Const(side_value(rng, *ty)),
            );
            let ghost = Predicate::eq_const("zz", 0i64);
            let p = match rng.gen_index(3) {
                0 => and(cross(rng), and(pin, ghost)),
                1 => and(and(pin, ghost), cross(rng)),
                _ => and(pin, and(cross(rng), ghost)),
            };
            (p, Shape::Product)
        }
    }
}

/// Selections over products — what SQL's `from a, b where …` parses to —
/// must agree with the oracle whether lowering turns them into hash joins
/// or leaves the product: on str, bool, labelled-null and mixed-type keys,
/// repeated keys, empty sides, and predicates that fail for some tuples
/// only; and a chain of three or four tables written in any `FROM` order
/// must, once optimized, run as joins all the way down.
#[test]
fn selections_over_products_agree_with_oracle() {
    let _g = unarmed();
    let mut rng = seeded(0x70_1a5e);
    let (mut joins, mut products, mut nonempty, mut errors, mut chains) = (0u32, 0u32, 0, 0, 0);
    for case in 0..400u64 {
        let at = format!("BQ_EXEC_SEED={} case {case}", exec_seed());
        if rng.gen_pct(60) {
            let (db, sides) = product_sides(&mut rng, 2);
            let (pred, shape) = two_way(&mut rng, &sides);
            let expr = sides[0]
                .expr
                .clone()
                .product(sides[1].expr.clone())
                .select(pred);
            let plan = lower(&expr, &db).unwrap().render();
            let planned = if plan.contains("PartitionedHashJoin") {
                Shape::Join
            } else {
                Shape::Product
            };
            assert_eq!(planned, shape, "{at}: {expr}\n{plan}");
            assert_eq!(
                plan.contains("Product"),
                shape == Shape::Product,
                "{at}: {expr}\n{plan}"
            );
            joins += u32::from(shape == Shape::Join);
            products += u32::from(shape == Shape::Product);
            let expected = eval(&expr, &db);
            match &expected {
                Ok(out) => nonempty += u32::from(!out.is_empty()),
                Err(_) => errors += 1,
            }
            assert_engine_agrees(case, &expr, &db, &expected, &executors(&mut rng));
            continue;
        }

        // A chain t0 – t1 – … – tn, each link an equality between int
        // columns of neighbours, listed in a shuffled FROM order so that
        // consecutive FROM entries need not share a conjunct.
        let n = 3 + rng.gen_index(2);
        let (db, sides) = product_sides(&mut rng, n);
        let mut links: Vec<Predicate> = (1..n)
            .map(|i| {
                let ints = |s: &Side| -> Vec<(String, Type)> {
                    let ints = s.cols.iter().filter(|(_, ty)| *ty == Type::Int);
                    ints.cloned().collect()
                };
                let (l, r) = (ints(&sides[i - 1]), ints(&sides[i]));
                col_eq(&l[rng.gen_index(l.len())], &r[rng.gen_index(r.len())])
            })
            .collect();
        rng.shuffle(&mut links);
        if rng.gen_bool() {
            links.push(residual(&mut rng, &sides[0], &sides[n - 1]));
        }
        let mut from: Vec<&Side> = sides.iter().collect();
        rng.shuffle(&mut from);
        let product = from
            .iter()
            .map(|s| s.expr.clone())
            .reduce(Expr::product)
            .unwrap();
        let keep: Vec<&str> = from.iter().map(|s| s.cols[1].0.as_str()).collect();
        let expr = product
            .select(Predicate::from_conjuncts(links))
            .project(&keep);

        let expected = eval(&expr, &db);
        nonempty += u32::from(expected.as_ref().is_ok_and(|out| !out.is_empty()));
        let executors = executors(&mut rng);
        assert_engine_agrees(case, &expr, &db, &expected, &executors);
        // As SQL runs it: optimized first. Every product of the chain has
        // a link to become a join on, whatever the FROM order was.
        let optimized = optimize(&expr, &db).unwrap();
        let plan = lower(&optimized, &db).unwrap().render();
        assert!(
            !plan.contains("Product"),
            "{at}: {expr}\n{optimized}\n{plan}"
        );
        assert_eq!(
            plan.matches("PartitionedHashJoin").count(),
            n - 1,
            "{at}: {optimized}\n{plan}"
        );
        joins += 1;
        chains += 1;
        assert_engine_agrees(case, &optimized, &db, &expected, &executors);
    }
    // Floors: the generator must keep reaching each decision.
    assert!(joins >= 200, "only {joins}/400 cases planned a hash join");
    assert!(chains >= 100, "only {chains}/400 cases were 3–4-way chains");
    assert!(products >= 60, "only {products}/400 cases kept the product");
    assert!(nonempty >= 120, "only {nonempty}/400 answers are non-empty");
    assert!(
        errors >= 8,
        "only {errors}/400 cases reach the unknown name"
    );
}

/// The same tables in an engine, to run an expression through
/// `Query::Algebra`, which executes it as given.
fn engine_of(cat: &Database) -> Db {
    let mut db = Db::new();
    for name in cat.names() {
        let rel = cat.get(name).unwrap();
        let attrs = rel.schema().attrs();
        let cols: Vec<(&str, Type)> = attrs.iter().map(|a| (a.name.as_str(), a.ty)).collect();
        db.create_table(name, &cols).unwrap();
        for t in rel.iter() {
            db.insert(name, t.values().to_vec()).unwrap();
        }
    }
    db
}

/// What a generated n-ary join is built from.
#[derive(Clone, Copy, PartialEq)]
enum Conjunct {
    /// A comparison within one input.
    Single,
    /// An equality between int columns of two inputs.
    Spanning,
    /// A spanning comparison that keys nothing: not `=`, or the equality
    /// under `∨` or `¬`.
    Hidden,
}

/// A conjunct of `kind` over `sides`.
fn nary_conjunct(rng: &mut SplitMix64, sides: &[Side], kind: Conjunct) -> Predicate {
    let i = rng.gen_index(sides.len());
    let j = (i + 1 + rng.gen_index(sides.len() - 1)) % sides.len();
    let (l, r) = (&sides[i], &sides[j]);
    match kind {
        Conjunct::Single => {
            let (name, ty) = pick(rng, l);
            let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Le, CmpOp::Gt][rng.gen_index(4)];
            let constant = Operand::Const(side_value(rng, *ty));
            Predicate::cmp(Operand::attr(name), op, constant)
        }
        Conjunct::Spanning => col_eq(&l.cols[0], &r.cols[0]),
        Conjunct::Hidden => match rng.gen_index(3) {
            0 => residual(rng, l, r),
            1 => Predicate::Or(
                Box::new(col_eq(&l.cols[0], &r.cols[0])),
                Box::new(residual(rng, l, r)),
            ),
            _ => Predicate::Not(Box::new(col_eq(&l.cols[0], &r.cols[0]))),
        },
    }
}

/// Joins of 3–5 inputs listed in a shuffled `FROM` order, as one
/// `Expr::Join` or as a selection over a product, on predicates built
/// from single-input, spanning, hidden and unknown-name conjuncts, with
/// simultaneous renames — a swap `ρ[a→b, b→a]`, or a shift `ρ[a→b, b→w]`
/// onto a name its other pair gives up — over the join and a selection
/// above them. Each must agree with the oracle run unoptimized (by every
/// executor and through `Query::Algebra`) and optimized; a chain whose
/// predicate cannot fail and that the optimizer may reorder runs as n−1
/// hash joins, and one that can fail forms the whole product.
#[test]
fn nary_joins_agree_with_oracle() {
    let _g = unarmed();
    let mut rng = seeded(0x3a7_5015);
    let (mut nonempty, mut errors, mut renamed, mut keyed) = (0u32, 0u32, 0u32, 0u32);
    for case in 0..300u64 {
        let at = format!("BQ_EXEC_SEED={} case {case}", exec_seed());
        let n = 3 + rng.gen_index(3);
        let (cat, sides) = product_sides(&mut rng, n);
        // A chain t0 – t1 – … so that every input has a link, then extras.
        let mut conjuncts: Vec<Predicate> = (1..n)
            .map(|i| col_eq(&sides[i - 1].cols[0], &sides[i].cols[0]))
            .collect();
        for _ in 0..rng.gen_index(4) {
            let kind = [Conjunct::Single, Conjunct::Spanning, Conjunct::Hidden][rng.gen_index(3)];
            conjuncts.push(nary_conjunct(&mut rng, &sides, kind));
        }
        let fallible = rng.gen_pct(15);
        if fallible {
            // An unknown name that only the tuples passing `pin` reach.
            let side = &sides[rng.gen_index(n)];
            let (name, ty) = pick(&mut rng, side);
            let pin = Predicate::cmp(
                Operand::attr(name),
                CmpOp::Eq,
                Operand::Const(side_value(&mut rng, *ty)),
            );
            conjuncts.push(pin.and(Predicate::eq_const("zz", 0i64)));
        }
        rng.shuffle(&mut conjuncts);
        let pred = Predicate::from_conjuncts(conjuncts);
        let mut from: Vec<&Side> = sides.iter().collect();
        rng.shuffle(&mut from);
        let inputs: Vec<Expr> = from.iter().map(|s| s.expr.clone()).collect();
        let mut expr = if rng.gen_bool() {
            Expr::Join { inputs, pred }
        } else {
            inputs
                .into_iter()
                .reduce(Expr::product)
                .unwrap()
                .select(pred)
        };
        // The first column of the first two inputs, under the names the
        // projection sees.
        let mut keep: Vec<String> = from.iter().map(|s| s.cols[0].0.clone()).collect();
        let rename = rng.gen_pct(40);
        if rename {
            let (a, b) = (keep[0].clone(), keep[1].clone());
            // `a`'s column is named `b` either way; `b`'s is named `a` or `w`.
            let to = if rng.gen_bool() {
                a.clone()
            } else {
                "w".to_string()
            };
            let pairs = vec![(a, b.clone()), (b.clone(), to.clone())];
            keep[0] = b;
            keep[1] = to;
            // A selection on a renamed column, which the optimizer must
            // push through the rename.
            let pin = Predicate::cmp(
                Operand::attr(&keep[0]),
                CmpOp::Le,
                Operand::Const(Value::Int(2)),
            );
            expr = expr.renames(pairs).select(pin);
            renamed += 1;
        }
        let keep: Vec<&str> = keep.iter().map(String::as_str).collect();
        let expr = expr.project(&keep);

        let expected = eval(&expr, &cat);
        match &expected {
            Ok(out) => nonempty += u32::from(!out.is_empty()),
            Err(_) => errors += 1,
        }
        let executors = executors(&mut rng);
        assert_engine_agrees(case, &expr, &cat, &expected, &executors);
        let db = engine_of(&cat);
        let ctx = QueryContext::unlimited();
        let door = db
            .run(Query::Algebra(&expr), &ctx, ExecMode::Sequential)
            .and_then(|answer| answer.into_relation(&ctx));
        match (&expected, &door) {
            (Ok(want), Ok(got)) => assert_eq!(got, want, "{at}: Query::Algebra on {expr}"),
            (Err(_), Err(_)) => {}
            _ => panic!("{at}: Query::Algebra {door:?} vs oracle {expected:?} on {expr}"),
        }

        let optimized = optimize(&expr, &cat).unwrap();
        match (&expected, eval(&optimized, &cat)) {
            (Ok(want), Ok(got)) => assert_eq!(&got, want, "{at}: {expr}\n{optimized}"),
            (Err(_), Err(_)) => {}
            (_, got) => panic!("{at}: optimized {got:?} vs {expected:?}: {expr}\n{optimized}"),
        }
        assert_engine_agrees(case, &optimized, &cat, &expected, &executors);
        let plan = lower(&optimized, &cat).unwrap().render();
        if fallible {
            assert!(
                !plan.contains("PartitionedHashJoin"),
                "{at}: {optimized}\n{plan}"
            );
            assert_eq!(plan.matches("Product").count(), n - 1, "{at}: {plan}");
        } else if !rename {
            assert!(!plan.contains("Product"), "{at}: {optimized}\n{plan}");
            assert_eq!(
                plan.matches("PartitionedHashJoin").count(),
                n - 1,
                "{at}: {plan}"
            );
            keyed += 1;
        }
    }
    assert!(nonempty >= 50, "only {nonempty}/300 answers are non-empty");
    assert!(
        errors >= 8,
        "only {errors}/300 cases reach the unknown name"
    );
    assert!(renamed >= 90, "only {renamed}/300 cases rename");
    assert!(
        keyed >= 110,
        "only {keyed}/300 cases were checked for n−1 joins"
    );
}

/// A join of one input is that input filtered by the whole predicate: an
/// unknown name in it fails through the oracle, the engine and
/// `Query::Algebra` alike, rather than vanishing with a join slot the one
/// input never has.
#[test]
fn a_join_of_one_input_keeps_its_predicate() {
    let _g = unarmed();
    let mut rng = seeded(0x1_1a7);
    let (cat, sides) = loop {
        let (cat, sides) = product_sides(&mut rng, 1);
        if !cat.get("t0").unwrap().is_empty() {
            break (cat, sides);
        }
    };
    let join = |pred: Predicate| Expr::Join {
        inputs: vec![sides[0].expr.clone()],
        pred,
    };
    let ghost = join(Predicate::eq_const("ghost", 1i64));
    assert!(
        matches!(eval(&ghost, &cat), Err(RelError::UnknownAttribute(_))),
        "{:?}",
        eval(&ghost, &cat)
    );
    let db = engine_of(&cat);
    let ctx = QueryContext::unlimited();
    for expr in [ghost.clone(), optimize(&ghost, &cat).unwrap()] {
        let expected = eval(&expr, &cat);
        assert_engine_agrees(0, &expr, &cat, &expected, &executors(&mut rng));
        let door = db
            .run(Query::Algebra(&expr), &ctx, ExecMode::Sequential)
            .and_then(|answer| answer.into_relation(&ctx));
        assert!(door.is_err(), "Query::Algebra answered {expr}: {door:?}");
    }
    // A predicate it binds filters it, as a selection would.
    let (name, ty) = &sides[0].cols[0];
    let pin = Predicate::cmp(
        Operand::attr(name),
        CmpOp::Le,
        Operand::Const(side_value(&mut rng, *ty)),
    );
    let want = eval(&sides[0].expr.clone().select(pin.clone()), &cat);
    assert_eq!(eval(&join(pin.clone()), &cat), want);
    assert_engine_agrees(1, &join(pin), &cat, &want, &executors(&mut rng));
}

/// A comparison between two calculus variables is one join of their
/// ranges, so it runs as a hash join — translated as is, and optimized —
/// and never as a product filtered afterwards.
#[test]
fn calculus_comparisons_between_variables_run_as_hash_joins() {
    let _g = unarmed();
    let mut rng = seeded(0xca1c);
    let mut cat = Database::new();
    let mut r = Relation::with_schema(&[("a", Type::Int), ("b", Type::Int)]).unwrap();
    let mut s = Relation::with_schema(&[("b", Type::Int), ("c", Type::Int)]).unwrap();
    for _ in 0..40 {
        let v = |rng: &mut SplitMix64| Value::Int(rng.gen_range(8) as i64);
        r.insert(Tuple::new(vec![v(&mut rng), v(&mut rng)]))
            .unwrap();
        s.insert(Tuple::new(vec![v(&mut rng), v(&mut rng)]))
            .unwrap();
    }
    cat.add("r", r);
    cat.add("s", s);
    let link = Formula::cmp(Term::attr("x", "b"), CmpOp::Eq, Term::attr("y", "b"));
    let both_free = CalcQuery::new(
        &[("x", "r"), ("y", "s")],
        &[("x", "a", "a"), ("y", "c", "c")],
        link.clone(),
    );
    let one_free = CalcQuery::new(
        &[("x", "r")],
        &[("x", "a", "a")],
        Formula::exists("y", "s", link),
    );
    for query in [both_free, one_free] {
        let want = eval_query(&query, &cat).unwrap();
        assert!(!want.is_empty(), "{query}");
        let translated = calculus_to_algebra(&query, &cat).unwrap();
        let optimized = optimize(&translated, &cat).unwrap();
        for expr in [&translated, &optimized] {
            let plan = lower(expr, &cat).unwrap().render();
            assert_eq!(
                plan.matches("PartitionedHashJoin").count(),
                1,
                "{expr}\n{plan}"
            );
            assert!(!plan.contains("Product"), "{expr}\n{plan}");
            assert_engine_agrees(0, expr, &cat, &Ok(want.clone()), &executors(&mut rng));
        }
        assert_eq!(engine_of(&cat).calculus(&query).unwrap(), want, "{query}");
    }
}

/// The columns of every table the set-semantics generator draws from,
/// with domains small enough that projections and unions collide.
const BAG: [(&str, Type); 3] = [("a", Type::Int), ("b", Type::Int), ("c", Type::Str)];

/// Three tables `t0`–`t2` over [`BAG`] with 1–12 rows each.
fn bag_db(rng: &mut SplitMix64) -> Database {
    let mut db = Database::new();
    for t in 0..3 {
        let mut rel = Relation::with_schema(&BAG).unwrap();
        for _ in 0..1 + rng.gen_index(12) {
            let row = BAG.iter().map(|&(_, ty)| match ty {
                Type::Int => Value::Int(rng.gen_range(3) as i64),
                _ => random_value(rng, ty),
            });
            rel.insert(Tuple::new(row.collect())).unwrap();
        }
        db.add(&format!("t{t}"), rel);
    }
    db
}

/// A non-empty subsequence of [`BAG`]'s column names.
fn bag_cols(rng: &mut SplitMix64) -> Vec<&'static str> {
    loop {
        let cols: Vec<&str> = BAG
            .iter()
            .map(|&(n, _)| n)
            .filter(|_| rng.gen_bool())
            .collect();
        if !cols.is_empty() {
            return cols;
        }
    }
}

/// A comparison of one of `cols` with a constant from its domain.
fn bag_pred(rng: &mut SplitMix64, cols: &[&str]) -> Predicate {
    let col = cols[rng.gen_index(cols.len())];
    let ty = BAG.iter().find(|&&(n, _)| n == col).unwrap().1;
    let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Le, CmpOp::Gt][rng.gen_index(4)];
    let constant = match ty {
        Type::Int => Value::Int(rng.gen_range(3) as i64),
        _ => random_value(rng, ty),
    };
    Predicate::cmp(Operand::attr(col), op, Operand::Const(constant))
}

/// An expression over the columns `cols` that may carry duplicates before
/// the result set is built: column-dropping projections, unions,
/// differences, intersections and selections, nested.
fn bag_tree(rng: &mut SplitMix64, cols: &[&str], depth: usize) -> Expr {
    if depth == 0 || rng.gen_pct(30) {
        let mut leaf = Expr::rel(format!("t{}", rng.gen_index(3)));
        if rng.gen_pct(40) {
            leaf = leaf.select(bag_pred(rng, &["a", "b", "c"]));
        }
        return leaf.project(cols);
    }
    let side = |rng: &mut SplitMix64| bag_tree(rng, cols, depth - 1);
    match rng.gen_index(5) {
        0 => side(rng).union(side(rng)),
        1 => side(rng).difference(side(rng)),
        2 => side(rng).intersection(side(rng)),
        3 => side(rng).select(bag_pred(rng, cols)),
        _ => {
            // A wider tree, narrowed.
            let wider: Vec<&str> = BAG
                .iter()
                .map(|&(n, _)| n)
                .filter(|n| cols.contains(n) || rng.gen_bool())
                .collect();
            bag_tree(rng, &wider, depth - 1).project(cols)
        }
    }
}

/// A set-semantics case: a [`bag_tree`] alone, or two as the inputs of a
/// natural join, a product, or a selection over a product that lowers to
/// a hash join; the last three sometimes projected again.
fn bag_expr(rng: &mut SplitMix64, db: &Database) -> Expr {
    let (l, r) = (bag_cols(rng), bag_cols(rng));
    let (left, right) = (bag_tree(rng, &l, 2), bag_tree(rng, &r, 2));
    if rng.gen_pct(35) {
        return left;
    }
    let joined = match rng.gen_index(3) {
        0 => left.natural_join(right),
        1 => left.qualify("l").product(right.qualify("r")),
        _ => {
            let key = |cols: &[&str], side: &str, rng: &mut SplitMix64| {
                let ints: Vec<&str> = cols.iter().copied().filter(|&c| c != "c").collect();
                let col = if ints.is_empty() {
                    "c"
                } else {
                    ints[rng.gen_index(ints.len())]
                };
                format!("{side}.{col}")
            };
            let on = Predicate::eq_attrs(&key(&l, "l", rng), &key(&r, "r", rng));
            left.qualify("l").product(right.qualify("r")).select(on)
        }
    };
    if rng.gen_pct(30) {
        return joined;
    }
    let schema = joined.schema(db).unwrap();
    let mut keep: Vec<&str> = Vec::new();
    while keep.is_empty() {
        keep = schema
            .names()
            .into_iter()
            .filter(|_| rng.gen_bool())
            .collect();
    }
    joined.project(&keep)
}

/// Check where `plan` deduplicates, returning how many join or product
/// inputs it deduplicates. A `HashDistinct` sits only directly on a join
/// or product input, and on exactly those that may carry duplicates; an
/// input that is said not to carry any really produces none.
fn check_dedup_shape(plan: &PhysPlan, under_join: bool, db: &Database, at: &str) -> u32 {
    let joins = matches!(
        plan,
        PhysPlan::PartitionedHashJoin { .. } | PhysPlan::Product { .. }
    );
    let here = match plan {
        PhysPlan::HashDistinct { input } => {
            assert!(under_join, "{at}: a distinct above the joins");
            assert!(input.may_carry_duplicates(), "{at}: a needless distinct");
            1
        }
        input if under_join => {
            assert!(
                !input.may_carry_duplicates(),
                "{at}: duplicates reach a join"
            );
            let ctx = QueryContext::unlimited();
            let (_, stats) = Executor::new(ExecMode::Sequential)
                .execute_plan_with_stats_ctx(input, db, &ctx)
                .unwrap();
            assert_eq!(stats.rows_in, stats.rows_out, "{at}: {}", input.render());
            0
        }
        _ => 0,
    };
    here + plan
        .children()
        .into_iter()
        .map(|c| check_dedup_shape(c, joins, db, at))
        .sum::<u32>()
}

/// Set semantics are paid once: projections and unions lower without a
/// distinct, their duplicates leave at the root set build, and only a join
/// or product input that may carry duplicates is deduplicated before the
/// join multiplies them. Every case must agree with the oracle.
#[test]
fn duplicates_leave_at_the_set_build_or_before_a_join() {
    let _g = unarmed();
    let mut rng = seeded(0x5e7_b11d);
    let (mut dropped, mut deduplicated, mut joins, mut nonempty) = (0u32, 0u32, 0u32, 0u32);
    for case in 0..400u64 {
        let at = format!("BQ_EXEC_SEED={} case {case}", exec_seed());
        let db = bag_db(&mut rng);
        let expr = bag_expr(&mut rng, &db);
        let plan = lower(&expr, &db).unwrap();
        let inputs = check_dedup_shape(&plan, false, &db, &format!("{at}: {expr}"));
        deduplicated += u32::from(inputs > 0);
        let rendered = plan.render();
        joins += u32::from(rendered.contains("Join") || rendered.contains("Product"));

        let ctx = QueryContext::unlimited();
        let (rel, stats) = Executor::new(ExecMode::Sequential)
            .execute_plan_with_stats_ctx(&plan, &db, &ctx)
            .unwrap();
        assert_eq!(stats.op, SET_BUILD, "{at}");
        assert_eq!(stats.rows_out, rel.len() as u64, "{at}");
        if !plan.may_carry_duplicates() {
            assert_eq!(stats.rows_in, stats.rows_out, "{at}: {expr}\n{rendered}");
        }
        dropped += u32::from(stats.rows_in > stats.rows_out);
        nonempty += u32::from(!rel.is_empty());

        let expected = eval(&expr, &db);
        assert_engine_agrees(case, &expr, &db, &expected, &executors(&mut rng));
    }
    assert!(
        dropped >= 70,
        "only {dropped}/400 set builds dropped a duplicate"
    );
    assert!(
        deduplicated >= 180,
        "only {deduplicated}/400 plans deduplicate a join input"
    );
    assert!(joins >= 180, "only {joins}/400 cases join");
    assert!(nonempty >= 180, "only {nonempty}/400 answers are non-empty");
}

const STAR_SQL: &str = "select f.id, d.grp from fact f, dim d where f.k = d.k and f.v > 900";
const THREEWAY_SQL: &str = "select f.id as a, g.id as b from fact f, dim d, fact g \
     where f.k = d.k and g.k = d.k and f.v > 990 and g.v > 990";

/// The seven select shapes of the benchmark (`benchspine/src/gen.rs`:
/// `point-read`'s point and range selects, `analytic-join`'s five shapes),
/// copied as literals with their plans as EXPLAIN shows them. Join order,
/// keys, scan predicates and seeks are what the benchmark's numbers were
/// measured on; a change to any of them must show here.
const BENCHMARK_PLANS: [(&str, &str); 7] = [
    (
        "select f.id, f.k, f.v from fact f where f.id = 1234",
        "Reschema [(id: int, k: int, v: int)]
  SeqScan [fact] where f.id = 1234 seek id = 1234
",
    ),
    (
        "select f.id, f.k, f.v from fact f where f.v > 990",
        "Reschema [(id: int, k: int, v: int)]
  SeqScan [fact] where f.v > 990
",
    ),
    (
        STAR_SQL,
        "Reschema [(id: int, grp: int)]
  Project [f.id, d.grp]
    PartitionedHashJoin [d.k = f.k]
      Reschema [(d.k: int, d.grp: int)]
        SeqScan [dim]
      Reschema [(f.id: int, f.k: int, f.v: int)]
        SeqScan [fact] where f.v > 900
",
    ),
    (
        THREEWAY_SQL,
        "Reschema [(a: int, b: int)]
  Project [f.id, g.id]
    PartitionedHashJoin [d.k = g.k]
      PartitionedHashJoin [d.k = f.k]
        Reschema [(d.k: int, d.grp: int)]
          SeqScan [dim]
        Reschema [(f.id: int, f.k: int, f.v: int)]
          SeqScan [fact] where f.v > 990
      Reschema [(g.id: int, g.k: int, g.v: int)]
        SeqScan [fact] where g.v > 990
",
    ),
    (
        "select f.id from fact f where f.v > 500 union select f.id from fact f where f.k < 50",
        "UnionAll
  Reschema [(id: int)]
    Project [f.id]
      Reschema [(f.id: int, f.k: int, f.v: int)]
        SeqScan [fact] where f.v > 500
  Reschema [(id: int)]
    Project [f.id]
      Reschema [(f.id: int, f.k: int, f.v: int)]
        SeqScan [fact] where f.k < 50
",
    ),
    (
        "select f.id from fact f where f.v > 500 except select f.id from fact f where f.k < 200",
        "HashDifference
  Reschema [(id: int)]
    Project [f.id]
      Reschema [(f.id: int, f.k: int, f.v: int)]
        SeqScan [fact] where f.v > 500
  Reschema [(id: int)]
    Project [f.id]
      Reschema [(f.id: int, f.k: int, f.v: int)]
        SeqScan [fact] where f.k < 200
",
    ),
    (
        "select f.id, f.k, f.v from fact f",
        "Reschema [(id: int, k: int, v: int)]
  SeqScan [fact]
",
    ),
];

/// The operator tree `explain analyze` reports for `sql`: the lines under
/// the root set build, without their runtime figures.
fn explain(db: &Db, sql: &str) -> String {
    let report = db.explain_analyze(sql, &db.govern(), db.exec_mode());
    let report = report.unwrap();
    let below_root = report
        .lines()
        .skip_while(|l| !l.starts_with(SET_BUILD))
        .skip(1);
    below_root
        .map(|line| format!("{}\n", line[2..].split("  (rows=").next().unwrap()))
        .collect()
}

/// The select statements of the benchmark workloads (`benchspine/src/
/// gen.rs`), copied as literals: through `Db`, as a client runs them,
/// each explains as its pinned plan — the join statements as hash joins,
/// never a product — and returns what the oracle returns for the
/// statement as parsed. A 16-column select explains as one relabelling.
#[test]
fn the_benchmark_join_statements_run_as_hash_joins() {
    let _g = unarmed();
    let mut db = Db::new();
    let int = |names: &[&'static str]| -> Vec<(&'static str, Type)> {
        names.iter().map(|n| (*n, Type::Int)).collect()
    };
    db.create_table("fact", &int(&["id", "k", "v"])).unwrap();
    db.create_table("dim", &int(&["k", "grp"])).unwrap();
    let mut rng = seeded(0xbe_7c4);
    // Small: the oracle below joins by nested loops.
    for id in 0..80i64 {
        let (k, v) = (rng.gen_range(10) as i64, 880 + rng.gen_range(120) as i64);
        db.insert("fact", vec![id.into(), k.into(), v.into()])
            .unwrap();
    }
    for k in 0..10i64 {
        db.insert("dim", vec![k.into(), (k % 13).into()]).unwrap();
    }
    let mut oracle = Database::new();
    for table in ["fact", "dim"] {
        oracle.add(table, db.table(table).unwrap().clone());
    }
    for (sql, joins) in [(STAR_SQL, 1), (THREEWAY_SQL, 2)] {
        let plan = explain(&db, sql);
        assert!(!plan.contains("Product"), "{sql}\n{plan}");
        assert_eq!(plan.matches("PartitionedHashJoin").count(), joins, "{plan}");
        let parsed = big_queries::bq_relational::sqlish::parse(sql).unwrap();
        let want = eval(&parsed, &oracle).unwrap();
        assert!(!want.is_empty(), "{sql}");
        assert_eq!(db.sql(sql).unwrap(), want, "{sql}");
    }
    for (sql, pinned) in BENCHMARK_PLANS {
        assert_eq!(explain(&db, sql), pinned, "{sql}");
        let parsed = big_queries::bq_relational::sqlish::parse(sql).unwrap();
        assert_eq!(
            db.sql(sql).unwrap(),
            eval(&parsed, &oracle).unwrap(),
            "{sql}"
        );
    }

    let names: Vec<String> = (0..16).map(|i| format!("c{i}")).collect();
    let cols: Vec<(&str, Type)> = names.iter().map(|n| (n.as_str(), Type::Int)).collect();
    db.create_table("w", &cols).unwrap();
    db.insert("w", vec![Value::Int(0); 16]).unwrap();
    let list: Vec<String> = (0..16).map(|i| format!("w.c{i} as d{i}")).collect();
    let plan = explain(&db, &format!("select {} from w", list.join(", ")));
    assert_eq!(plan.lines().count(), 2, "{plan}");
    assert_eq!(plan.matches("Reschema").count(), 1, "{plan}");
    assert!(plan.contains("d15: int)]\n  SeqScan [w]"), "{plan}");
}

/// A join-heavy plan big enough that every worker actually gets morsels.
#[test]
fn engine_agrees_on_a_large_join() {
    let _g = unarmed();
    let mut db = Database::new();
    let mut fact = Relation::with_schema(&[("a", Type::Int), ("b", Type::Int)]).unwrap();
    let mut rng = seeded(0xb16_70b5);
    for _ in 0..5000 {
        fact.insert(Tuple::new(vec![
            Value::Int(rng.gen_range(200) as i64),
            Value::Int(rng.gen_range(200) as i64),
        ]))
        .unwrap();
    }
    db.add("fact", fact);
    let mut dim = Relation::with_schema(&[("b", Type::Int), ("c", Type::Int)]).unwrap();
    for i in 0..200i64 {
        dim.insert(Tuple::new(vec![Value::Int(i), Value::Int(i % 7)]))
            .unwrap();
    }
    db.add("dim", dim);

    let expr = Expr::rel("fact")
        .natural_join(Expr::rel("dim"))
        .select(Predicate::cmp(
            Operand::attr("c"),
            CmpOp::Ne,
            Operand::Const(Value::Int(3)),
        ))
        .project(&["a", "c"]);
    let want = eval(&expr, &db).unwrap();
    for workers in [1, 2, 4, 8] {
        let ex = Executor::new(ExecMode::Parallel(workers)).with_morsel_size(256);
        let got = ex.execute(&expr, &db).unwrap();
        assert_eq!(got, want, "{workers} workers");
    }
}

/// Injected worker panics at every morsel index: the executor degrades to
/// a sequential re-run and the query result never changes.
#[test]
fn exec_panics_at_every_morsel_keep_results_exact() {
    let _g = FAILPOINTS.write().unwrap_or_else(|e| e.into_inner());
    faults::reset();
    let mut db = Database::new();
    let mut rel = Relation::with_schema(&[("k", Type::Int), ("v", Type::Int)]).unwrap();
    for i in 0..300i64 {
        rel.insert(Tuple::new(vec![Value::Int(i), Value::Int(i % 17)]))
            .unwrap();
    }
    db.add("t", rel);
    let expr = Expr::rel("t").project(&["v"]);

    let oracle = Executor::new(ExecMode::Sequential)
        .with_morsel_size(16)
        .execute(&expr, &db)
        .unwrap();

    let mut scenarios = 0usize;
    for k in 1..=25u64 {
        // Global scope: the panic must land on a worker thread.
        faults::configure(
            "exec.morsel.panic",
            Policy::new(Action::Panic, Trigger::Nth(k)),
        );
        let got = Executor::new(ExecMode::Parallel(4))
            .with_morsel_size(16)
            .execute(&expr, &db)
            .unwrap();
        let fired = faults::fire_count("exec.morsel.panic") >= 1;
        faults::reset();
        assert_eq!(got, oracle, "panic at morsel {k} changed the result");
        if fired {
            scenarios += 1;
        }
    }
    assert!(scenarios >= 15, "only {scenarios} exec-panic scenarios");
}
