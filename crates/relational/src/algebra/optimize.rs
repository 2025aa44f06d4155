//! Rule-based algebraic optimization, in one traversal.
//!
//! Implements the classical rewrites every relational optimizer starts from:
//!
//! 1. **selection cascade** — `σ[p](σ[q](E))` ⇒ `σ[q ∧ p](E)`, and a
//!    selection directly over a join merges into the join's predicate;
//! 2. **selection pushdown** — a conjunct whose attributes all lie in one
//!    input of a join sinks into that input, and selections pass through
//!    natural joins, unions of same-named inputs and renames (substituting
//!    every renamed attribute at once) as far as their attributes allow;
//! 3. **join ordering** — under a projection, the inputs of a join are
//!    ordered greedily along the equality conjuncts that connect them
//!    (smallest first), so that no two inputs without a shared conjunct
//!    are multiplied while a connected one is left.
//!
//! What stays on a join is applied where it is formed: lowering and the
//! evaluator place each conjunct at the first input whose prefix binds it
//! ([`join_steps`](crate::algebra::expr::join_steps)). The optimizer is
//! semantics-preserving by construction and its effect is measured in
//! intermediate-tuple counts (see `bq-bench`).

use crate::algebra::expr::{Expr, Operand, Predicate};
use crate::catalog::Database;
use crate::value::CmpOp;
use crate::Result;
use std::collections::BTreeSet;

/// Optimize an expression against a database schema. Equivalent to the
/// input on every database with the same schemas (join reordering happens
/// only under a projection, which fixes the column order).
pub fn optimize(expr: &Expr, db: &Database) -> Result<Expr> {
    opt(expr.clone(), db, false)
}

/// `reorder`: the expression sits under a projection, through selections
/// only, so a join's column order is free.
fn opt(expr: Expr, db: &Database, reorder: bool) -> Result<Expr> {
    let opt_box = |e: Box<Expr>| opt(*e, db, false).map(Box::new);
    Ok(match expr {
        Expr::Select { pred, input } => match *input {
            Expr::Select { pred: inner, input } => {
                let pred = inner.and(pred);
                return opt(Expr::Select { pred, input }, db, reorder);
            }
            Expr::Join { inputs, pred: on } => {
                join(opt_all(inputs, db)?, on.and(pred), db, reorder)?
            }
            input => push(opt(input, db, false)?, pred.conjuncts(), db)?,
        },
        Expr::Join { inputs, pred } => join(opt_all(inputs, db)?, pred, db, reorder)?,
        Expr::Project { cols, input } => Expr::Project {
            cols,
            input: Box::new(opt(*input, db, true)?),
        },
        Expr::Rename { pairs, input } => Expr::Rename {
            pairs,
            input: opt_box(input)?,
        },
        Expr::Qualify { var, input } => Expr::Qualify {
            var,
            input: opt_box(input)?,
        },
        Expr::NaturalJoin(l, r) => Expr::NaturalJoin(opt_box(l)?, opt_box(r)?),
        Expr::Union(l, r) => Expr::Union(opt_box(l)?, opt_box(r)?),
        Expr::Difference(l, r) => Expr::Difference(opt_box(l)?, opt_box(r)?),
        Expr::Intersection(l, r) => Expr::Intersection(opt_box(l)?, opt_box(r)?),
        Expr::Division(l, r) => Expr::Division(opt_box(l)?, opt_box(r)?),
        e @ Expr::Rel(_) => e,
    })
}

fn opt_all(inputs: Vec<Expr>, db: &Database) -> Result<Vec<Expr>> {
    inputs.into_iter().map(|e| opt(e, db, false)).collect()
}

/// Place `pred` over a join of optimized `inputs`: each conjunct whose
/// attributes all lie in one input sinks into it, the others stay on the
/// join, and with `reorder` the inputs are ordered along them.
///
/// A predicate naming an attribute no input has stays whole: the evaluator
/// applies it to the full product, and sinking a conjunct written after
/// the failing one would spare the tuples it rejects from the failure.
fn join(inputs: Vec<Expr>, pred: Predicate, db: &Database, reorder: bool) -> Result<Expr> {
    let attrs: Vec<BTreeSet<String>> = inputs
        .iter()
        .map(|e| attr_names(e, db))
        .collect::<Result<_>>()?;
    let conjuncts = pred.conjuncts();
    let known = |c: &Predicate| {
        c.attrs()
            .iter()
            .all(|a| attrs.iter().any(|s| s.contains(a)))
    };
    let mut sunk = vec![Vec::new(); inputs.len()];
    let mut here = Vec::new();
    if conjuncts.iter().all(known) {
        for c in conjuncts {
            match attrs.iter().position(|s| c.attrs().is_subset(s)) {
                Some(i) => sunk[i].push(c),
                None => here.push(c),
            }
        }
    } else {
        here = conjuncts;
    }
    let leaves: Vec<Leaf> = inputs
        .into_iter()
        .zip(sunk)
        .zip(attrs)
        .map(|((e, sunk), attrs)| {
            let expr = push(e, sunk, db)?;
            Ok(Leaf {
                size: estimate(&expr, db),
                attrs,
                expr,
            })
        })
        .collect::<Result<_>>()?;
    let inputs = match reorder {
        true => order(leaves, &here),
        false => leaves.into_iter().map(|leaf| leaf.expr).collect(),
    };
    Ok(Expr::Join {
        inputs,
        pred: Predicate::from_conjuncts(here),
    })
}

/// One input of a join, measured once.
struct Leaf {
    expr: Expr,
    size: f64,
    attrs: BTreeSet<String>,
}

/// Greedy by connection: start from the smallest input, then always take
/// the smallest input that an equality conjunct of `on` connects to what
/// is already joined, so every join step has a conjunct to key on. Size
/// alone decides only when nothing is connected — ordering by size
/// throughout can put two inputs that share no conjunct side by side and
/// multiply them in full.
fn order(mut leaves: Vec<Leaf>, on: &[Predicate]) -> Vec<Expr> {
    let links: Vec<(&String, &String)> = on
        .iter()
        .filter_map(|c| match c {
            Predicate::Cmp {
                l: Operand::Attr(a),
                op: CmpOp::Eq,
                r: Operand::Attr(b),
            } => Some((a, b)),
            _ => None,
        })
        .collect();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut ordered = Vec::with_capacity(leaves.len());
    while !leaves.is_empty() {
        let connects = |leaf: &Leaf| {
            let (joined, attrs) = (&seen, &leaf.attrs);
            links.iter().any(|&(a, b)| {
                (joined.contains(a) && attrs.contains(b))
                    || (joined.contains(b) && attrs.contains(a))
            })
        };
        // `min_by` returns the first of equals: ties keep the FROM order.
        let by_size = |a: &(usize, &Leaf), b: &(usize, &Leaf)| a.1.size.total_cmp(&b.1.size);
        let pick = leaves
            .iter()
            .enumerate()
            .filter(|(_, leaf)| connects(leaf))
            .min_by(by_size)
            .or_else(|| leaves.iter().enumerate().min_by(by_size))
            .map_or(0, |(i, _)| i);
        let leaf = leaves.remove(pick);
        seen.extend(leaf.attrs);
        ordered.push(leaf.expr);
    }
    ordered
}

/// Estimated output cardinality — the crudest possible cost model (base
/// sizes, fixed selectivities), in the spirit of the era.
fn estimate(expr: &Expr, db: &Database) -> f64 {
    match expr {
        Expr::Rel(name) => db.get(name).map(|r| r.len() as f64).unwrap_or(1.0),
        Expr::Select { input, .. } => estimate(input, db) * 0.3,
        Expr::Project { input, .. } | Expr::Rename { input, .. } | Expr::Qualify { input, .. } => {
            estimate(input, db)
        }
        Expr::Join { inputs, pred } => {
            let product: f64 = inputs.iter().map(|e| estimate(e, db)).product();
            match pred {
                Predicate::True => product,
                _ => product * 0.3,
            }
        }
        Expr::NaturalJoin(l, r) => estimate(l, db) * estimate(r, db) * 0.1,
        Expr::Union(l, r) => estimate(l, db) + estimate(r, db),
        Expr::Difference(l, _) => estimate(l, db),
        Expr::Intersection(l, r) => estimate(l, db).min(estimate(r, db)),
        Expr::Division(l, _) => estimate(l, db),
    }
}

fn attr_names(expr: &Expr, db: &Database) -> Result<BTreeSet<String>> {
    let schema = expr.schema(db)?;
    Ok(schema.names().iter().map(|s| s.to_string()).collect())
}

/// Push `conjuncts` into an optimized `input` as far as their attributes
/// allow, leaving the rest in a selection on top.
fn push(input: Expr, conjuncts: Vec<Predicate>, db: &Database) -> Result<Expr> {
    if conjuncts.is_empty() {
        return Ok(input);
    }
    match input {
        Expr::Join { inputs, pred } => {
            let pred = pred.and(Predicate::from_conjuncts(conjuncts));
            join(inputs, pred, db, false)
        }
        Expr::NaturalJoin(l, r) => {
            let l_attrs = attr_names(&l, db)?;
            let r_attrs = attr_names(&r, db)?;
            let (mut left, mut right, mut here) = (Vec::new(), Vec::new(), Vec::new());
            for c in conjuncts {
                let used = c.attrs();
                // Join attributes appear on both sides: a predicate on them
                // could go to either; the left one takes it.
                if used.is_subset(&l_attrs) {
                    left.push(c);
                } else if used.is_subset(&r_attrs) {
                    right.push(c);
                } else {
                    here.push(c);
                }
            }
            let join = Expr::NaturalJoin(
                Box::new(push(*l, left, db)?),
                Box::new(push(*r, right, db)?),
            );
            Ok(wrap_select(join, here))
        }
        // Conjuncts name the left input's attributes; they apply to the
        // right one only when its names are the same.
        Expr::Union(l, r) if l.schema(db)?.names() == r.schema(db)?.names() => Ok(Expr::Union(
            Box::new(push(*l, conjuncts.clone(), db)?),
            Box::new(push(*r, conjuncts, db)?),
        )),
        Expr::Select { pred, input } => {
            let mut all = pred.conjuncts();
            all.extend(conjuncts);
            push(*input, all, db)
        }
        Expr::Rename { pairs, input } => {
            // σ[p](ρ[a→b](E)) = ρ[a→b](σ[p[b:=a]](E)), for every pair at
            // once. An attribute the rename gives up is unknown above it,
            // and a conjunct naming one stays there.
            let given_up = |a: &String| {
                pairs.iter().any(|(from, _)| from == a) && !pairs.iter().any(|(_, to)| to == a)
            };
            let (here, down): (Vec<Predicate>, Vec<Predicate>) = conjuncts
                .into_iter()
                .partition(|c| c.attrs().iter().any(given_up));
            let down = down.into_iter().map(|c| substitute(c, &pairs)).collect();
            let input = Box::new(push(*input, down, db)?);
            Ok(wrap_select(Expr::Rename { pairs, input }, here))
        }
        other => Ok(wrap_select(other, conjuncts)),
    }
}

fn wrap_select(input: Expr, conjuncts: Vec<Predicate>) -> Expr {
    if conjuncts.is_empty() {
        input
    } else {
        Expr::Select {
            pred: Predicate::from_conjuncts(conjuncts),
            input: Box::new(input),
        }
    }
}

/// Rewrite `pred` from a rename's output names to its input names: each
/// attribute some pair renames *to* becomes that pair's `from`, all at
/// once, so `ρ[a→b, b→a]` swaps back rather than chaining.
fn substitute(pred: Predicate, pairs: &[(String, String)]) -> Predicate {
    let sub = |o: Operand| match o {
        Operand::Attr(a) => match pairs.iter().find(|(_, to)| *to == a) {
            Some((from, _)) => Operand::Attr(from.clone()),
            None => Operand::Attr(a),
        },
        other => other,
    };
    let boxed = |p: Box<Predicate>| Box::new(substitute(*p, pairs));
    match pred {
        Predicate::Cmp { l, op, r } => Predicate::Cmp {
            l: sub(l),
            op,
            r: sub(r),
        },
        Predicate::And(a, b) => Predicate::And(boxed(a), boxed(b)),
        Predicate::Or(a, b) => Predicate::Or(boxed(a), boxed(b)),
        Predicate::Not(p) => Predicate::Not(boxed(p)),
        p => p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::eval::{eval, eval_with_stats};
    use crate::relation::Relation;
    use crate::value::Type;

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::with_schema(&[("a", Type::Int), ("b", Type::Int)]).unwrap();
        let mut s = Relation::with_schema(&[("c", Type::Int), ("d", Type::Int)]).unwrap();
        for i in 0..20i64 {
            r.insert(crate::tup![i, i * 2]).unwrap();
            s.insert(crate::tup![i, i * 3]).unwrap();
        }
        db.add("r", r);
        db.add("s", s);
        db
    }

    #[test]
    fn pushdown_preserves_semantics() {
        let db = db();
        let e = Expr::rel("r").product(Expr::rel("s")).select(
            Predicate::eq_attrs("a", "c")
                .and(Predicate::eq_const("b", 4i64))
                .and(Predicate::eq_const("d", 6i64)),
        );
        let opt = optimize(&e, &db).unwrap();
        assert_eq!(eval(&e, &db).unwrap(), eval(&opt, &db).unwrap());
    }

    #[test]
    fn pushdown_reduces_intermediate_tuples() {
        let db = db();
        let e = Expr::rel("r")
            .product(Expr::rel("s"))
            .select(Predicate::eq_const("b", 4i64).and(Predicate::eq_attrs("a", "c")));
        let opt = optimize(&e, &db).unwrap();
        let (_, before) = eval_with_stats(&e, &db).unwrap();
        let (_, after) = eval_with_stats(&opt, &db).unwrap();
        assert!(
            after.intermediate_tuples < before.intermediate_tuples,
            "pushdown should shrink intermediates: {} vs {}",
            after.intermediate_tuples,
            before.intermediate_tuples
        );
    }

    #[test]
    fn single_side_conjunct_lands_on_base() {
        let db = db();
        let e = Expr::rel("r")
            .product(Expr::rel("s"))
            .select(Predicate::eq_const("a", 1i64));
        let opt = optimize(&e, &db).unwrap();
        // the selection should now be inside the product
        match &opt {
            Expr::Join { inputs, pred } => {
                assert!(matches!(inputs[0], Expr::Select { .. }), "got {opt}");
                assert_eq!(*pred, Predicate::True, "got {opt}");
            }
            other => panic!("expected product at root, got {other}"),
        }
    }

    #[test]
    fn cross_side_conjunct_stays_put() {
        let db = db();
        let e = Expr::rel("r")
            .product(Expr::rel("s"))
            .select(Predicate::eq_attrs("a", "c"));
        let opt = optimize(&e, &db).unwrap();
        assert!(
            matches!(&opt, Expr::Join { inputs, pred }
                if *pred == Predicate::eq_attrs("a", "c") && inputs.iter().all(|i| matches!(i, Expr::Rel(_)))),
            "join predicate cannot sink: {opt}"
        );
    }

    #[test]
    fn selection_commutes_with_rename() {
        let db = db();
        let e = Expr::rel("r")
            .rename("a", "x")
            .select(Predicate::eq_const("x", 3i64));
        let opt = optimize(&e, &db).unwrap();
        assert_eq!(eval(&e, &db).unwrap(), eval(&opt, &db).unwrap());
        // selection sank below the rename
        assert!(matches!(opt, Expr::Rename { .. }), "got {opt}");
    }

    #[test]
    fn selection_pushes_into_union_when_names_match() {
        let mut db = Database::new();
        let mk = |lo: i64| {
            let mut r = Relation::with_schema(&[("x", Type::Int)]).unwrap();
            for i in lo..lo + 5 {
                r.insert(crate::tup![i]).unwrap();
            }
            r
        };
        db.add("p", mk(0));
        db.add("q", mk(3));
        let e = Expr::rel("p")
            .union(Expr::rel("q"))
            .select(Predicate::eq_const("x", 4i64));
        let opt = optimize(&e, &db).unwrap();
        assert!(matches!(opt, Expr::Union(..)), "got {opt}");
        assert_eq!(eval(&e, &db).unwrap(), eval(&opt, &db).unwrap());
        assert_eq!(eval(&opt, &db).unwrap().len(), 1);
    }

    #[test]
    fn nested_selects_merge() {
        let db = db();
        let e = Expr::rel("r")
            .select(Predicate::eq_const("a", 1i64))
            .select(Predicate::eq_const("b", 2i64));
        let opt = optimize(&e, &db).unwrap();
        assert_eq!(eval(&e, &db).unwrap(), eval(&opt, &db).unwrap());
        // One Select node remains (merged cascade).
        fn count_selects(e: &Expr) -> usize {
            match e {
                Expr::Select { input, .. } => 1 + count_selects(input),
                Expr::Rel(_) => 0,
                Expr::Project { input, .. }
                | Expr::Rename { input, .. }
                | Expr::Qualify { input, .. } => count_selects(input),
                Expr::Join { inputs, .. } => inputs.iter().map(count_selects).sum(),
                Expr::NaturalJoin(l, r)
                | Expr::Union(l, r)
                | Expr::Difference(l, r)
                | Expr::Intersection(l, r)
                | Expr::Division(l, r) => count_selects(l) + count_selects(r),
            }
        }
        assert_eq!(count_selects(&opt), 1);
    }

    fn sized_db() -> Database {
        let mut db = Database::new();
        let mk = |prefix: &str, n: i64| {
            let mut r =
                Relation::with_schema(&[(&format!("{prefix}k") as &str, Type::Int)]).unwrap();
            for i in 0..n {
                r.insert(crate::tup![i]).unwrap();
            }
            r
        };
        db.add("big", mk("b", 50));
        db.add("mid", mk("m", 10));
        db.add("tiny", mk("t", 2));
        db
    }

    #[test]
    fn product_reordering_puts_small_relations_first() {
        let db = sized_db();
        // A projection on top makes column order free to rearrange.
        let e = Expr::rel("big")
            .product(Expr::rel("mid"))
            .product(Expr::rel("tiny"))
            .project(&["bk", "tk"]);
        let opt = optimize(&e, &db).unwrap();
        // Semantics preserved…
        assert_eq!(eval(&e, &db).unwrap(), eval(&opt, &db).unwrap());
        // …and the work went down: tiny × mid materializes before big.
        let (_, before) = eval_with_stats(&e, &db).unwrap();
        let (_, after) = eval_with_stats(&opt, &db).unwrap();
        assert!(
            after.intermediate_tuples < before.intermediate_tuples,
            "{} vs {}",
            after.intermediate_tuples,
            before.intermediate_tuples
        );
    }

    /// Does every step of every join fold have an equality conjunct that
    /// links the inputs before it to the input it adds — i.e. does the
    /// executor get a join key for each of them?
    fn every_product_is_linked(e: &Expr, db: &Database) -> bool {
        let linked = |e: &Expr| every_product_is_linked(e, db);
        match e {
            Expr::Join { inputs, pred } => {
                let links: Vec<(String, String)> = pred
                    .clone()
                    .conjuncts()
                    .into_iter()
                    .filter_map(|c| match c {
                        Predicate::Cmp {
                            l: Operand::Attr(a),
                            op: CmpOp::Eq,
                            r: Operand::Attr(b),
                        } => Some((a, b)),
                        _ => None,
                    })
                    .collect();
                let mut seen = BTreeSet::new();
                inputs.iter().enumerate().all(|(k, input)| {
                    let attrs = attr_names(input, db).unwrap();
                    let ok = k == 0
                        || links.iter().any(|(a, b)| {
                            (seen.contains(a) && attrs.contains(b))
                                || (seen.contains(b) && attrs.contains(a))
                        });
                    seen.extend(attrs);
                    ok && linked(input)
                })
            }
            Expr::Rel(_) => true,
            Expr::Select { input, .. }
            | Expr::Project { input, .. }
            | Expr::Rename { input, .. }
            | Expr::Qualify { input, .. } => linked(input),
            Expr::NaturalJoin(l, r)
            | Expr::Union(l, r)
            | Expr::Difference(l, r)
            | Expr::Intersection(l, r)
            | Expr::Division(l, r) => linked(l) && linked(r),
        }
    }

    fn star_db() -> Database {
        let mut db = Database::new();
        let mut fact = Relation::with_schema(&[("fk", Type::Int), ("fv", Type::Int)]).unwrap();
        for i in 0..60i64 {
            fact.insert(crate::tup![i % 6, i % 4]).unwrap();
        }
        db.add("fact", fact);
        for (name, n) in [("d", 6i64), ("e", 4), ("g", 5)] {
            let (key, payload) = (format!("{name}k"), format!("{name}x"));
            let mut dim =
                Relation::with_schema(&[(&key as &str, Type::Int), (&payload, Type::Int)]).unwrap();
            for i in 0..n {
                dim.insert(crate::tup![i, i * 10]).unwrap();
            }
            db.add(name, dim);
        }
        db
    }

    #[test]
    fn reordering_follows_the_join_conjuncts_before_size() {
        let db = star_db();
        // Two small dimensions that share no conjunct, listed first, and
        // the fact table that links them: by size alone the order is
        // e, d, fact — and e × d is a cross product nothing can key.
        let e = Expr::rel("d")
            .product(Expr::rel("e"))
            .product(Expr::rel("fact"))
            .select(Predicate::eq_attrs("fk", "dk").and(Predicate::eq_attrs("fv", "ek")))
            .project(&["dx", "ex"]);
        let opt = optimize(&e, &db).unwrap();
        assert!(every_product_is_linked(&opt, &db), "{opt}");
        assert_eq!(eval(&e, &db).unwrap(), eval(&opt, &db).unwrap());
        let (_, before) = eval_with_stats(&e, &db).unwrap();
        let (_, after) = eval_with_stats(&opt, &db).unwrap();
        assert!(after.intermediate_tuples < before.intermediate_tuples);

        // g's only link, gk = ek, is to a table listed after it: it must
        // wait for e rather than be multiplied in where it is listed.
        let e = Expr::rel("fact")
            .product(Expr::rel("g"))
            .product(Expr::rel("d"))
            .product(Expr::rel("e"))
            .select(
                Predicate::eq_attrs("fk", "dk")
                    .and(Predicate::eq_attrs("gk", "ek"))
                    .and(Predicate::eq_attrs("fv", "ek")),
            )
            .project(&["dx", "gx"]);
        let opt = optimize(&e, &db).unwrap();
        assert!(every_product_is_linked(&opt, &db), "{opt}");
        assert_eq!(eval(&e, &db).unwrap(), eval(&opt, &db).unwrap());

        // Nothing connects: size decides, as before.
        let e = Expr::rel("fact")
            .product(Expr::rel("d"))
            .product(Expr::rel("e"))
            .project(&["dx", "ex"]);
        let opt = optimize(&e, &db).unwrap();
        assert_eq!(
            opt,
            Expr::rel("e")
                .product(Expr::rel("d"))
                .product(Expr::rel("fact"))
                .project(&["dx", "ex"])
        );
    }

    #[test]
    fn a_selection_naming_an_attribute_its_input_lacks_is_not_lifted() {
        let db = star_db();
        // σ[ek = 1](fact × d) fails on every tuple it sees: `ek` belongs
        // to `e`, outside. Lifted over the outer product it would bind.
        let e = Expr::rel("fact")
            .product(Expr::rel("d"))
            .select(Predicate::eq_const("ek", 1i64))
            .product(Expr::rel("e"))
            .project(&["dx"]);
        let opt = optimize(&e, &db).unwrap();
        assert!(eval(&e, &db).is_err());
        assert!(eval(&opt, &db).is_err(), "{opt}");
    }

    #[test]
    fn reordering_composes_with_pushdown() {
        let db = sized_db();
        let e = Expr::rel("big")
            .product(Expr::rel("tiny"))
            .select(Predicate::eq_const("bk", 7i64))
            .project(&["tk"]);
        let opt = optimize(&e, &db).unwrap();
        assert_eq!(eval(&e, &db).unwrap(), eval(&opt, &db).unwrap());
        let (_, before) = eval_with_stats(&e, &db).unwrap();
        let (_, after) = eval_with_stats(&opt, &db).unwrap();
        assert!(after.intermediate_tuples <= before.intermediate_tuples);
    }

    #[test]
    fn bare_products_keep_their_column_order() {
        let db = sized_db();
        // Without an enclosing projection, reordering would change the
        // output schema, so the optimizer leaves the product alone.
        let e = Expr::rel("big").product(Expr::rel("tiny"));
        let opt = optimize(&e, &db).unwrap();
        assert_eq!(e, opt);
    }

    fn pairs(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        let owned = pairs.iter().map(|(a, b)| (a.to_string(), b.to_string()));
        owned.collect()
    }

    #[test]
    fn substitute_attr_rewrites_both_sides() {
        let p = Predicate::eq_attrs("x", "y");
        let q = substitute(p, &pairs(&[("a", "x")]));
        assert_eq!(q, Predicate::eq_attrs("a", "y"));
        // A swap swaps back: b := a and a := b, not a := b := a.
        let swapped = substitute(
            Predicate::eq_attrs("a", "b"),
            &pairs(&[("a", "b"), ("b", "a")]),
        );
        assert_eq!(swapped, Predicate::eq_attrs("b", "a"));
    }

    #[test]
    fn selections_pass_simultaneous_renames() {
        let db = db();
        let swap = Expr::rel("r").renames(pairs(&[("a", "b"), ("b", "a")]));
        // `b` above the swap is `a` below it; `shift` renames onto `b`, a
        // name its other pair gives up.
        let shift = Expr::rel("r").renames(pairs(&[("a", "b"), ("b", "x")]));
        for (e, pred) in [
            (swap.clone(), Predicate::eq_const("b", 3i64)),
            (
                swap,
                Predicate::eq_const("a", 6i64).and(Predicate::eq_const("b", 3i64)),
            ),
            (shift.clone(), Predicate::eq_const("b", 3i64)),
            (shift, Predicate::eq_const("x", 6i64)),
        ] {
            let e = e.select(pred);
            let opt = optimize(&e, &db).unwrap();
            assert!(matches!(opt, Expr::Rename { .. }), "sank: {opt}");
            let want = eval(&e, &db).unwrap();
            assert_eq!(want.len(), 1, "{e}");
            assert_eq!(want, eval(&opt, &db).unwrap(), "{e} vs {opt}");
        }
        // A name the rename gives up is unknown above it: the selection
        // fails there, and must not sink to where the name resolves.
        let e = Expr::rel("r")
            .rename("a", "x")
            .select(Predicate::eq_const("a", 3i64));
        let opt = optimize(&e, &db).unwrap();
        assert!(eval(&e, &db).is_err());
        assert!(eval(&opt, &db).is_err(), "{opt}");
    }
}
