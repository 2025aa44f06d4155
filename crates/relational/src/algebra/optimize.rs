//! Rule-based algebraic optimization.
//!
//! Implements the classical rewrites every relational optimizer starts from:
//!
//! 1. **selection cascade** — `σ[p∧q](E)` ⇒ `σ[p](σ[q](E))` (done implicitly
//!    by splitting conjunctions);
//! 2. **selection pushdown** — push each conjunct below products, joins, and
//!    set operations as far as its attributes allow;
//! 3. **select-product fusion** — a selection left sitting directly on a
//!    product whose conjuncts span both sides stays put but is applied while
//!    the product is formed (the evaluator's join already does this for
//!    natural joins);
//! 4. **projection/rename transparency** — selections commute with renames
//!    (with attribute substitution) and with projections that keep the
//!    predicate's attributes;
//! 5. **product reordering** — under a projection, the factors of a
//!    product chain are ordered greedily along the equality conjuncts
//!    that connect them (smallest first), so that no two factors without
//!    a shared conjunct are multiplied while a connected one is left.
//!
//! The optimizer is semantics-preserving by construction and its effect is
//! measured in intermediate-tuple counts (see `bq-bench`).

use crate::algebra::expr::{Expr, Operand, Predicate};
use crate::catalog::Database;
use crate::value::CmpOp;
use crate::Result;
use std::collections::BTreeSet;

/// Optimize an expression against a database schema. Equivalent to the
/// input on every database with the same schemas (product reordering is
/// wrapped in a projection restoring the original column order).
pub fn optimize(expr: &Expr, db: &Database) -> Result<Expr> {
    let e = push_selections(expr.clone(), db)?;
    let e = reorder_products(e, db)?;
    // Reordering may strand single-side conjuncts above a new product
    // shape; one more pushdown pass sinks them.
    push_selections(e, db)
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
        Expr::Product(l, r) => estimate(l, db) * estimate(r, db),
        Expr::NaturalJoin(l, r) => estimate(l, db) * estimate(r, db) * 0.1,
        Expr::Union(l, r) => estimate(l, db) + estimate(r, db),
        Expr::Difference(l, _) => estimate(l, db),
        Expr::Intersection(l, r) => estimate(l, db).min(estimate(r, db)),
        Expr::Division(l, _) => estimate(l, db),
    }
}

/// Reorder product chains so that each factor joins what came before it
/// on an equality conjunct, smallest estimated input first. Column order
/// matters to product output, so reordering happens only where an
/// enclosing projection makes the order irrelevant — i.e. under a
/// `Project`, through any chain of `Select`s (whose predicates are
/// name-based and order-insensitive).
fn reorder_products(expr: Expr, db: &Database) -> Result<Expr> {
    match expr {
        Expr::Select { pred, input } => Ok(Expr::Select {
            pred,
            input: Box::new(reorder_products(*input, db)?),
        }),
        Expr::Project { cols, input } => Ok(Expr::Project {
            cols,
            input: Box::new(reorder_in_order_insensitive(*input, &mut Vec::new(), db)?),
        }),
        Expr::Rename { from, to, input } => Ok(Expr::Rename {
            from,
            to,
            input: Box::new(reorder_products(*input, db)?),
        }),
        Expr::Qualify { var, input } => Ok(Expr::Qualify {
            var,
            input: Box::new(reorder_products(*input, db)?),
        }),
        Expr::NaturalJoin(l, r) => Ok(Expr::NaturalJoin(
            Box::new(reorder_products(*l, db)?),
            Box::new(reorder_products(*r, db)?),
        )),
        Expr::Union(l, r) => Ok(Expr::Union(
            Box::new(reorder_products(*l, db)?),
            Box::new(reorder_products(*r, db)?),
        )),
        Expr::Difference(l, r) => Ok(Expr::Difference(
            Box::new(reorder_products(*l, db)?),
            Box::new(reorder_products(*r, db)?),
        )),
        Expr::Intersection(l, r) => Ok(Expr::Intersection(
            Box::new(reorder_products(*l, db)?),
            Box::new(reorder_products(*r, db)?),
        )),
        Expr::Division(l, r) => Ok(Expr::Division(
            Box::new(reorder_products(*l, db)?),
            Box::new(reorder_products(*r, db)?),
        )),
        e @ (Expr::Rel(_) | Expr::Product(_, _)) => Ok(e),
    }
}

/// Inside a projection (through selects): product chains may be freely
/// reordered. `links` are the attribute pairs that the selections passed
/// on the way down equate — the conjuncts the second pushdown pass will
/// sink onto the products formed here.
fn reorder_in_order_insensitive(
    expr: Expr,
    links: &mut Vec<(String, String)>,
    db: &Database,
) -> Result<Expr> {
    match expr {
        Expr::Select { pred, input } => {
            collect_links(&pred, links);
            Ok(Expr::Select {
                pred,
                input: Box::new(reorder_in_order_insensitive(*input, links, db)?),
            })
        }
        Expr::Product(_, _) => {
            let (mut leaves, mut hoisted) = (Vec::new(), Vec::new());
            flatten_products(expr, &mut leaves, &mut hoisted, db)?;
            hoisted.iter().for_each(|c| collect_links(c, links));
            let mut leaves: Vec<Leaf> = leaves
                .into_iter()
                .map(|leaf| {
                    let expr = reorder_products(leaf, db)?;
                    Ok(Leaf {
                        size: estimate(&expr, db),
                        attrs: attr_names(&expr, db)?,
                        expr,
                    })
                })
                .collect::<Result<_>>()?;
            // Greedy by connection: start from the smallest leaf, then
            // always take the smallest leaf that a link connects to what is
            // already joined, so every product formed has a conjunct to
            // become a join on. Size alone decides only when nothing is
            // connected — ordering by size throughout can put two leaves
            // that share no conjunct side by side and strand their whole
            // cross product under the leaf that links them.
            let mut product: Option<Expr> = None;
            let mut seen = BTreeSet::new();
            while !leaves.is_empty() {
                // `min_by` returns the first of equals: ties keep the FROM
                // order.
                let by_size =
                    |a: &(usize, &Leaf), b: &(usize, &Leaf)| a.1.size.total_cmp(&b.1.size);
                let connected = leaves
                    .iter()
                    .enumerate()
                    .filter(|(_, leaf)| connects(links, &seen, &leaf.attrs));
                let pick = connected
                    .min_by(by_size)
                    .or_else(|| leaves.iter().enumerate().min_by(by_size))
                    .map_or(0, |(i, _)| i);
                let leaf = leaves.remove(pick);
                seen.extend(leaf.attrs);
                product = Some(match product {
                    None => leaf.expr,
                    Some(acc) => acc.product(leaf.expr),
                });
            }
            // lint: allow(panic) the Product arm flattens to ≥ 2 leaves
            Ok(wrap_select(product.expect("at least one leaf"), hoisted))
        }
        other => reorder_products(other, db),
    }
}

/// One factor of a product chain, measured once.
struct Leaf {
    expr: Expr,
    size: f64,
    attrs: BTreeSet<String>,
}

fn attr_names(expr: &Expr, db: &Database) -> Result<BTreeSet<String>> {
    let schema = expr.schema(db)?;
    Ok(schema.names().iter().map(|s| s.to_string()).collect())
}

/// The attribute pairs `pred`'s top-level conjuncts equate.
fn collect_links(pred: &Predicate, links: &mut Vec<(String, String)>) {
    match pred {
        Predicate::And(a, b) => {
            collect_links(a, links);
            collect_links(b, links);
        }
        Predicate::Cmp {
            l: Operand::Attr(a),
            op: CmpOp::Eq,
            r: Operand::Attr(b),
        } => links.push((a.clone(), b.clone())),
        _ => {}
    }
}

/// Does some link equate an attribute of `joined` with one of `leaf`?
fn connects(
    links: &[(String, String)],
    joined: &BTreeSet<String>,
    leaf: &BTreeSet<String>,
) -> bool {
    links.iter().any(|(a, b)| {
        (joined.contains(a) && leaf.contains(b)) || (joined.contains(b) && leaf.contains(a))
    })
}

/// Collect the factors of a product chain. The first pushdown pass leaves
/// the conjuncts that span only some of the factors on the sub-product of
/// exactly those; such a selection is lifted out again (`hoisted`) and the
/// product under it flattened too, so that all factors are ordered
/// together — `σ[p](A) × B = σ[p](A × B)` when `A` has every attribute `p`
/// names, and the second pushdown pass sinks `p` to wherever its factors
/// end up.
fn flatten_products(
    expr: Expr,
    leaves: &mut Vec<Expr>,
    hoisted: &mut Vec<Predicate>,
    db: &Database,
) -> Result<()> {
    match expr {
        Expr::Product(l, r) => {
            flatten_products(*l, leaves, hoisted, db)?;
            flatten_products(*r, leaves, hoisted, db)?;
        }
        Expr::Select { pred, input }
            if matches!(*input, Expr::Product(..))
                && pred.attrs().is_subset(&attr_names(&input, db)?) =>
        {
            hoisted.extend(pred.conjuncts());
            flatten_products(*input, leaves, hoisted, db)?;
        }
        other => leaves.push(other),
    }
    Ok(())
}

/// Recursively push selection conjuncts as close to base relations as
/// possible.
fn push_selections(expr: Expr, db: &Database) -> Result<Expr> {
    match expr {
        Expr::Select { pred, input } => {
            let input = push_selections(*input, db)?;
            let conjuncts = pred.conjuncts();
            push_conjuncts(input, conjuncts, db)
        }
        Expr::Project { cols, input } => Ok(Expr::Project {
            cols,
            input: Box::new(push_selections(*input, db)?),
        }),
        Expr::Rename { from, to, input } => Ok(Expr::Rename {
            from,
            to,
            input: Box::new(push_selections(*input, db)?),
        }),
        Expr::Qualify { var, input } => Ok(Expr::Qualify {
            var,
            input: Box::new(push_selections(*input, db)?),
        }),
        Expr::Product(l, r) => Ok(Expr::Product(
            Box::new(push_selections(*l, db)?),
            Box::new(push_selections(*r, db)?),
        )),
        Expr::NaturalJoin(l, r) => Ok(Expr::NaturalJoin(
            Box::new(push_selections(*l, db)?),
            Box::new(push_selections(*r, db)?),
        )),
        Expr::Union(l, r) => Ok(Expr::Union(
            Box::new(push_selections(*l, db)?),
            Box::new(push_selections(*r, db)?),
        )),
        Expr::Difference(l, r) => Ok(Expr::Difference(
            Box::new(push_selections(*l, db)?),
            Box::new(push_selections(*r, db)?),
        )),
        Expr::Intersection(l, r) => Ok(Expr::Intersection(
            Box::new(push_selections(*l, db)?),
            Box::new(push_selections(*r, db)?),
        )),
        Expr::Division(l, r) => Ok(Expr::Division(
            Box::new(push_selections(*l, db)?),
            Box::new(push_selections(*r, db)?),
        )),
        e @ Expr::Rel(_) => Ok(e),
    }
}

/// Push a list of conjuncts into `input`, leaving unpushable ones on top.
fn push_conjuncts(input: Expr, conjuncts: Vec<Predicate>, db: &Database) -> Result<Expr> {
    match input {
        Expr::Product(l, r) => {
            let l_attrs = attr_names(&l, db)?;
            let r_attrs = attr_names(&r, db)?;
            let mut left_preds = Vec::new();
            let mut right_preds = Vec::new();
            let mut here = Vec::new();
            for c in conjuncts {
                let used = c.attrs();
                if used.iter().all(|a| l_attrs.contains(a)) {
                    left_preds.push(c);
                } else if used.iter().all(|a| r_attrs.contains(a)) {
                    right_preds.push(c);
                } else {
                    here.push(c);
                }
            }
            let new_l = push_conjuncts(*l, left_preds, db)?;
            let new_r = push_conjuncts(*r, right_preds, db)?;
            let prod = Expr::Product(Box::new(new_l), Box::new(new_r));
            Ok(wrap_select(prod, here))
        }
        Expr::NaturalJoin(l, r) => {
            let l_attrs = attr_names(&l, db)?;
            let r_attrs = attr_names(&r, db)?;
            let mut left_preds = Vec::new();
            let mut right_preds = Vec::new();
            let mut here = Vec::new();
            for c in conjuncts {
                let used = c.attrs();
                let in_l = used.iter().all(|a| l_attrs.contains(a));
                let in_r = used.iter().all(|a| r_attrs.contains(a));
                // Join attributes appear on both sides: a predicate on them
                // can be pushed to both (we pick one side to avoid duplicate
                // work; pushing to both is also sound).
                if in_l {
                    left_preds.push(c);
                } else if in_r {
                    right_preds.push(c);
                } else {
                    here.push(c);
                }
            }
            let new_l = push_conjuncts(*l, left_preds, db)?;
            let new_r = push_conjuncts(*r, right_preds, db)?;
            let join = Expr::NaturalJoin(Box::new(new_l), Box::new(new_r));
            Ok(wrap_select(join, here))
        }
        Expr::Union(l, r) => {
            // Union is positional-compatible, but conjuncts reference the
            // *left* schema's names; push only when both sides share names.
            let l_names: Vec<String> = l
                .schema(db)?
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect();
            let r_names: Vec<String> = r
                .schema(db)?
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect();
            if l_names == r_names {
                let new_l = push_conjuncts(*l, conjuncts.clone(), db)?;
                let new_r = push_conjuncts(*r, conjuncts, db)?;
                Ok(Expr::Union(Box::new(new_l), Box::new(new_r)))
            } else {
                Ok(wrap_select(Expr::Union(l, r), conjuncts))
            }
        }
        Expr::Select { pred, input } => {
            // Merge with an inner selection and continue pushing.
            let mut all = pred.conjuncts();
            all.extend(conjuncts);
            push_conjuncts(*input, all, db)
        }
        Expr::Rename { from, to, input } => {
            // σ[p](ρ[a→b](E)) = ρ[a→b](σ[p[b:=a]](E))
            let renamed: Vec<Predicate> = conjuncts
                .into_iter()
                .map(|c| substitute_attr(c, &to, &from))
                .collect();
            let inner = push_conjuncts(*input, renamed, db)?;
            Ok(Expr::Rename {
                from,
                to,
                input: Box::new(inner),
            })
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

/// Replace references to attribute `from` by `to` inside a predicate.
fn substitute_attr(pred: Predicate, from: &str, to: &str) -> Predicate {
    let sub_op = |o: Operand| match o {
        Operand::Attr(a) if a == from => Operand::Attr(to.to_string()),
        other => other,
    };
    match pred {
        Predicate::Cmp { l, op, r } => Predicate::Cmp {
            l: sub_op(l),
            op,
            r: sub_op(r),
        },
        Predicate::And(a, b) => Predicate::And(
            Box::new(substitute_attr(*a, from, to)),
            Box::new(substitute_attr(*b, from, to)),
        ),
        Predicate::Or(a, b) => Predicate::Or(
            Box::new(substitute_attr(*a, from, to)),
            Box::new(substitute_attr(*b, from, to)),
        ),
        Predicate::Not(p) => Predicate::Not(Box::new(substitute_attr(*p, from, to))),
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
            Expr::Product(l, _) => {
                assert!(matches!(**l, Expr::Select { .. }), "got {opt}");
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
            matches!(opt, Expr::Select { .. }),
            "join predicate cannot sink"
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
                Expr::Product(l, r)
                | Expr::NaturalJoin(l, r)
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

    /// Is every product directly under a selection that equates an
    /// attribute of its left side with one of its right side — i.e. does
    /// the executor get a join key for each of them?
    fn every_product_is_linked(e: &Expr, db: &Database) -> bool {
        let linked = |e: &Expr| every_product_is_linked(e, db);
        match e {
            Expr::Select { pred, input } => match &**input {
                Expr::Product(l, r) => {
                    let mut links = Vec::new();
                    collect_links(pred, &mut links);
                    let (la, ra) = (attr_names(l, db).unwrap(), attr_names(r, db).unwrap());
                    connects(&links, &la, &ra) && linked(l) && linked(r)
                }
                other => linked(other),
            },
            Expr::Product(..) => false,
            Expr::Rel(_) => true,
            Expr::Project { input, .. }
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

        // A conjunct the first pushdown sinks onto a sub-product (fk = dk
        // lands on fact × g × d) must not fence g in there: its only link,
        // gk = ek, is to a table outside.
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

    #[test]
    fn substitute_attr_rewrites_both_sides() {
        let p = Predicate::eq_attrs("x", "y");
        let q = substitute_attr(p, "x", "a");
        assert_eq!(q, Predicate::eq_attrs("a", "y"));
    }
}
