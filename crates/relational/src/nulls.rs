//! Incomplete information: naive tables and certain answers.
//!
//! The paper lists "incomplete information (basically null values …)" among
//! the precursors of the logic-database explosion (§6). This module
//! implements the classical *naive table* model (Imieliński–Lipski): a
//! relation whose tuples may contain labelled nulls `⊥i`, each label
//! denoting the same unknown value wherever it occurs.
//!
//! A naive table represents the set of *possible worlds* obtained by
//! substituting domain values for labels (consistently). The **certain
//! answers** of a query are the tuples present in the answer over *every*
//! possible world.
//!
//! The classical theorem: for *positive* queries (select with
//! equality/conjunction/disjunction, project, join, product, union — no
//! difference, no inequality on nulls), evaluating the query naively
//! (treating labels as fresh constants) and then discarding answer tuples
//! that still contain labels computes exactly the certain answers. This is
//! what [`certain_answers`] does, and what the tests verify against
//! brute-force possible-world enumeration.

use crate::algebra::eval::eval;
use crate::algebra::expr::{Expr, Predicate};
use crate::catalog::Database;
use crate::error::RelError;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::{CmpOp, Value};
use crate::Result;
use std::collections::BTreeSet;

/// Is the expression in the positive (monotone, null-safe) fragment for
/// which naive evaluation computes certain answers?
pub fn is_positive(expr: &Expr) -> bool {
    match expr {
        Expr::Rel(_) => true,
        Expr::Select { pred, input } => positive_pred(pred) && is_positive(input),
        Expr::Project { input, .. } | Expr::Rename { input, .. } | Expr::Qualify { input, .. } => {
            is_positive(input)
        }
        Expr::Join { inputs, pred } => positive_pred(pred) && inputs.iter().all(is_positive),
        Expr::NaturalJoin(l, r) | Expr::Union(l, r) | Expr::Intersection(l, r) => {
            is_positive(l) && is_positive(r)
        }
        // Difference is non-monotone; division contains an implicit
        // difference (a universal quantifier).
        Expr::Difference(_, _) | Expr::Division(_, _) => false,
    }
}

fn positive_pred(pred: &Predicate) -> bool {
    match pred {
        Predicate::True | Predicate::False => true,
        Predicate::Cmp { op, .. } => *op == CmpOp::Eq,
        Predicate::And(a, b) | Predicate::Or(a, b) => positive_pred(a) && positive_pred(b),
        Predicate::Not(_) => false,
    }
}

/// Certain answers of a positive query over a database of naive tables:
/// evaluate naively, then keep only null-free tuples.
pub fn certain_answers(expr: &Expr, db: &Database) -> Result<Relation> {
    if !is_positive(expr) {
        return Err(RelError::UnsafeQuery(
            "certain answers require a positive (monotone) query".into(),
        ));
    }
    let naive = eval(expr, db)?;
    let mut out = Relation::new(naive.schema().clone());
    for t in naive.iter() {
        if !t.has_null() {
            out.insert(t.clone())?;
        }
    }
    Ok(out)
}

/// All null labels appearing anywhere in the database.
pub fn null_labels(db: &Database) -> BTreeSet<u32> {
    db.active_domain()
        .into_iter()
        .filter_map(|v| match v {
            Value::Null(n) => Some(n),
            _ => None,
        })
        .collect()
}

/// Enumerate every possible world of `db` by substituting each null label
/// with each value from `domain` (consistently across the database).
/// Exponential — for tests and demonstrations only.
pub fn possible_worlds(db: &Database, domain: &[Value]) -> Result<Vec<Database>> {
    let labels: Vec<u32> = null_labels(db).into_iter().collect();
    let mut worlds = Vec::new();
    let mut assignment: Vec<Value> = Vec::new();
    enumerate(db, domain, &labels, &mut assignment, &mut worlds)?;
    Ok(worlds)
}

fn enumerate(
    db: &Database,
    domain: &[Value],
    labels: &[u32],
    assignment: &mut Vec<Value>,
    worlds: &mut Vec<Database>,
) -> Result<()> {
    if assignment.len() == labels.len() {
        worlds.push(substitute(db, labels, assignment)?);
        return Ok(());
    }
    for v in domain {
        assignment.push(v.clone());
        enumerate(db, domain, labels, assignment, worlds)?;
        assignment.pop();
    }
    Ok(())
}

fn substitute(db: &Database, labels: &[u32], assignment: &[Value]) -> Result<Database> {
    let mut out = Database::new();
    for name in db.names() {
        let rel = db.get(name)?;
        let mut new_rel = Relation::new(rel.schema().clone());
        for t in rel.iter() {
            let mut values: Vec<Value> = Vec::with_capacity(t.values().len());
            for v in t.values() {
                values.push(match v {
                    Value::Null(n) => {
                        let idx = labels
                            .iter()
                            .position(|l| l == n)
                            .ok_or_else(|| RelError::UnknownVariable(format!("null label {n}")))?;
                        assignment[idx].clone()
                    }
                    other => other.clone(),
                });
            }
            new_rel.insert(Tuple::new(values))?;
        }
        out.add(name, new_rel);
    }
    Ok(out)
}

/// Brute-force certain answers: intersect the query answers over every
/// possible world. Used to validate [`certain_answers`] in tests.
pub fn certain_answers_brute_force(
    expr: &Expr,
    db: &Database,
    domain: &[Value],
) -> Result<Relation> {
    let worlds = possible_worlds(db, domain)?;
    let mut iter = worlds.iter();
    let first = match iter.next() {
        Some(w) => eval(expr, w)?,
        None => return eval(expr, db),
    };
    let mut certain = first;
    for w in iter {
        let ans = eval(expr, w)?;
        let mut kept = Relation::new(certain.schema().clone());
        for t in certain.iter() {
            if ans.contains(t) {
                kept.insert(t.clone())?;
            }
        }
        certain = kept;
    }
    Ok(certain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use crate::value::Type;

    /// emp(name, dept) with one unknown department; dept(dept, bldg).
    fn db_with_nulls() -> Database {
        let mut db = Database::new();
        db.add(
            "emp",
            Relation::from_rows(
                &[("name", Type::Str), ("dept", Type::Str)],
                vec![
                    vec![Value::str("ann"), Value::str("cs")],
                    vec![Value::str("bob"), Value::Null(0)],
                ],
            )
            .unwrap(),
        );
        db.add(
            "dept",
            Relation::from_rows(
                &[("dept", Type::Str), ("bldg", Type::Str)],
                vec![vec![Value::str("cs"), Value::str("soda")]],
            )
            .unwrap(),
        );
        db
    }

    #[test]
    fn positive_fragment_recognition() {
        let pos = Expr::rel("emp").select(Predicate::eq_const("dept", "cs"));
        assert!(is_positive(&pos));
        let neg = Expr::rel("emp").difference(Expr::rel("emp"));
        assert!(!is_positive(&neg));
        let ineq = Expr::rel("emp").select(Predicate::cmp(
            crate::algebra::expr::Operand::attr("dept"),
            CmpOp::Ne,
            crate::algebra::expr::Operand::Const(Value::str("cs")),
        ));
        assert!(!is_positive(&ineq));
    }

    #[test]
    fn certain_answers_drop_null_tuples() {
        let q = Expr::rel("emp").project(&["dept"]);
        let out = certain_answers(&q, &db_with_nulls()).unwrap();
        assert_eq!(out.tuples(), vec![tup!["cs"]]);
    }

    #[test]
    fn certain_answers_of_join() {
        // Only ann's department is certainly in dept.
        let q = Expr::rel("emp")
            .natural_join(Expr::rel("dept"))
            .project(&["name"]);
        let out = certain_answers(&q, &db_with_nulls()).unwrap();
        assert_eq!(out.tuples(), vec![tup!["ann"]]);
    }

    #[test]
    fn non_positive_query_rejected() {
        let q = Expr::rel("emp").difference(Expr::rel("emp"));
        assert!(certain_answers(&q, &db_with_nulls()).is_err());
    }

    #[test]
    fn matches_brute_force_possible_worlds() {
        let db = db_with_nulls();
        let domain = vec![Value::str("cs"), Value::str("ee")];
        for q in [
            Expr::rel("emp").project(&["name"]),
            Expr::rel("emp").project(&["dept"]),
            Expr::rel("emp")
                .natural_join(Expr::rel("dept"))
                .project(&["name"]),
            Expr::rel("emp")
                .select(Predicate::eq_const("dept", "cs"))
                .project(&["name"]),
        ] {
            let fast = certain_answers(&q, &db).unwrap();
            let slow = certain_answers_brute_force(&q, &db, &domain).unwrap();
            assert_eq!(fast.tuples(), slow.tuples(), "query {q}");
        }
    }

    #[test]
    fn worlds_substitute_consistently() {
        let mut db = Database::new();
        db.add(
            "r",
            Relation::from_rows(
                &[("a", Type::Str), ("b", Type::Str)],
                vec![vec![Value::Null(0), Value::Null(0)]],
            )
            .unwrap(),
        );
        let worlds = possible_worlds(&db, &[Value::str("x"), Value::str("y")]).unwrap();
        assert_eq!(worlds.len(), 2);
        for w in worlds {
            let r = w.get("r").unwrap();
            for t in r.iter() {
                assert_eq!(t.get(0), t.get(1), "same label, same value");
            }
        }
    }

    #[test]
    fn null_labels_collected() {
        let labels = null_labels(&db_with_nulls());
        assert_eq!(labels.into_iter().collect::<Vec<_>>(), vec![0]);
    }
}
