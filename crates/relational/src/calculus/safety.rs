//! Safety (range-restriction) and scope checking for calculus queries.
//!
//! The checker enforces:
//!
//! 1. **scoping** — every variable used in a term or `Rel` atom is either a
//!    free variable of the query or bound by an enclosing quantifier; no
//!    variable is declared twice in one scope chain;
//! 2. **schema sanity** — every `var.attr` names an attribute of the
//!    variable's range schema; head output names are unique;
//! 3. **range restriction** — every free and quantified variable is coupled
//!    to a *named relation* (`Range::Rel`), the classical syntactic safety
//!    guarantee of domain independence. Queries with `Range::Domain`
//!    variables (produced by the algebra→calculus translation) are reported
//!    as *unsafe-but-domain-bounded*: they still translate to algebra over
//!    the active domain and run, but [`check_query`] flags them.
//!
//! The judgment is informational. Neither the translation nor the engine
//! consults it; like the interpreter in [`crate::calculus::eval`], it
//! serves the tests and experiment E7.

use crate::calculus::ast::{Formula, Query, Range, Term};
use crate::catalog::Database;
use crate::error::RelError;
use crate::schema::Schema;
use crate::Result;
use std::collections::HashMap;

/// Outcome of a safety check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Safety {
    /// Fully range-restricted: every variable ranges over a named relation.
    Safe,
    /// Scopes and schemas are fine, but at least one variable ranges over
    /// the active domain; the query is domain-bounded rather than safe.
    DomainBounded,
}

/// Check a query's scoping, schemas, and safety against a database.
pub fn check_query(query: &Query, db: &Database) -> Result<Safety> {
    let mut scope: HashMap<String, Schema> = HashMap::new();
    let mut saw_domain = false;

    for (var, range) in &query.free {
        if scope.contains_key(var) {
            return Err(RelError::Duplicate(format!("variable `{var}`")));
        }
        saw_domain |= matches!(range, Range::Domain(_));
        scope.insert(var.clone(), resolve_range(range, db)?);
    }

    // Head: vars in scope, attrs valid, output names unique.
    let mut seen = Vec::new();
    for h in &query.head {
        let schema = scope
            .get(&h.var)
            .ok_or_else(|| RelError::UnknownVariable(h.var.clone()))?;
        schema.require(&h.attr)?;
        if seen.contains(&&h.name) {
            return Err(RelError::Duplicate(format!("output column `{}`", h.name)));
        }
        seen.push(&h.name);
    }

    saw_domain |= check_formula(&query.formula, db, &mut scope)?;
    Ok(if saw_domain {
        Safety::DomainBounded
    } else {
        Safety::Safe
    })
}

fn resolve_range(range: &Range, db: &Database) -> Result<Schema> {
    match range {
        Range::Rel(name) => Ok(db.get(name)?.schema().clone()),
        Range::Domain(schema) => Ok(schema.clone()),
    }
}

fn check_term(term: &Term, scope: &HashMap<String, Schema>) -> Result<()> {
    if let Term::Attr { var, attr } = term {
        let schema = scope
            .get(var)
            .ok_or_else(|| RelError::UnknownVariable(var.clone()))?;
        schema.require(attr)?;
    }
    Ok(())
}

/// Returns whether a `Range::Domain` quantifier occurs anywhere inside.
fn check_formula(
    formula: &Formula,
    db: &Database,
    scope: &mut HashMap<String, Schema>,
) -> Result<bool> {
    match formula {
        Formula::True | Formula::False => Ok(false),
        Formula::Rel { var, rel } => {
            let schema = scope
                .get(var)
                .ok_or_else(|| RelError::UnknownVariable(var.clone()))?;
            let rel_schema = db.get(rel)?.schema();
            if !schema.union_compatible(rel_schema) {
                return Err(RelError::SchemaMismatch(format!(
                    "membership atom {rel}({var}): {} vs {}",
                    schema, rel_schema
                )));
            }
            Ok(false)
        }
        Formula::Cmp { l, r, .. } => {
            check_term(l, scope)?;
            check_term(r, scope)?;
            Ok(false)
        }
        Formula::And(a, b) | Formula::Or(a, b) => {
            Ok(check_formula(a, db, scope)? | check_formula(b, db, scope)?)
        }
        Formula::Not(f) => check_formula(f, db, scope),
        Formula::Exists { var, range, body } | Formula::ForAll { var, range, body } => {
            if scope.contains_key(var) {
                return Err(RelError::Duplicate(format!("variable `{var}` shadowed")));
            }
            let is_domain = matches!(range, Range::Domain(_));
            scope.insert(var.clone(), resolve_range(range, db)?);
            let inner = check_formula(body, db, scope)?;
            scope.remove(var);
            Ok(is_domain || inner)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::value::{CmpOp, Type, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.add(
            "r",
            Relation::with_schema(&[("a", Type::Int), ("b", Type::Str)]).unwrap(),
        );
        db.add("s", Relation::with_schema(&[("a", Type::Int)]).unwrap());
        db
    }

    #[test]
    fn valid_query_is_safe() {
        let q = Query::new(
            &[("t", "r")],
            &[("t", "a", "x")],
            Formula::cmp(Term::attr("t", "a"), CmpOp::Gt, Term::Const(Value::Int(0))),
        );
        assert_eq!(check_query(&q, &db()).unwrap(), Safety::Safe);
    }

    #[test]
    fn domain_range_is_flagged() {
        let schema = Schema::new(&[("a", Type::Int)]).unwrap();
        let q = Query {
            free: vec![("t".to_string(), Range::Domain(schema))],
            head: vec![crate::calculus::ast::HeadItem {
                var: "t".into(),
                attr: "a".into(),
                name: "a".into(),
            }],
            formula: Formula::Rel {
                var: "t".into(),
                rel: "s".into(),
            },
        };
        assert_eq!(check_query(&q, &db()).unwrap(), Safety::DomainBounded);
    }

    #[test]
    fn unknown_variable_in_formula() {
        let q = Query::new(
            &[("t", "r")],
            &[("t", "a", "x")],
            Formula::cmp(
                Term::attr("zzz", "a"),
                CmpOp::Eq,
                Term::Const(Value::Int(1)),
            ),
        );
        assert!(matches!(
            check_query(&q, &db()),
            Err(RelError::UnknownVariable(_))
        ));
    }

    #[test]
    fn unknown_attribute_in_head() {
        let q = Query::new(&[("t", "r")], &[("t", "zzz", "x")], Formula::True);
        assert!(matches!(
            check_query(&q, &db()),
            Err(RelError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn duplicate_output_name_rejected() {
        let q = Query::new(
            &[("t", "r")],
            &[("t", "a", "x"), ("t", "b", "x")],
            Formula::True,
        );
        assert!(matches!(
            check_query(&q, &db()),
            Err(RelError::Duplicate(_))
        ));
    }

    #[test]
    fn shadowing_rejected() {
        let q = Query::new(
            &[("t", "r")],
            &[("t", "a", "x")],
            Formula::exists("t", "s", Formula::True),
        );
        assert!(matches!(
            check_query(&q, &db()),
            Err(RelError::Duplicate(_))
        ));
    }

    #[test]
    fn rel_atom_arity_mismatch_rejected() {
        // t ranges over r (arity 2) but claims membership in s (arity 1).
        let q = Query::new(
            &[("t", "r")],
            &[("t", "a", "x")],
            Formula::Rel {
                var: "t".into(),
                rel: "s".into(),
            },
        );
        assert!(matches!(
            check_query(&q, &db()),
            Err(RelError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn quantified_var_usable_in_body() {
        let q = Query::new(
            &[("t", "r")],
            &[("t", "a", "x")],
            Formula::exists(
                "u",
                "s",
                Formula::cmp(Term::attr("u", "a"), CmpOp::Eq, Term::attr("t", "a")),
            ),
        );
        assert_eq!(check_query(&q, &db()).unwrap(), Safety::Safe);
    }
}
