//! Direct evaluation of calculus queries — the reference semantics, and
//! only that. No engine surface calls it: `Db::run` translates a calculus
//! query to algebra ([`crate::codd::calculus_to_algebra`]) and runs the
//! optimized plan under its governor. This interpreter is the oracle that
//! translation is tested against (experiment E7).
//!
//! Free variables and range-coupled quantifiers enumerate the tuples of
//! their range relation; [`Range::Domain`] variables enumerate every typed
//! combination of active-domain values — exponential in arity, and checked
//! by no governor, so keep its inputs small.

use crate::calculus::ast::{Formula, Query, Range, Term};
use crate::catalog::Database;
use crate::error::RelError;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use std::collections::HashMap;

/// A variable binding: the schema the variable's fields are named by, plus
/// the tuple currently bound.
type Env = HashMap<String, (Schema, Tuple)>;

/// Evaluate a calculus query against a database.
pub fn eval_query(query: &Query, db: &Database) -> Result<Relation> {
    // Resolve the schema of each free variable.
    let mut out_schema = Schema::default();
    let free_schemas: Vec<(String, Schema)> = query
        .free
        .iter()
        .map(|(v, r)| Ok((v.clone(), range_schema(r, db)?)))
        .collect::<Result<_>>()?;
    let lookup: HashMap<&str, &Schema> =
        free_schemas.iter().map(|(v, s)| (v.as_str(), s)).collect();
    for h in &query.head {
        let schema = lookup
            .get(h.var.as_str())
            .ok_or_else(|| RelError::UnknownVariable(h.var.clone()))?;
        let ty = schema.type_of(&h.attr)?;
        out_schema.push(&h.name, ty)?;
    }

    let domain: Vec<Value> = db.active_domain().into_iter().collect();
    let mut result = Relation::new(out_schema);
    let mut env: Env = HashMap::new();
    enumerate_free(query, db, &domain, &free_schemas, 0, &mut env, &mut result)?;
    Ok(result)
}

fn range_schema(range: &Range, db: &Database) -> Result<Schema> {
    match range {
        Range::Rel(name) => Ok(db.get(name)?.schema().clone()),
        Range::Domain(schema) => Ok(schema.clone()),
    }
}

/// Candidate tuples for a variable ranging over `range`.
fn range_tuples(range: &Range, db: &Database, domain: &[Value]) -> Result<Vec<Tuple>> {
    match range {
        Range::Rel(name) => Ok(db.get(name)?.tuples()),
        Range::Domain(schema) => {
            // Cartesian product of type-filtered domain values, per attribute.
            let per_attr: Vec<Vec<Value>> = schema
                .attrs()
                .iter()
                .map(|a| {
                    domain
                        .iter()
                        .filter(|v| v.value_type() == Some(a.ty))
                        .cloned()
                        .collect()
                })
                .collect();
            let mut out = vec![Vec::new()];
            for vals in &per_attr {
                let mut next = Vec::with_capacity(out.len() * vals.len());
                for prefix in &out {
                    for v in vals {
                        let mut t = prefix.clone();
                        t.push(v.clone());
                        next.push(t);
                    }
                }
                out = next;
            }
            Ok(out.into_iter().map(Tuple::new).collect())
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn enumerate_free(
    query: &Query,
    db: &Database,
    domain: &[Value],
    free_schemas: &[(String, Schema)],
    idx: usize,
    env: &mut Env,
    result: &mut Relation,
) -> Result<()> {
    if idx == query.free.len() {
        if eval_formula(&query.formula, db, domain, env)? {
            let mut values = Vec::with_capacity(query.head.len());
            for h in &query.head {
                let (schema, tuple) = env
                    .get(&h.var)
                    .ok_or_else(|| RelError::UnknownVariable(h.var.clone()))?;
                values.push(tuple.get(schema.require(&h.attr)?).clone());
            }
            result.insert(Tuple::new(values))?;
        }
        return Ok(());
    }
    let (var, range) = &query.free[idx];
    let schema = free_schemas[idx].1.clone();
    for t in range_tuples(range, db, domain)? {
        env.insert(var.clone(), (schema.clone(), t));
        enumerate_free(query, db, domain, free_schemas, idx + 1, env, result)?;
    }
    env.remove(var);
    Ok(())
}

fn resolve<'a>(term: &'a Term, env: &'a Env) -> Result<&'a Value> {
    match term {
        Term::Const(v) => Ok(v),
        Term::Attr { var, attr } => {
            let (schema, tuple) = env
                .get(var)
                .ok_or_else(|| RelError::UnknownVariable(var.clone()))?;
            Ok(tuple.get(schema.require(attr)?))
        }
    }
}

/// Evaluate a formula under an environment.
pub fn eval_formula(
    formula: &Formula,
    db: &Database,
    domain: &[Value],
    env: &mut Env,
) -> Result<bool> {
    match formula {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Rel { var, rel } => {
            let (_, tuple) = env
                .get(var)
                .ok_or_else(|| RelError::UnknownVariable(var.clone()))?;
            Ok(db.get(rel)?.contains(tuple))
        }
        Formula::Cmp { l, op, r } => Ok(op.apply(resolve(l, env)?, resolve(r, env)?)),
        Formula::And(a, b) => {
            Ok(eval_formula(a, db, domain, env)? && eval_formula(b, db, domain, env)?)
        }
        Formula::Or(a, b) => {
            Ok(eval_formula(a, db, domain, env)? || eval_formula(b, db, domain, env)?)
        }
        Formula::Not(f) => Ok(!eval_formula(f, db, domain, env)?),
        Formula::Exists { var, range, body } => {
            let schema = range_schema(range, db)?;
            let saved = env.remove(var);
            let mut found = false;
            for t in range_tuples(range, db, domain)? {
                env.insert(var.clone(), (schema.clone(), t));
                if eval_formula(body, db, domain, env)? {
                    found = true;
                    break;
                }
            }
            restore(env, var, saved);
            Ok(found)
        }
        Formula::ForAll { var, range, body } => {
            let schema = range_schema(range, db)?;
            let saved = env.remove(var);
            let mut all = true;
            for t in range_tuples(range, db, domain)? {
                env.insert(var.clone(), (schema.clone(), t));
                if !eval_formula(body, db, domain, env)? {
                    all = false;
                    break;
                }
            }
            restore(env, var, saved);
            Ok(all)
        }
    }
}

fn restore(env: &mut Env, var: &str, saved: Option<(Schema, Tuple)>) {
    match saved {
        Some(v) => {
            env.insert(var.to_string(), v);
        }
        None => {
            env.remove(var);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculus::ast::HeadItem;
    use crate::tup;
    use crate::value::{CmpOp, Type};

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
    fn simple_selection() {
        // { e.name | e ∈ emp : e.sal > 75 }
        let q = Query::new(
            &[("e", "emp")],
            &[("e", "name", "name")],
            Formula::cmp(
                Term::attr("e", "sal"),
                CmpOp::Gt,
                Term::Const(Value::Int(75)),
            ),
        );
        let out = eval_query(&q, &db()).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tup!["ann"]));
        assert!(out.contains(&tup!["eve"]));
    }

    #[test]
    fn join_via_shared_condition() {
        // { e.name, d.bldg | e ∈ emp, d ∈ dept : e.dept = d.dept }
        let q = Query::new(
            &[("e", "emp"), ("d", "dept")],
            &[("e", "name", "name"), ("d", "bldg", "bldg")],
            Formula::cmp(Term::attr("e", "dept"), CmpOp::Eq, Term::attr("d", "dept")),
        );
        let out = eval_query(&q, &db()).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.contains(&tup!["eve", 2i64]));
    }

    #[test]
    fn existential_quantifier() {
        // Departments that employ someone earning > 85:
        // { d.dept | d ∈ dept : ∃e∈emp. e.dept = d.dept ∧ e.sal > 85 }
        let body = Formula::cmp(Term::attr("e", "dept"), CmpOp::Eq, Term::attr("d", "dept")).and(
            Formula::cmp(
                Term::attr("e", "sal"),
                CmpOp::Gt,
                Term::Const(Value::Int(85)),
            ),
        );
        let q = Query::new(
            &[("d", "dept")],
            &[("d", "dept", "dept")],
            Formula::exists("e", "emp", body),
        );
        let out = eval_query(&q, &db()).unwrap();
        assert_eq!(out.tuples(), vec![tup!["cs"]]);
    }

    #[test]
    fn universal_quantifier() {
        // Departments where everyone earns >= 75:
        let body = Formula::cmp(Term::attr("e", "dept"), CmpOp::Ne, Term::attr("d", "dept")).or(
            Formula::cmp(
                Term::attr("e", "sal"),
                CmpOp::Ge,
                Term::Const(Value::Int(75)),
            ),
        );
        let q = Query::new(
            &[("d", "dept")],
            &[("d", "dept", "dept")],
            Formula::forall("e", "emp", body),
        );
        let out = eval_query(&q, &db()).unwrap();
        assert_eq!(out.tuples(), vec![tup!["ee"]]);
    }

    #[test]
    fn negation_of_exists() {
        // Departments with no employee: none here.
        let body = Formula::cmp(Term::attr("e", "dept"), CmpOp::Eq, Term::attr("d", "dept"));
        let q = Query::new(
            &[("d", "dept")],
            &[("d", "dept", "dept")],
            Formula::exists("e", "emp", body).not(),
        );
        let out = eval_query(&q, &db()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn rel_atom_membership() {
        // Domain variable restricted by a Rel atom behaves like membership.
        let schema = Schema::new(&[("dept", Type::Str), ("bldg", Type::Int)]).unwrap();
        let q = Query {
            free: vec![("t".to_string(), Range::Domain(schema))],
            head: vec![HeadItem {
                var: "t".into(),
                attr: "dept".into(),
                name: "dept".into(),
            }],
            formula: Formula::Rel {
                var: "t".into(),
                rel: "dept".into(),
            },
        };
        let out = eval_query(&q, &db()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn unknown_attr_or_var_errors() {
        let q = Query::new(&[("e", "emp")], &[("e", "nope", "x")], Formula::True);
        assert!(eval_query(&q, &db()).is_err());
        let q2 = Query::new(&[("e", "emp")], &[("z", "name", "x")], Formula::True);
        assert!(eval_query(&q2, &db()).is_err());
    }

    #[test]
    fn true_formula_returns_whole_range() {
        let q = Query::new(&[("e", "emp")], &[("e", "name", "n")], Formula::True);
        assert_eq!(eval_query(&q, &db()).unwrap().len(), 3);
    }
}
