//! Experiment E7 at test scale: Codd's Theorem checked empirically.
//!
//! Random safe calculus queries over random databases are evaluated
//! directly and via translation to algebra; both pipelines must agree on
//! every query. The reverse direction (algebra → calculus) is exercised on
//! random small algebra expressions, and so is the round trip through both
//! (algebra → calculus → algebra). Rewrites of the random queries that
//! range over the active domain, or negate outside a conjunction, check the
//! translation's whole fragment against the interpreter and the engine.

use big_queries::bq_core::Db;
use big_queries::bq_relational::algebra::eval::eval;
use big_queries::bq_relational::algebra::expr::{Expr, Predicate};
use big_queries::bq_relational::algebra::optimize::optimize;
use big_queries::bq_relational::calculus::ast::{Formula, Query, Range};
use big_queries::bq_relational::calculus::eval::eval_query;
use big_queries::bq_relational::calculus::safety::{check_query, Safety};
use big_queries::bq_relational::codd::{algebra_to_calculus, calculus_to_algebra, QueryGen};
use big_queries::bq_relational::{Database, Relation, Type, Value};
use big_queries::bq_util::{Rng, SplitMix64};

/// A small random database with two relations of fixed schema.
fn random_db(seed: u64, size: usize) -> Database {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut db = Database::new();
    let mut r = Relation::with_schema(&[("a", Type::Int), ("b", Type::Int)]).unwrap();
    let mut s = Relation::with_schema(&[("b", Type::Int), ("c", Type::Str)]).unwrap();
    let names = ["x", "y", "z"];
    for _ in 0..size {
        r.insert(
            vec![
                Value::Int((next() % 6) as i64),
                Value::Int((next() % 6) as i64),
            ]
            .into(),
        )
        .unwrap();
        s.insert(
            vec![
                Value::Int((next() % 6) as i64),
                Value::str(names[(next() % 3) as usize]),
            ]
            .into(),
        )
        .unwrap();
    }
    db.add("r", r);
    db.add("s", s);
    db
}

/// Forward direction: every generated safe query translates, and both
/// evaluations agree.
#[test]
fn calculus_and_algebra_agree() {
    let mut rng = SplitMix64::seed_from_u64(0xc0dd_0007);
    for case in 0..64 {
        let seed = rng.gen_range(10_000);
        let db_seed = rng.gen_range(100);
        let size = 1 + rng.gen_index(11);
        let db = random_db(db_seed, size);
        let mut gen = QueryGen::new(seed);
        let query = gen.gen_query(&db).unwrap();
        assert_eq!(check_query(&query, &db).unwrap(), Safety::Safe);

        let direct = eval_query(&query, &db).unwrap();
        let translated = calculus_to_algebra(&query, &db).unwrap();
        let via_algebra = eval(&translated, &db).unwrap();
        assert_eq!(
            direct.tuples(),
            via_algebra.tuples(),
            "case {case}: query {query}"
        );

        // And the optimizer must not change the answer either.
        let optimized = optimize(&translated, &db).unwrap();
        let via_optimized = eval(&optimized, &db).unwrap();
        assert_eq!(via_algebra.tuples(), via_optimized.tuples(), "case {case}");
    }
}

/// Random small algebra expression over r(a,b), s(b,c).
fn random_algebra(seed: u64) -> Expr {
    let mut state = seed.wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let base = |n: u64| {
        if n.is_multiple_of(2) {
            Expr::rel("r")
        } else {
            Expr::rel("s")
        }
    };
    let e = base(next());
    let col = if matches!(e, Expr::Rel(ref n) if n == "r") {
        "a"
    } else {
        "b"
    };
    match next() % 5 {
        0 => e.select(Predicate::eq_const(col, (next() % 6) as i64)),
        1 => e.project(&["b"]),
        2 => Expr::rel("r").natural_join(Expr::rel("s")),
        3 => Expr::rel("r")
            .project(&["b"])
            .union(Expr::rel("s").project(&["b"])),
        _ => Expr::rel("r")
            .project(&["b"])
            .difference(Expr::rel("s").project(&["b"])),
    }
}

/// The 24 reverse-direction cases: a random small algebra expression over
/// a tiny database (domain enumeration is exponential).
fn reverse_cases() -> Vec<(Database, Expr)> {
    let mut rng = SplitMix64::seed_from_u64(0xc0dd_0024);
    (0..24)
        .map(|_| {
            let seed = rng.gen_range(5_000);
            let db_seed = rng.gen_range(50);
            (random_db(db_seed, 3), random_algebra(seed))
        })
        .collect()
}

/// Reverse direction: algebra → calculus on small databases.
#[test]
fn algebra_to_calculus_agrees() {
    for (case, (db, expr)) in reverse_cases().into_iter().enumerate() {
        let via_algebra = eval(&expr, &db).unwrap();
        let query = algebra_to_calculus(&expr, &db).unwrap();
        let via_calculus = eval_query(&query, &db).unwrap();
        assert_eq!(
            via_algebra.tuples(),
            via_calculus.tuples(),
            "case {case}: expr {expr}"
        );
    }
}

/// Both directions composed — the theorem's double implication: the
/// calculus an algebra expression translates to translates back to an
/// algebra expression with the same answer, optimized or not.
#[test]
fn algebra_round_trips_through_the_calculus() {
    for (case, (db, expr)) in reverse_cases().into_iter().enumerate() {
        let direct = eval(&expr, &db).unwrap();
        let query = algebra_to_calculus(&expr, &db).unwrap();
        let back = calculus_to_algebra(&query, &db).unwrap();
        let optimized = optimize(&back, &db).unwrap();
        for plan in [&back, &optimized] {
            assert_eq!(
                eval(plan, &db).unwrap().tuples(),
                direct.tuples(),
                "case {case}: expr {expr} via {query}"
            );
        }
    }
}

#[test]
fn fixed_seed_regression_corpus() {
    // A deterministic sweep kept as a fast regression net.
    let db = random_db(7, 8);
    let mut gen = QueryGen::new(123);
    for _ in 0..200 {
        let q = gen.gen_query(&db).unwrap();
        let direct = eval_query(&q, &db).unwrap();
        let via = eval(&calculus_to_algebra(&q, &db).unwrap(), &db).unwrap();
        assert_eq!(direct.tuples(), via.tuples(), "query {q}");
    }
}

/// `v ∈ R` becomes `v ∈ dom(schema R) ∧ R(v)`, for every free variable.
fn free_over_domain(q: &Query, db: &Database) -> Query {
    let mut formula = q.formula.clone();
    let free = q
        .free
        .iter()
        .map(|(var, range)| {
            let Range::Rel(rel) = range else {
                unreachable!("QueryGen ranges free variables over relations")
            };
            let member = Formula::Rel {
                var: var.clone(),
                rel: rel.clone(),
            };
            formula = member.and(formula.clone());
            let schema = db.get(rel).unwrap().schema().clone();
            (var.clone(), Range::Domain(schema))
        })
        .collect();
    Query {
        free,
        head: q.head.clone(),
        formula,
    }
}

/// `∃q∈R.ψ` becomes `∃q∈dom(schema R).(R(q) ∧ ψ)`, everywhere in `f`.
fn exists_over_domain(f: Formula, db: &Database) -> Formula {
    match f {
        Formula::Exists {
            var,
            range: Range::Rel(rel),
            body,
        } => Formula::Exists {
            range: Range::Domain(db.get(&rel).unwrap().schema().clone()),
            body: Box::new(
                Formula::Rel {
                    var: var.clone(),
                    rel,
                }
                .and(exists_over_domain(*body, db)),
            ),
            var,
        },
        Formula::And(a, b) => exists_over_domain(*a, db).and(exists_over_domain(*b, db)),
        Formula::Or(a, b) => exists_over_domain(*a, db).or(exists_over_domain(*b, db)),
        Formula::Not(a) => exists_over_domain(*a, db).not(),
        other => other,
    }
}

/// `φ ∧ ¬χ` becomes `¬(¬φ ∨ χ)`, for the first negated conjunct `χ`.
fn negation_outside(f: Formula) -> Formula {
    let mut conjuncts = f.clone().conjuncts();
    let Some(i) = conjuncts.iter().position(|c| matches!(c, Formula::Not(_))) else {
        return f;
    };
    let Formula::Not(chi) = conjuncts.remove(i) else {
        unreachable!("position found a negation")
    };
    let phi = conjuncts.into_iter().fold(Formula::True, Formula::and);
    phi.not().or(*chi).not()
}

/// `¬∃q∈R.ψ` becomes `∀q∈R.¬ψ`, in every conjunct of `f`. ∀-elimination
/// turns that back into `¬∃q∈R.¬¬ψ`, whose inner negation is no conjunct.
fn forall_not(f: Formula) -> Formula {
    match f {
        Formula::Not(g) => match *g {
            Formula::Exists { var, range, body } => Formula::ForAll {
                var,
                range,
                body: Box::new(body.not()),
            },
            g => g.not(),
        },
        Formula::And(a, b) => forall_not(*a).and(forall_not(*b)),
        other => other,
    }
}

/// A `Db` holding `db`'s relations as tables.
fn engine_for(db: &Database) -> Db {
    let mut engine = Db::new();
    for name in db.names() {
        let rel = db.get(name).unwrap();
        let attrs: Vec<(&str, Type)> = rel
            .schema()
            .attrs()
            .iter()
            .map(|a| (a.name.as_str(), a.ty))
            .collect();
        engine.create_table(name, &attrs).unwrap();
        for t in rel.iter() {
            engine.insert(name, t.values().to_vec()).unwrap();
        }
    }
    engine
}

/// `random_db` plus a row of labelled nulls in each relation.
fn nulls_db(seed: u64) -> Database {
    let mut db = random_db(seed, 6);
    for (rel, row) in [
        ("r", vec![Value::Null(0), Value::Int(1)]),
        ("s", vec![Value::Int(2), Value::Null(1)]),
    ] {
        db.get_mut(rel).unwrap().insert(row.into()).unwrap();
    }
    db
}

/// `random_db` plus an empty relation every query may range over.
fn empty_relation_db(seed: u64) -> Database {
    let mut db = random_db(seed, 6);
    let empty = Relation::with_schema(&[("a", Type::Int), ("c", Type::Str)]).unwrap();
    db.add("e", empty);
    db
}

/// `r(a, b)` beside `m(k, name, flag)`: int, str and bool columns.
fn mixed_types_db(seed: u64) -> Database {
    let mut db = random_db(seed, 4);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut m =
        Relation::with_schema(&[("k", Type::Int), ("name", Type::Str), ("flag", Type::Bool)])
            .unwrap();
    for _ in 0..5 {
        let row = vec![
            Value::Int(rng.gen_range(6) as i64),
            Value::str(["x", "y"][rng.gen_index(2)]),
            Value::Bool(rng.gen_range(2) == 1),
        ];
        m.insert(row.into()).unwrap();
    }
    db.drop_relation("s");
    db.add("m", m);
    db
}

/// Rewrites of every generated query — ranging over the domain, or
/// negating outside a conjunction — translate to algebra that agrees with
/// the interpreter and with the engine, and with the original query
/// unless a domain range meets a labelled null, which it excludes.
#[test]
fn rewrites_beyond_the_safe_fragment_agree() {
    let dbs = [
        ("plain", random_db(11, 6), false),
        ("labelled nulls", nulls_db(12), true),
        ("empty relation", empty_relation_db(13), false),
        ("mixed types", mixed_types_db(14), false),
    ];
    for (label, db, has_nulls) in dbs {
        let engine = engine_for(&db);
        let mut gen = QueryGen::new(0xc0dd_0019);
        for case in 0..24 {
            let q = gen.gen_query(&db).unwrap();
            let original = eval_query(&q, &db).unwrap();
            let with = |formula: Formula| Query {
                formula,
                ..q.clone()
            };
            // (rewrite, whether it ranges over the domain)
            let rewrites = [
                (free_over_domain(&q, &db), true),
                (with(exists_over_domain(q.formula.clone(), &db)), true),
                (with(negation_outside(q.formula.clone())), false),
                (with(forall_not(q.formula.clone())), false),
            ];
            for (r, over_domain) in &rewrites {
                let direct = eval_query(r, &db).unwrap();
                let translated = calculus_to_algebra(r, &db).unwrap();
                let at = format!("{label} case {case}: {r}");
                assert_eq!(
                    eval(&translated, &db).unwrap().tuples(),
                    direct.tuples(),
                    "{at}"
                );
                assert_eq!(
                    engine.calculus(r).unwrap().tuples(),
                    direct.tuples(),
                    "{at}"
                );
                if !(has_nulls && *over_domain) {
                    assert_eq!(direct.tuples(), original.tuples(), "{at}");
                }
            }
        }
    }
}
