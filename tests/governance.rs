//! Governance through every door: a statement whose work grows
//! super-linearly in its input is refused with a typed governor error
//! soon after its deadline, whichever surface it enters by, and the same
//! `Db` answers the next statement correctly.
//!
//! Three such statements, each under a 20 ms deadline and a 1 MiB budget
//! over a table `t(x)` of 120 rows:
//!
//! * a 3-way product in SQL — as text, prepared, as algebra, through
//!   `explain_analyze`, and over the wire;
//! * a calculus query quantifying over the active domain (`Db::run`);
//! * a Datalog rule deriving `t × t × t` (`datalog_with_ctx`).
//!
//! The parser bounds what no budget can: past its bound on nesting,
//! connectives, compound arms, `FROM` tables or select columns, a
//! statement is a typed parse error, and the deepest statement it accepts
//! of each shape goes through every recursive pass on a 2 MiB stack.
//!
//! `BQ_GOV_SEED=<n>` varies the table's values.

use std::fmt::Debug;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use big_queries::bq_core::{CoreError, Query};
use big_queries::bq_relational::algebra::expr::Expr;
use big_queries::bq_relational::calculus::ast::{Formula, Query as CalcQuery, Range, Term};
use big_queries::bq_relational::sqlish::parser::{
    MAX_ARMS, MAX_COLUMNS, MAX_CONNECTIVES, MAX_NESTING, MAX_TABLES,
};
use big_queries::bq_relational::value::CmpOp;
use big_queries::bq_server::wire::ErrorCode;
use big_queries::bq_util::{Rng, SplitMix64};
use big_queries::prelude::*;

const ROWS: usize = 120;
const DEADLINE: Duration = Duration::from_millis(20);
const BUDGET: u64 = 1 << 20;
/// How long after its deadline a refusal may arrive.
const SLACK: Duration = Duration::from_millis(250);

/// Seed for the table's values; override with `BQ_GOV_SEED=<n>`.
fn gov_seed() -> u64 {
    std::env::var("BQ_GOV_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_806)
}

/// `t(x)` holding [`ROWS`] distinct seeded integers, and those integers.
fn table_db() -> (Db, Vec<i64>) {
    let mut rng = SplitMix64::seed_from_u64(gov_seed());
    let mut values = std::collections::BTreeSet::new();
    while values.len() < ROWS {
        values.insert(rng.gen_range(1_000_000) as i64);
    }
    let mut db = Db::new();
    db.create_table("t", &[("x", Type::Int)]).unwrap();
    for v in &values {
        db.insert("t", vec![Value::Int(*v)]).unwrap();
    }
    (db, values.into_iter().collect())
}

fn limited() -> QueryContext {
    QueryContext::unlimited()
        .with_deadline(DEADLINE)
        .with_memory_budget(BUDGET)
}

fn governed(err: &CoreError) -> bool {
    matches!(
        err.governor(),
        Some(
            GovernorError::MemoryExceeded { .. }
                | GovernorError::DeadlineExceeded { .. }
                | GovernorError::Cancelled
        )
    )
}

/// Run `statement` (which builds its own [`limited`] context) and assert
/// it fails with an error `typed` accepts within deadline + [`SLACK`].
fn refused<T, E: Debug>(
    door: &str,
    typed: impl Fn(&E) -> bool,
    statement: impl FnOnce() -> Result<T, E>,
) {
    let started = Instant::now();
    let out = statement();
    let elapsed = started.elapsed();
    match &out {
        Err(e) => assert!(typed(e), "{door}: expected a typed refusal, got {e:?}"),
        Ok(_) => panic!("{door}: answered after {elapsed:?}, expected a typed refusal"),
    }
    assert!(
        elapsed < DEADLINE + SLACK,
        "{door}: refused only after {elapsed:?}"
    );
}

/// The plain select every door must still answer afterwards.
fn answers_plainly(db: &Db, values: &[i64]) {
    let probe = values[values.len() / 2];
    let hit = db
        .sql(&format!("select e.x from t e where e.x = {probe}"))
        .unwrap();
    assert_eq!(hit.tuples(), vec![Tuple::new(vec![Value::Int(probe)])]);
    assert_eq!(db.sql("select e.x from t e").unwrap().len(), ROWS);
}

#[test]
fn sql_product_is_refused_through_every_door() {
    let (db, values) = table_db();
    let text = "select e.x as a, f.x as b, g.x as c from t e, t f, t g";
    let db = Arc::new(RwLock::new(db));
    {
        let db = db.read().unwrap();
        let mode = db.exec_mode();
        refused("sql", governed, || {
            db.sql_with_ctx_mode(text, &limited(), mode)
        });
        answers_plainly(&db, &values);

        let plan = db.prepare_sql(text).unwrap();
        refused("prepared", governed, || {
            db.run(Query::Prepared { text, plan: &plan }, &limited(), mode)
        });
        answers_plainly(&db, &values);

        let t = |v: &str| Expr::rel("t").qualify(v);
        let product = t("e")
            .product(t("f"))
            .product(t("g"))
            .project(&["e.x", "f.x", "g.x"]);
        refused("algebra", governed, || {
            db.run(Query::Algebra(&product), &limited(), mode)
        });
        answers_plainly(&db, &values);

        refused("explain_analyze", governed, || {
            db.explain_analyze(text, &limited(), mode)
        });
        answers_plainly(&db, &values);
    }

    let server = serve(db.clone(), ServerConfig::default()).unwrap();
    let mut conn = connect(server.local_addr().to_string()).unwrap();
    conn.set_limits(SessionLimits {
        memory_bytes: Some(BUDGET),
        deadline_ms: Some(DEADLINE.as_millis() as u64),
        max_iterations: None,
    })
    .unwrap();
    let wire_typed = |e: &big_queries::bq_server::DriverError| {
        matches!(
            e.code,
            ErrorCode::MemoryExceeded | ErrorCode::DeadlineExceeded | ErrorCode::Cancelled
        )
    };
    refused("wire", wire_typed, || conn.execute(text));
    conn.set_limits(SessionLimits::default()).unwrap();
    match conn.execute("select e.x from t e").unwrap() {
        Outcome::Rows(rel) => assert_eq!(rel.len(), ROWS),
        other => panic!("wire: expected rows, got {other:?}"),
    }
    conn.close();
    server.shutdown(Duration::from_secs(2));
    answers_plainly(&db.read().unwrap(), &values);
}

#[test]
fn calculus_over_the_domain_is_refused() {
    // { e.x | e ∈ t : ∃d ∈ dom(a, b, c : int). d.a > e.x ∧ ¬(d.b < d.c) }
    let (db, values) = table_db();
    let body = Formula::cmp(Term::attr("d", "a"), CmpOp::Gt, Term::attr("e", "x"))
        .and(Formula::cmp(Term::attr("d", "b"), CmpOp::Lt, Term::attr("d", "c")).not());
    let probe = CalcQuery::new(
        &[("e", "t")],
        &[("e", "x", "x")],
        Formula::Exists {
            var: "d".to_string(),
            range: Range::Domain(
                Schema::new(&[("a", Type::Int), ("b", Type::Int), ("c", Type::Int)]).unwrap(),
            ),
            body: Box::new(body),
        },
    );
    refused("calculus", governed, || {
        db.run(Query::Calculus(&probe), &limited(), db.exec_mode())
    });
    answers_plainly(&db, &values);
}

#[test]
fn datalog_triple_product_is_refused() {
    let (db, values) = table_db();
    let rules = "p(X, Y, Z) :- t(X), t(Y), t(Z).";
    refused("datalog", governed, || {
        db.datalog_with_ctx(rules, "p(X, Y, Z)", &limited())
    });
    answers_plainly(&db, &values);
}

/// `w(c0, …)`: [`MAX_COLUMNS`] int columns and one row of zeros.
fn wide_db() -> Db {
    let names: Vec<String> = (0..MAX_COLUMNS).map(|i| format!("c{i}")).collect();
    let cols: Vec<(&str, Type)> = names.iter().map(|n| (n.as_str(), Type::Int)).collect();
    let mut db = Db::new();
    db.create_table("w", &cols).unwrap();
    db.insert("w", vec![Value::Int(0); MAX_COLUMNS]).unwrap();
    db
}

/// One select over `w` per bounded shape, `past` steps beyond its bound,
/// and one ("all") with every bound at once.
fn bounded_shapes(past: usize) -> Vec<(&'static str, String)> {
    let nesting = MAX_NESTING + past;
    let cmp = |w: &str| vec![format!("{w}.c0 = 0"); MAX_CONNECTIVES + past + 1];
    let columns = |w: &str| {
        let cols = (0..MAX_COLUMNS + past).map(|i| format!("{w}.c{} as d{i}", i % MAX_COLUMNS));
        cols.collect::<Vec<_>>().join(", ")
    };
    let tables: Vec<String> = (0..MAX_TABLES + past).map(|i| format!("w w{i}")).collect();
    let tables = tables.join(", ");
    let all = {
        let arm = format!("select {} from {tables}", columns("w0"));
        let pred = cmp("w0").join(" and ");
        let first = format!("{arm} where {}({pred})", "not ".repeat(nesting - 1));
        format!(
            "{first} union {}",
            vec![arm; MAX_ARMS + past - 1].join(" union ")
        )
    };
    let from = "select w.c0 from w where ";
    vec![
        ("not", format!("{from}{}w.c0 = 0", "not ".repeat(nesting))),
        (
            "parentheses",
            format!(
                "{from}{}w.c0 = 0{}",
                "(".repeat(nesting),
                ")".repeat(nesting)
            ),
        ),
        ("and", format!("{from}{}", cmp("w").join(" and "))),
        ("or", format!("{from}{}", cmp("w").join(" or "))),
        (
            "arms",
            vec!["select w.c0 from w"; MAX_ARMS + past].join(" union "),
        ),
        ("from", format!("select w0.c0 from {tables}")),
        ("columns", format!("select {} from w", columns("w"))),
        ("all", all),
    ]
}

/// The deepest statement of each shape is parsed, optimized, lowered,
/// executed in both modes, rendered and fingerprinted (the slow log does
/// both for every statement at threshold 0) and dropped on a thread with
/// a session thread's 2 MiB stack.
#[test]
fn the_deepest_accepted_statements_fit_a_session_stack() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let db = wide_db();
            db.set_slow_threshold_us(0);
            let ctx = QueryContext::unlimited();
            for (shape, sql) in bounded_shapes(0) {
                for mode in [ExecMode::Sequential, ExecMode::Parallel(2)] {
                    let rows = db.sql_with_ctx_mode(&sql, &ctx, mode);
                    assert_eq!(rows.unwrap().len(), 1, "{shape} in {mode}");
                    let plan = db.explain_analyze(&sql, &ctx, mode).unwrap();
                    assert!(plan.contains("SetBuild"), "{shape}: {plan}");
                }
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

/// One step past each bound is a typed `Query` error over the wire, and
/// the same session then answers the deepest accepted statement and a
/// plain select.
#[test]
fn one_past_each_bound_is_a_typed_query_error_over_the_wire() {
    let server = serve(Arc::new(RwLock::new(wide_db())), ServerConfig::default()).unwrap();
    let mut conn = connect(server.local_addr().to_string()).unwrap();
    for ((shape, past), (_, deepest)) in bounded_shapes(1).into_iter().zip(bounded_shapes(0)) {
        let err = conn.execute(&past).unwrap_err();
        assert_eq!(err.code, ErrorCode::Query, "{shape}: {err}");
        assert!(err.message.contains("more than"), "{shape}: {err}");
        for sql in [deepest.as_str(), "select w.c0 from w"] {
            match conn.execute(sql).unwrap() {
                Outcome::Rows(rel) => assert_eq!(rel.len(), 1, "{shape}"),
                other => panic!("{shape}: expected rows, got {other:?}"),
            }
        }
    }
    conn.close();
    server.shutdown(Duration::from_secs(2));
}

/// A statement reading `bq.*` runs against an overlay holding a copy of
/// every user table it names: that copy is charged to the statement. Over
/// 2 000 rows of ≈ 210 B, a 4 KiB budget refuses it, embedded and over
/// the wire; the engine then answers the next statement, and with an
/// ample budget the answer is what an unlimited run gives.
#[test]
fn a_bq_overlay_is_charged_to_the_statement() {
    let mut db = Db::new();
    db.create_table("t", &[("x", Type::Int), ("pad", Type::Str)])
        .unwrap();
    for x in 0..2_000i64 {
        let pad = format!("{x:0>190}");
        db.insert("t", vec![Value::Int(x), Value::str(&pad)])
            .unwrap();
    }
    let metric = match db
        .sql("select m.name from bq.metrics m")
        .unwrap()
        .iter()
        .next()
    {
        Some(t) => t.get(0).to_string(),
        None => panic!("bq.metrics is empty"),
    };
    let text = format!("select t.x from t, bq.metrics m where t.x = 0 and m.name = {metric}");
    let plain = "select t.x from t where t.x = 1";
    let budget = |bytes: u64| QueryContext::unlimited().with_memory_budget(bytes);
    let mode = db.exec_mode();
    let want = db.sql(&text).unwrap();
    assert_eq!(want.tuples(), vec![Tuple::new(vec![Value::Int(0)])]);

    let memory = |e: &CoreError| matches!(e.governor(), Some(GovernorError::MemoryExceeded { .. }));
    refused("overlay", memory, || {
        db.sql_with_ctx_mode(&text, &budget(4096), mode)
    });
    assert_eq!(db.sql(plain).unwrap().len(), 1);
    let ample = db
        .sql_with_ctx_mode(&text, &budget(64 << 20), mode)
        .unwrap();
    assert_eq!(ample, want);

    let db = Arc::new(RwLock::new(db));
    let server = serve(db.clone(), ServerConfig::default()).unwrap();
    let mut conn = connect(server.local_addr().to_string()).unwrap();
    let limits = |bytes: u64| SessionLimits {
        memory_bytes: Some(bytes),
        deadline_ms: None,
        max_iterations: None,
    };
    conn.set_limits(limits(4096)).unwrap();
    let err = conn.execute(&text).unwrap_err();
    assert_eq!(err.code, ErrorCode::MemoryExceeded, "{err}");
    conn.set_limits(limits(64 << 20)).unwrap();
    for (sql, rows) in [(plain, 1), (text.as_str(), 1)] {
        match conn.execute(sql).unwrap() {
            Outcome::Rows(rel) => assert_eq!(rel.len(), rows, "{sql}"),
            other => panic!("wire: expected rows, got {other:?}"),
        }
    }
    conn.close();
    server.shutdown(Duration::from_secs(2));
}
