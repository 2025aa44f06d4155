//! Workspace-level observability integration tests.
//!
//! Two properties are load-bearing for `bq-obs`:
//!
//! 1. **Differential transparency** — instrumentation must never change
//!    query results. The same statement run with tracing off, tracing on,
//!    and under `profile_sql` has to produce the identical relation.
//! 2. **Cross-crate exposition** — `Db::metrics_text()` is the one pane of
//!    glass, so counters from storage, txn, datalog, exec, and core must
//!    all show up there after a representative workload.
//!
//! The metrics registry and tracer are process-global, so the tests in
//! this binary serialize on a mutex and make exact claims only about
//! snapshot *deltas* around workload they drive themselves.

use std::sync::{Mutex, MutexGuard};

use big_queries::prelude::*;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn library() -> Db {
    let mut db = Db::new();
    db.create_table("book", &[("bid", Type::Int), ("title", Type::Str)])
        .unwrap();
    db.create_table("cites", &[("src", Type::Int), ("dst", Type::Int)])
        .unwrap();
    for (bid, title) in [(1, "codd70"), (2, "aho79"), (3, "vardi82"), (4, "pods95")] {
        db.insert("book", vec![Value::Int(bid), Value::str(title)])
            .unwrap();
    }
    for (src, dst) in [(4, 3), (3, 2), (2, 1)] {
        db.insert("cites", vec![Value::Int(src), Value::Int(dst)])
            .unwrap();
    }
    db
}

const JOIN_SQL: &str = "select b.title, c.dst from book b, cites c where b.bid = c.src";

const TC_PROGRAM: &str = "reach(X, Y) :- cites(X, Y).\n\
                          reach(X, Y) :- cites(X, Z), reach(Z, Y).";

/// Instrumentation is observationally transparent: tracing off, tracing
/// on, and the profiling surface all return the identical relation, and
/// datalog fixpoints are likewise unchanged.
#[test]
fn instrumented_and_uninstrumented_results_are_identical() {
    let _guard = serial();
    let db = library();

    db.set_tracing(false);
    let plain = db.sql(JOIN_SQL).unwrap();

    db.set_tracing(true);
    let traced = db.sql(JOIN_SQL).unwrap();
    let (profiled, profile) = db
        .profile_sql(JOIN_SQL, &db.govern(), db.exec_mode())
        .unwrap();
    db.set_tracing(false);

    assert_eq!(plain, traced, "tracing changed a SQL result");
    assert_eq!(plain, profiled, "profiling changed a SQL result");
    assert_eq!(plain.len(), 3);
    assert!(profile.render().contains(JOIN_SQL), "{}", profile.render());

    db.set_tracing(false);
    let mut reach_plain = db.datalog(TC_PROGRAM, "reach(4, X)").unwrap();
    db.set_tracing(true);
    let mut reach_traced = db.datalog(TC_PROGRAM, "reach(4, X)").unwrap();
    db.set_tracing(false);
    reach_plain.sort();
    reach_traced.sort();
    assert_eq!(reach_plain, reach_traced, "tracing changed a fixpoint");
    assert_eq!(reach_plain.len(), 3); // 4 reaches 3, 2, 1
    bq_obs::drain(); // leave no stale spans for later tests
}

/// After one representative workload, the single exposition surface
/// carries live (nonzero) counters from at least four engine crates.
#[test]
fn metrics_text_spans_the_engine_crates() {
    let _guard = serial();
    let mut db = library();
    let before = bq_obs::global().snapshot();

    db.sql(JOIN_SQL).unwrap(); // exec + storage
    db.datalog(TC_PROGRAM, "reach(4, X)").unwrap(); // datalog
    let t = db.begin().unwrap(); // core + txn
    db.insert_in(t, "book", vec![Value::Int(5), Value::str("fagin82")])
        .unwrap();
    db.commit(t).unwrap();

    let after = bq_obs::global().snapshot();
    let text = db.metrics_text();

    // One metric per crate, all present in the exposition text and all
    // actually incremented by the workload above (delta > 0), so this
    // fails if any layer's wiring is removed.
    for name in [
        "bq_storage_page_writes_total", // bq-storage
        "bq_txn_lock_grants_total",     // bq-txn
        "bq_datalog_iterations_total",  // bq-datalog
        "bq_exec_operators_total",      // bq-exec
        "bq_core_txn_commits_total",    // bq-core
    ] {
        assert!(text.contains(name), "{name} missing from metrics_text");
        assert!(
            after.get(name) - before.get(name) > 0,
            "{name} not incremented by the workload"
        );
    }

    // Latency histograms are exposed in Prometheus text shape.
    assert!(
        text.contains("bq_core_stmt_latency_us_sql_bucket"),
        "{text}"
    );
    assert!(text.contains("le=\"+Inf\""), "{text}");

    // JSON surface parses the same registry (spot-check shape).
    let json = db.metrics_json();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"bq_exec_operators_total\""), "{json}");
}

/// Spans from different layers land in one trace ring: a traced SQL query
/// emits `exec.plan`, a traced datalog run emits `datalog.stratum`.
#[test]
fn spans_cross_crate_boundaries() {
    let _guard = serial();
    let db = library();
    bq_obs::drain();
    db.set_tracing(true);
    db.sql(JOIN_SQL).unwrap();
    db.datalog(TC_PROGRAM, "reach(4, X)").unwrap();
    db.set_tracing(false);

    let (spans, dropped) = bq_obs::drain();
    assert_eq!(dropped, 0);
    assert!(spans.iter().any(|s| s.name == "exec.plan"), "{spans:?}");
    assert!(
        spans.iter().any(|s| s.name == "datalog.stratum"),
        "{spans:?}"
    );
    let flame = bq_obs::flame_text(&spans);
    assert!(flame.contains("exec.plan"), "{flame}");
}

/// Querying the system catalog is observationally transparent: selecting
/// from every `bq.*` virtual table in the middle of a workload changes no
/// user-query result — SQL joins and datalog fixpoints come back
/// identical, and every catalog table actually answers.
#[test]
fn catalog_queries_change_no_user_results() {
    let _guard = serial();
    let db = library();

    // Baseline workload with no introspection.
    let join_plain = db.sql(JOIN_SQL).unwrap();
    let mut reach_plain = db.datalog(TC_PROGRAM, "reach(4, X)").unwrap();
    reach_plain.sort();

    // Interleave: after each user statement, sweep the whole catalog.
    for round in 0..3 {
        let join_mid = db.sql(JOIN_SQL).unwrap();
        assert_eq!(join_plain, join_mid, "introspection changed a SQL join");
        for table in db.virtual_tables() {
            let rel = db
                .sql(&format!("select * from {table} v"))
                .unwrap_or_else(|e| panic!("{table} failed on round {round}: {e}"));
            assert!(
                rel.schema().arity() > 0,
                "{table} answered with an empty schema"
            );
        }
        let mut reach_mid = db.datalog(TC_PROGRAM, "reach(4, X)").unwrap();
        reach_mid.sort();
        assert_eq!(reach_plain, reach_mid, "introspection changed a fixpoint");
    }

    // The catalog also joins against user tables through the same path.
    let joined = db
        .sql(
            "select b.title, q.query from book b, bq.queries q \
             where b.bid = 1",
        )
        .unwrap();
    assert_eq!(joined.len(), 1, "catalog × user join sees the running self");
}

/// `reset_metrics` zeroes in place: cached `&'static` handles in the
/// engine crates keep working, so counters resume from zero afterwards.
#[test]
fn reset_keeps_instrumentation_alive() {
    let _guard = serial();
    let db = library();
    db.sql(JOIN_SQL).unwrap();
    db.reset_metrics();
    let zeroed = bq_obs::global().snapshot();
    assert_eq!(zeroed.get("bq_exec_operators_total"), 0);

    db.sql(JOIN_SQL).unwrap();
    let after = bq_obs::global().snapshot();
    assert!(
        after.get("bq_exec_operators_total") > 0,
        "handles went stale after reset"
    );
}

/// Every relational query surface runs through one governed body: SQL
/// text, a prepared plan, an algebra expression, a calculus query and
/// EXPLAIN ANALYZE each take exactly one admission slot, leave exactly one
/// slow-log row under their own query id, and count once under their
/// kind's statement-latency histogram — the kind `bq.queries` shows.
#[test]
fn every_query_surface_is_governed_the_same_way() {
    use big_queries::bq_core::Query;
    use big_queries::bq_relational::algebra::Expr;
    use big_queries::bq_relational::calculus::ast::{Formula, Query as CalcQuery, Term};
    use big_queries::bq_relational::value::CmpOp;

    let _guard = serial();
    let db = library();
    let mode = db.exec_mode();
    let text = "select b.title from book b where b.bid > 2";
    let plan = db.prepare_sql(text).unwrap();
    let algebra = Expr::rel("book").project(&["title"]);
    let calculus = CalcQuery::new(
        &[("b", "book")],
        &[("b", "title", "title")],
        Formula::cmp(
            Term::attr("b", "bid"),
            CmpOp::Gt,
            Term::Const(Value::Int(2)),
        ),
    );
    // One statement through `run`, then: one admission, one slow-log row
    // under its query id and text, one count under its kind.
    let check = |kind: &str, logged_as: &str, run: &dyn Fn(&QueryContext)| {
        let latency = format!("bq_core_stmt_latency_us_{kind}_count");
        let before = bq_obs::global().snapshot();
        let admitted = db.admission_stats().admitted;
        let logged = db.slow_log().entries().len();
        let ctx = QueryContext::unlimited();
        run(&ctx);
        let after = bq_obs::global().snapshot();
        assert_eq!(db.admission_stats().admitted, admitted + 1, "{kind}");
        let entries = db.slow_log().entries();
        assert_eq!(entries.len(), logged + 1, "{kind}: one slow-log row");
        let entry = entries.last().unwrap();
        assert_eq!(Some(entry.query), ctx.query_id(), "{kind}");
        assert_eq!(entry.sql, logged_as);
        assert!(!entry.plan.is_empty(), "{kind}: the row carries its plan");
        assert_eq!(after.get(&latency) - before.get(&latency), 1, "{kind}");
    };
    check("sql", text, &|ctx| {
        db.run(Query::Sql(text), ctx, mode).unwrap();
    });
    check("sql", text, &|ctx| {
        let prepared = Query::Prepared { text, plan: &plan };
        db.run(prepared, ctx, mode).unwrap();
    });
    check("algebra", "(algebra)", &|ctx| {
        db.run(Query::Algebra(&algebra), ctx, mode).unwrap();
    });
    check("calculus", "(calculus)", &|ctx| {
        db.run(Query::Calculus(&calculus), ctx, mode).unwrap();
    });
    check("sql", text, &|ctx| {
        db.explain_analyze(text, ctx, mode).unwrap();
    });
}
