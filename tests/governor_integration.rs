//! Resource-governor integration: the acceptance suite for admission
//! control, deadlines, cooperative cancellation, and memory budgets.
//!
//! The load-bearing assertions:
//!
//! * **Differential** — a governed statement with generous limits returns
//!   results identical to the ungoverned path, in both execution modes.
//! * **Bounded refusal** — a cross product under a 1 MB budget fails with
//!   a typed `MemoryExceeded` in bounded time instead of materialising.
//! * **Cancellation race** — a parallel query on 4 workers is cancelled
//!   from another thread mid-flight, terminates promptly, and the same
//!   `Db` answers correctly afterwards.
//! * **Admission invariant** — under a seeded concurrent stress load,
//!   `shed + completed == submitted`. Pin with `BQ_GOV_SEED=<n>`.
//!
//! The failpoint registry is process-global; tests touching it serialize
//! on a mutex, mirroring `crash_torture.rs`.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use big_queries::bq_core::CoreError;
use big_queries::bq_faults::{self as faults, Action, Policy, Trigger};
use big_queries::bq_util::{Rng, SplitMix64};
use big_queries::prelude::*;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::reset();
    g
}

/// Seed for the admission stress schedule; override with `BQ_GOV_SEED=<n>`.
fn gov_seed() -> u64 {
    std::env::var("BQ_GOV_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_806)
}

/// `n` rows of `(i, i % 7)` in table `t`, plus a small `u` for joins.
fn numbers_db(n: i64) -> Db {
    let mut db = Db::new();
    db.create_table("t", &[("a", Type::Int), ("b", Type::Int)])
        .unwrap();
    db.create_table("u", &[("c", Type::Int), ("d", Type::Int)])
        .unwrap();
    for i in 0..n {
        db.insert("t", vec![Value::Int(i), Value::Int(i % 7)])
            .unwrap();
    }
    for i in 0..10 {
        db.insert("u", vec![Value::Int(i), Value::Int(i * i)])
            .unwrap();
    }
    db
}

/// A context generous enough that no limit can fire on these workloads.
fn generous() -> QueryContext {
    QueryContext::unlimited()
        .with_deadline(Duration::from_secs(600))
        .with_memory_budget(1 << 30)
        .with_max_iterations(1 << 20)
}

#[test]
fn governed_with_generous_limits_is_identical_to_ungoverned() {
    let mut db = numbers_db(500);
    let queries = [
        "select e.a from t e where e.b = 3",
        "select e.a, f.d from t e, u f where e.b = f.c",
        "select e.b from t e",
        "select e.a, f.c from t e, u f",
    ];
    for mode in [ExecMode::Sequential, ExecMode::Parallel(4)] {
        db.set_exec_mode(mode);
        for q in &queries {
            let plain = db.sql(q).unwrap();
            let governed = db
                .sql_with_ctx_mode(q, &generous(), db.exec_mode())
                .unwrap();
            // Byte-identical: same schema, same tuples, same order.
            assert_eq!(plain, governed, "{mode} {q}");
            assert_eq!(
                format!("{:?}", plain.tuples()),
                format!("{:?}", governed.tuples()),
                "{mode} {q}"
            );
        }
    }
    // The Datalog surface agrees with itself the same way.
    let mut db = Db::new();
    db.create_table("edge", &[("x", Type::Int), ("y", Type::Int)])
        .unwrap();
    for i in 0..50 {
        db.insert("edge", vec![Value::Int(i), Value::Int(i + 1)])
            .unwrap();
    }
    let rules = "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).";
    let mut plain = db.datalog(rules, "path(0, X)").unwrap();
    let mut governed = db
        .datalog_with_ctx(rules, "path(0, X)", &generous())
        .unwrap();
    plain.sort();
    governed.sort();
    assert_eq!(plain, governed);
    assert_eq!(plain.len(), 50);
}

#[test]
fn one_megabyte_budget_stops_a_cross_product_in_bounded_time() {
    let mut db = numbers_db(400);
    let started = Instant::now();
    for mode in [ExecMode::Sequential, ExecMode::Parallel(4)] {
        db.set_exec_mode(mode);
        // 400 × 400 × 10 combinations would dwarf the budget by orders of
        // magnitude; the charger must refuse long before materialising.
        let ctx = QueryContext::unlimited().with_memory_budget(1 << 20);
        let err = db
            .sql_with_ctx_mode(
                "select e.a, f.b, g.c from t e, t f, u g",
                &ctx,
                db.exec_mode(),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Governor(GovernorError::MemoryExceeded { .. })
            ),
            "{mode}: {err:?}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "refusal took {:?}, not bounded",
        started.elapsed()
    );
}

#[test]
fn session_limits_govern_every_direct_sql_surface() {
    let mut db = numbers_db(300);
    db.set_limits(SessionLimits {
        memory_bytes: Some(256),
        ..SessionLimits::default()
    });
    let product = "select e.a, f.b from t e, t f";
    let refused = |out: Result<String, CoreError>, surface: &str| {
        assert!(
            matches!(
                out,
                Err(CoreError::Governor(GovernorError::MemoryExceeded { .. }))
            ),
            "{surface}: {out:?}"
        );
    };
    refused(db.sql(product).map(|rel| rel.len().to_string()), "sql");
    refused(
        db.explain_analyze(product, &db.govern(), db.exec_mode()),
        "explain_analyze",
    );
    // Like the others, EXPLAIN ANALYZE is a statement: it is admitted and
    // enters the slow log under the same trace id.
    db.set_limits(SessionLimits::default());
    let logged = db.slow_log().entries().len();
    let plan = db
        .explain_analyze(
            "select e.a from t e where e.a = 7",
            &db.govern(),
            db.exec_mode(),
        )
        .unwrap();
    assert!(plan.contains("SeqScan [t]"), "{plan}");
    assert_eq!(db.slow_log().entries().len(), logged + 1);
    assert_eq!(db.admission_stats().admitted, 3);
}

#[test]
fn deadline_interrupts_a_long_query_promptly() {
    let mut db = numbers_db(400);
    db.set_exec_mode(ExecMode::Parallel(4));
    let ctx = QueryContext::unlimited().with_deadline(Duration::from_millis(20));
    let started = Instant::now();
    let err = db
        .sql_with_ctx_mode(
            "select e.a, f.b, g.c from t e, t f, u g",
            &ctx,
            db.exec_mode(),
        )
        .unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(
            err,
            CoreError::Governor(GovernorError::DeadlineExceeded { deadline_ms: 20 })
        ),
        "{err:?}"
    );
    // Prompt: worker loops check at morsel boundaries, so the overshoot is
    // bounded by one morsel of work, not by the query size.
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
}

#[test]
fn cancellation_from_another_thread_stops_a_parallel_query() {
    let mut db = numbers_db(400);
    db.set_exec_mode(ExecMode::Parallel(4));
    // 400 × 400 × 10 = 1.6M combinations: long enough that a cancel a few
    // ms in always lands mid-flight.
    let ctx = QueryContext::unlimited();
    let token = ctx.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        token.cancel();
    });
    let started = Instant::now();
    let err = db
        .sql_with_ctx_mode(
            "select e.a, f.b, g.c from t e, t f, u g",
            &ctx,
            db.exec_mode(),
        )
        .unwrap_err();
    let elapsed = started.elapsed();
    canceller.join().unwrap();
    assert!(
        matches!(err, CoreError::Governor(GovernorError::Cancelled)),
        "{err:?}"
    );
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
    // The same Db answers correctly afterwards: cancellation poisons the
    // statement, never the engine.
    let again = db.sql("select e.a from t e where e.b = 0").unwrap();
    assert_eq!(again.len(), 58, "a in 0..400 with a % 7 == 0");
    assert_eq!(
        db.sql("select e.a, f.c from t e, u f").unwrap().len(),
        400 * 10
    );
}

#[test]
fn cancel_handle_reaches_a_statement_started_elsewhere() {
    let mut db = numbers_db(400);
    db.set_exec_mode(ExecMode::Parallel(4));
    let handle = db.cancel_handle();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        // Cancel whatever is in flight on the engine, without ever having
        // seen the context object.
        while handle.cancel_all() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let err = db
        .sql("select e.a, f.b, g.c from t e, t f, u g")
        .unwrap_err();
    canceller.join().unwrap();
    assert!(
        matches!(err, CoreError::Governor(GovernorError::Cancelled)),
        "{err:?}"
    );
    // A fresh statement registers a fresh token: unaffected by the old
    // cancel_all.
    assert!(db.sql("select e.a from t e where e.b = 1").is_ok());
}

#[test]
fn admission_stress_sheds_plus_completed_equals_submitted() {
    let db = std::sync::Arc::new({
        let mut db = numbers_db(80);
        db.set_admission(2, 2);
        db.set_exec_mode(ExecMode::Sequential);
        db
    });
    let seed = gov_seed();
    let threads = 8;
    let per_thread = 6;
    let mut handles = Vec::new();
    for tid in 0..threads {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::seed_from_u64(seed ^ (tid as u64).wrapping_mul(0x9e37));
            let mut completed = 0u64;
            let mut shed = 0u64;
            for _ in 0..per_thread {
                // Mix heavy and light statements so slots stay contended.
                let q = if rng.next_u64().is_multiple_of(2) {
                    "select e.a, f.b from t e, t f"
                } else {
                    "select e.a from t e where e.b = 2"
                };
                match db.sql_with_ctx_mode(q, &QueryContext::unlimited(), db.exec_mode()) {
                    Ok(_) => completed += 1,
                    Err(CoreError::Governor(GovernorError::Overloaded { .. })) => shed += 1,
                    Err(e) => panic!("unexpected error under stress: {e:?}"),
                }
            }
            (completed, shed)
        }));
    }
    let (mut completed, mut shed) = (0u64, 0u64);
    for h in handles {
        let (c, s) = h.join().unwrap();
        completed += c;
        shed += s;
    }
    let submitted = (threads * per_thread) as u64;
    assert_eq!(
        completed + shed,
        submitted,
        "every statement either completed or was shed (seed {seed})"
    );
    assert!(completed > 0, "some statements ran (seed {seed})");
    let stats = db.admission_stats();
    assert_eq!(stats.admitted, completed, "controller agrees (seed {seed})");
    assert_eq!(stats.shed, shed, "controller agrees (seed {seed})");
    assert_eq!(stats.running, 0, "all permits returned (seed {seed})");
    assert_eq!(stats.queued, 0, "queue drained (seed {seed})");
}

#[test]
fn datalog_iteration_cap_and_validation_order() {
    let mut db = Db::new();
    db.create_table("edge", &[("x", Type::Int), ("y", Type::Int)])
        .unwrap();
    for i in 0..64 {
        db.insert("edge", vec![Value::Int(i), Value::Int(i + 1)])
            .unwrap();
    }
    let rules = "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).";
    // The cap stops the fixpoint with a typed error instead of silently
    // truncating at some internal bound.
    let ctx = QueryContext::unlimited().with_max_iterations(4);
    let err = db.datalog_with_ctx(rules, "path(0, X)", &ctx).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Governor(GovernorError::IterationLimit { limit: 4 })
        ),
        "{err:?}"
    );
    // Validation precedes the EDB copy: an unstratifiable program under a
    // budget too small for the EDB still reports the *program* error —
    // proof the fact store was never allocated.
    let bad = "odd(X) :- edge(X, Y), !odd(X).";
    let tiny = QueryContext::unlimited().with_memory_budget(1);
    let err = db.datalog_with_ctx(bad, "odd(X)", &tiny).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Datalog(big_queries::bq_datalog::DlError::NotStratifiable(_))
        ),
        "{err:?}"
    );
}

#[test]
fn reserve_failpoint_makes_out_of_memory_deterministic() {
    let _g = serial();
    // Caller-thread scope: the other tests in this binary reserve against
    // budgets concurrently and would otherwise race for the one firing.
    // The statement's first reservation is the scan's, on this thread.
    faults::configure(
        "governor.reserve.fail",
        Policy::new(Action::Error, Trigger::Nth(1)).caller_thread(),
    );
    let db = numbers_db(50);
    let ctx = QueryContext::unlimited().with_memory_budget(1 << 30);
    let err = db
        .sql_with_ctx_mode("select e.a, f.c from t e, u f", &ctx, db.exec_mode())
        .unwrap_err();
    faults::off("governor.reserve.fail");
    assert!(
        matches!(
            err,
            CoreError::Governor(GovernorError::MemoryExceeded { .. })
        ),
        "{err:?}"
    );
    // With the fault cleared the very same statement succeeds.
    assert_eq!(
        db.sql_with_ctx_mode("select e.a, f.c from t e, u f", &ctx, db.exec_mode())
            .unwrap()
            .len(),
        500
    );
}

#[test]
fn governor_metrics_land_in_the_registry() {
    let db = numbers_db(30);
    let ctx = QueryContext::unlimited().with_memory_budget(64);
    let _ = db.sql_with_ctx_mode("select e.a, f.b from t e, t f", &ctx, db.exec_mode());
    let text = db.metrics_text();
    assert!(text.contains("bq_governor_admitted_total"), "{text}");
    assert!(text.contains("bq_governor_mem_exceeded_total"), "{text}");
    assert!(text.contains("bq_governor_high_water_bytes"), "{text}");
}
