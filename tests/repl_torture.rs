//! Partition-chaos acceptance for bq-repl: WAL shipping, failover, and
//! the `repl.*` failpoints, over real loopback sockets.
//!
//! The load-bearing assertions, per the roadmap:
//!
//! * **Convergence** — a replica bootstraps from a snapshot, streams the
//!   WAL, and its contents converge byte-identically (engine content
//!   fingerprints match) with the primary.
//! * **Read-only** — a replica serves reads and refuses writes with a
//!   typed `ReadOnlyReplica` error; `bq.replicas` on the primary shows
//!   the subscriber and its lag.
//! * **Chaos heals** — dropped, duplicated, and reordered segments, link
//!   stalls, and a replica crash mid-apply all end in convergence (or a
//!   clean re-bootstrap) once the fault clears; the ack-authoritative
//!   protocol rewinds with no retransmit machinery.
//! * **Failover** — when the primary dies mid-workload, reads fail over
//!   transparently, no acknowledged tagged write is lost on the promoted
//!   replica, and no tagged write is ever applied twice — a re-sent
//!   request id answers from the dedup table.
//! * **Wake-ups** — a tagged write's commit wakes the caught-up ship
//!   loop and its ack wakes the waiting session (no timer on that path:
//!   the idle-fallback counter stays flat over 200 writes), and a replica
//!   that leaves mid-wait releases the write long before the ceiling.
//! * **Differential** — with every `repl.*` failpoint disarmed, the
//!   replicated workload fingerprints identically to a clean run.
//!
//! Pin the schedules with `BQ_REPL_SEED=<n>`.

use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use big_queries::bq_faults::{self as faults, Action, Policy, Trigger};
use big_queries::bq_server::wire::ErrorCode;
use big_queries::prelude::*;

/// The failpoint registry is process-global; tests touching it serialize,
/// mirroring `crash_torture.rs` and `server_integration.rs`.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::reset();
    g
}

/// Seed for the chaos schedules; override with `BQ_REPL_SEED=<n>`.
fn repl_seed() -> u64 {
    std::env::var("BQ_REPL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_807)
}

/// Poll `pred` until it holds or `timeout` passes; panic with `what`.
fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let start = Instant::now();
    while !pred() {
        assert!(
            start.elapsed() < timeout,
            "timed out after {timeout:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn fingerprint(db: &Arc<RwLock<Db>>) -> u64 {
    db.read()
        .unwrap_or_else(|e| e.into_inner())
        .content_fingerprint()
}

fn durable_len(db: &Arc<RwLock<Db>>) -> u64 {
    db.read()
        .unwrap_or_else(|e| e.into_inner())
        .wal_durable_len()
}

/// A primary serving a fresh engine with table `t(a int, b int)`.
fn serve_primary() -> (Server, String, Arc<RwLock<Db>>) {
    serve_primary_with(ServerConfig::default())
}

fn serve_primary_with(config: ServerConfig) -> (Server, String, Arc<RwLock<Db>>) {
    let mut db = Db::new();
    db.create_table("t", &[("a", Type::Int), ("b", Type::Int)])
        .unwrap();
    let db = Arc::new(RwLock::new(db));
    let server = serve(Arc::clone(&db), config).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr, db)
}

/// Current value of a process-wide metric (0 before it registers).
fn metric(name: &str) -> i64 {
    bq_obs::global().snapshot().get(name)
}

/// A read-only server fronting a replica's engine.
fn serve_replica(replica: &Replica) -> (Server, String) {
    let config = ServerConfig {
        read_only: true,
        ..ServerConfig::default()
    };
    let server = serve(replica.db(), config).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn attach_replica(primary: &str) -> Replica {
    let mut config = ReplicaConfig::new(primary);
    config.seed = repl_seed();
    config.connect_timeout = Duration::from_secs(2);
    config.read_poll = Duration::from_millis(20);
    Replica::start(config)
}

/// Wait until the replica has applied the primary's whole durable WAL
/// and the engine contents fingerprint identically.
fn wait_converged(what: &str, primary: &Arc<RwLock<Db>>, replica: &Replica) {
    let rdb = replica.db();
    wait_until(what, Duration::from_secs(20), || {
        replica.applied() == durable_len(primary) && fingerprint(primary) == fingerprint(&rdb)
    });
}

fn rows(out: Outcome) -> Relation {
    match out {
        Outcome::Rows(rel) => rel,
        other => panic!("expected rows, got {other:?}"),
    }
}

/// Rows in `t` with `a = key`, over any driver.
fn count_key(driver: &mut dyn Driver, key: i64) -> usize {
    rows(
        driver
            .execute(&format!("select x.a from t x where x.a = {key}"))
            .unwrap(),
    )
    .len()
}

#[test]
fn replica_bootstraps_streams_and_serves_read_only() {
    let _g = serial();
    let (primary, addr, pdb) = serve_primary();
    let mut conn = connect(&addr).unwrap();

    // Rows before the subscription arrive via the bootstrap snapshot...
    for i in 0..20 {
        conn.execute(&format!("insert into t values ({i}, {})", i * i))
            .unwrap();
    }
    let replica = attach_replica(&addr);

    // ...and rows after it via the shipped stream.
    wait_until("replica streaming", Duration::from_secs(10), || {
        replica.state() == "streaming"
    });
    for i in 20..40 {
        conn.execute(&format!("insert into t values ({i}, {})", i * i))
            .unwrap();
    }
    wait_converged("bootstrap + stream convergence", &pdb, &replica);

    // The primary's catalog shows the subscriber: an ordinary select
    // over `bq.replicas`, same as bqsh's .replicas.
    let rel = rows(
        conn.execute("select r.replica, r.state, r.acked_lsn from bq.replicas r")
            .unwrap(),
    );
    assert_eq!(rel.len(), 1, "one subscribed replica");

    // It joins against bq.metrics like any relation, and the same query
    // works embedded — the catalog is one surface, not a wire feature.
    let joined = rows(
        conn.execute(
            "select r.state, m.value from bq.replicas r, bq.metrics m \
             where m.name = 'bq_repl_acks_total'",
        )
        .unwrap(),
    );
    assert_eq!(joined.len(), 1, "replicas ⋈ metrics over the wire");
    let embedded = pdb
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .sql(
            "select r.state, m.value from bq.replicas r, bq.metrics m \
             where m.name = 'bq_repl_acks_total'",
        )
        .unwrap();
    assert_eq!(embedded.len(), 1, "replicas ⋈ metrics embedded");

    // The replica serves reads and refuses writes with a typed error.
    let (replica_srv, raddr) = serve_replica(&replica);
    let mut rconn = connect(&raddr).unwrap();
    assert_eq!(
        rows(rconn.execute("select x.a from t x").unwrap()).len(),
        40
    );
    let err = rconn.execute("insert into t values (99, 99)").unwrap_err();
    assert_eq!(err.code, ErrorCode::ReadOnlyReplica);
    let err = rconn
        .execute_tagged("insert into t values (99, 99)", 7)
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::ReadOnlyReplica);

    drop(replica);
    replica_srv.shutdown(Duration::from_millis(200));
    primary.shutdown(Duration::from_millis(200));
}

#[test]
fn tagged_writes_dedup_exactly_once() {
    let _g = serial();
    let (primary, addr, _pdb) = serve_primary();
    let mut conn = connect(&addr).unwrap();

    // First send applies; the retry answers from the dedup table.
    conn.execute_tagged("insert into t values (1, 10)", 41)
        .unwrap();
    let out = conn
        .execute_tagged("insert into t values (1, 10)", 41)
        .unwrap();
    match out {
        Outcome::Message(m) => assert!(m.contains("already applied"), "{m}"),
        other => panic!("expected duplicate message, got {other:?}"),
    }
    assert_eq!(
        count_key(&mut conn, 1),
        1,
        "tagged write applied exactly once"
    );

    // Only autocommit inserts may carry a tag.
    let err = conn.execute_tagged("select x.a from t x", 42).unwrap_err();
    assert_eq!(err.code, ErrorCode::Unsupported);
    conn.execute("begin").unwrap();
    let err = conn
        .execute_tagged("insert into t values (2, 20)", 43)
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::TxnState);
    conn.execute("rollback").unwrap();

    primary.shutdown(Duration::from_millis(200));
}

#[test]
fn segment_drop_dup_and_reorder_all_heal() {
    let _g = serial();
    let seed = repl_seed();
    for (round, site) in [
        "repl.segment.drop",
        "repl.segment.dup",
        "repl.segment.reorder",
    ]
    .iter()
    .enumerate()
    {
        faults::reset();
        faults::set_seed(seed.wrapping_add(round as u64));
        let (primary, addr, pdb) = serve_primary();
        let mut conn = connect(&addr).unwrap();
        let replica = attach_replica(&addr);
        wait_until("replica streaming", Duration::from_secs(10), || {
            replica.state() == "streaming"
        });

        // Chaos on: every shipping round has a 40% chance of mangling
        // its segment. The workload trickles so many rounds happen.
        faults::configure(site, Policy::new(Action::Error, Trigger::Prob(40)));
        for i in 0..30 {
            conn.execute(&format!("insert into t values ({i}, {round})"))
                .unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(faults::fire_count(site) > 0, "{site} never fired");

        // Chaos off; fresh traffic triggers the rewind that heals any
        // trailing gap, and the stream converges byte-identically.
        faults::off(site);
        for i in 30..40 {
            conn.execute(&format!("insert into t values ({i}, {round})"))
                .unwrap();
        }
        wait_converged(site, &pdb, &replica);

        drop(replica);
        primary.shutdown(Duration::from_millis(200));
    }
}

#[test]
fn link_stall_delays_acks_but_still_converges() {
    let _g = serial();
    faults::set_seed(repl_seed());
    let (primary, addr, pdb) = serve_primary();
    let mut conn = connect(&addr).unwrap();
    let replica = attach_replica(&addr);
    wait_until("replica streaming", Duration::from_secs(10), || {
        replica.state() == "streaming"
    });

    // Stalled acks slow the semi-sync wait without breaking it: tagged
    // writes still come back acknowledged, nothing is lost.
    faults::configure(
        "repl.link.stall",
        Policy::new(Action::Error, Trigger::Prob(50)),
    );
    for i in 0..10 {
        conn.execute_tagged(&format!("insert into t values ({i}, 0)"), 100 + i)
            .unwrap();
    }
    assert!(
        faults::fire_count("repl.link.stall") > 0,
        "stall never fired"
    );
    faults::off("repl.link.stall");
    wait_converged("convergence through stalls", &pdb, &replica);
    for i in 0..10 {
        assert_eq!(count_key(&mut conn, i), 1, "row {i} applied exactly once");
    }

    drop(replica);
    primary.shutdown(Duration::from_millis(200));
}

#[test]
fn tagged_writes_wake_the_ship_loop() {
    let _g = serial();
    let (primary, addr, pdb) = serve_primary();
    let mut conn = connect(&addr).unwrap();
    let replica = attach_replica(&addr);
    wait_until("replica streaming", Duration::from_secs(10), || {
        replica.state() == "streaming"
    });

    let timeouts = metric("bq_repl_sync_timeouts_total");
    let idle = metric("bq_repl_ship_idle_wakeups_total");
    let waits = metric("bq_repl_ack_wait_us_count");
    for i in 0..200 {
        conn.execute_tagged(&format!("insert into t values ({i}, 0)"), 5_000 + i)
            .unwrap();
        // Semi-sync: the reply means the replica already has the row.
        assert!(replica.applied() >= durable_len(&pdb), "write {i} unacked");
    }
    assert_eq!(metric("bq_repl_sync_timeouts_total"), timeouts);
    assert_eq!(metric("bq_repl_ack_wait_us_count") - waits, 200);
    // Each commit wakes the caught-up ship loop through the WAL watch; a
    // loop that slept on a timer instead would count ~one idle wake-up
    // per write. A handful is allowed for a scheduler stall that leaves
    // the loop idle past its fallback.
    let idle_wakeups = metric("bq_repl_ship_idle_wakeups_total") - idle;
    assert!(
        idle_wakeups <= 5,
        "{idle_wakeups} idle wake-ups in 200 writes"
    );
    // An operator sees both instruments with one query.
    let seen = rows(
        conn.execute(
            "select m.name from bq.metrics m where m.name = 'bq_repl_ack_wait_us' \
             or m.name = 'bq_repl_ship_idle_wakeups_total'",
        )
        .unwrap(),
    );
    assert_eq!(seen.len(), 2, "{seen:?}");
    wait_converged("convergence after tagged writes", &pdb, &replica);

    drop(replica);
    primary.shutdown(Duration::from_millis(200));
}

#[test]
fn replica_departure_releases_a_waiting_tagged_write() {
    let _g = serial();
    faults::set_seed(repl_seed());
    // A ceiling far longer than the test: a tagged write that comes back
    // was released, it did not time out.
    let (primary, addr, pdb) = serve_primary_with(ServerConfig {
        sync_wait_ms: 60_000,
        ..ServerConfig::default()
    });
    let mut conn = connect(&addr).unwrap();
    let mut replica = attach_replica(&addr);
    wait_until("replica streaming", Duration::from_secs(10), || {
        replica.state() == "streaming"
    });
    let timeouts = metric("bq_repl_sync_timeouts_total");

    // Every ack now takes 100 ms. The first insert's segment puts the
    // replica into that stall with the link busy: whatever commits next
    // cannot even ship until the ack is back.
    faults::configure(
        "repl.link.stall",
        Policy::new(Action::Error, Trigger::Always),
    );
    conn.execute("insert into t values (1, 0)").unwrap();
    wait_until("replica inside the stall", Duration::from_secs(10), || {
        replica.applied() == durable_len(&pdb)
    });
    let writer = std::thread::spawn(move || {
        let start = Instant::now();
        let out = conn.execute_tagged("insert into t values (2, 0)", 777);
        (out, start.elapsed())
    });
    wait_until("tagged write committed", Duration::from_secs(10), || {
        durable_len(&pdb) > replica.applied()
    });
    // The replica leaves mid-wait: it finishes its stall, acks the first
    // segment only, and hangs up. The departure is what frees the write.
    replica.stop();
    let (out, took) = writer.join().unwrap();
    out.unwrap();
    faults::off("repl.link.stall");
    assert!(took < Duration::from_secs(10), "released after {took:?}");
    assert_eq!(metric("bq_repl_sync_timeouts_total"), timeouts);
    let replicas = pdb
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .replica_registry();
    wait_until("bq.replicas empties", Duration::from_secs(10), || {
        replicas.is_empty()
    });

    primary.shutdown(Duration::from_millis(200));
}

#[test]
fn replica_crash_mid_apply_then_fresh_replica_rebootstraps() {
    let _g = serial();
    faults::set_seed(repl_seed());
    let (primary, addr, pdb) = serve_primary();
    let mut conn = connect(&addr).unwrap();
    let crashed = attach_replica(&addr);
    wait_until("replica streaming", Duration::from_secs(10), || {
        crashed.state() == "streaming"
    });

    // The third streamed record kills the worker mid-apply, after some
    // progress but before the ack for its segment goes out.
    faults::configure(
        "repl.apply.crash",
        Policy::new(Action::Error, Trigger::Nth(3)),
    );
    for i in 0..20 {
        conn.execute(&format!("insert into t values ({i}, 1)"))
            .unwrap();
    }
    wait_until("replica crash", Duration::from_secs(10), || {
        crashed.state() == "crashed"
    });
    assert_eq!(faults::fire_count("repl.apply.crash"), 1);

    // A crashed worker is terminal, like a dead process: a fresh replica
    // re-bootstraps from a snapshot and converges.
    faults::off("repl.apply.crash");
    let fresh = attach_replica(&addr);
    wait_converged("re-bootstrap after crash", &pdb, &fresh);

    drop(crashed);
    drop(fresh);
    primary.shutdown(Duration::from_millis(200));
}

#[test]
fn primary_death_promotion_loses_no_acked_write() {
    let _g = serial();
    let seed = repl_seed();
    let (primary, paddr, _pdb) = serve_primary();
    let replica = attach_replica(&paddr);
    let (replica_srv, raddr) = serve_replica(&replica);
    wait_until("replica streaming", Duration::from_secs(10), || {
        replica.state() == "streaming"
    });

    let opts = FailoverOptions {
        seed,
        connect_timeout: Duration::from_millis(500),
        ..FailoverOptions::default()
    };
    let mut driver = FailoverDriver::connect(vec![paddr.clone(), raddr.clone()], opts).unwrap();

    // Phase one: acknowledged tagged writes against the live primary.
    // The default semi-sync ceiling means each `Ok` here implies the
    // replica acked the commit's WAL offset — the durability contract
    // promotion must honour.
    let mut acked: Vec<i64> = Vec::new();
    for i in 0..15 {
        driver
            .execute_tagged(&format!("insert into t values ({i}, 2)"), 200 + i as u64)
            .unwrap();
        acked.push(i);
    }
    // Reads work through the same driver.
    assert_eq!(
        rows(driver.execute("select x.a from t x").unwrap()).len(),
        acked.len()
    );

    // The primary dies mid-deployment. Reads fail over transparently to
    // the (read-only) replica endpoint.
    primary.shutdown(Duration::from_millis(100));
    assert_eq!(
        rows(driver.execute("select x.a from t x").unwrap()).len(),
        acked.len(),
        "reads fail over to the replica"
    );

    // An untagged write cannot be satisfied anywhere yet: every live
    // endpoint refuses it *before* execution — never an ambiguous retry.
    let err = driver.execute("insert into t values (777, 7)").unwrap_err();
    assert_eq!(err.code, ErrorCode::ReadOnlyReplica);

    // Promote: replication stops, the engine aborts orphaned
    // transactions, and the server opens for writes.
    let promoted = replica.promote();
    replica_srv.set_read_only(false);

    // Every acked write survived, exactly once.
    let mut check = connect(&raddr).unwrap();
    for &i in &acked {
        assert_eq!(
            count_key(&mut check, i),
            1,
            "acked row {i} on the promoted node"
        );
    }

    // A retried request id from before the failover answers from the
    // shipped dedup table instead of double-applying.
    match driver
        .execute_tagged("insert into t values (0, 2)", 200)
        .unwrap()
    {
        Outcome::Message(m) => assert!(m.contains("already applied"), "{m}"),
        other => panic!("expected duplicate message, got {other:?}"),
    }
    assert_eq!(
        count_key(&mut check, 0),
        1,
        "no double-apply across failover"
    );

    // New writes — tagged and untagged — land on the promoted node.
    driver
        .execute_tagged("insert into t values (500, 5)", 500)
        .unwrap();
    driver.execute("insert into t values (501, 5)").unwrap();
    assert_eq!(count_key(&mut check, 500), 1);
    assert_eq!(count_key(&mut check, 501), 1);
    assert!(durable_len(&promoted) > 0);

    replica_srv.shutdown(Duration::from_millis(200));
}

#[test]
fn disarmed_failpoints_change_nothing() {
    let _g = serial();

    let run = |arm_then_disarm: bool| -> u64 {
        faults::reset();
        faults::set_seed(repl_seed());
        if arm_then_disarm {
            for site in [
                "repl.segment.drop",
                "repl.segment.dup",
                "repl.segment.reorder",
                "repl.link.stall",
                "repl.apply.crash",
            ] {
                faults::configure(site, Policy::new(Action::Error, Trigger::Prob(50)));
                faults::off(site);
            }
        }
        let (primary, addr, pdb) = serve_primary();
        let mut conn = connect(&addr).unwrap();
        let replica = attach_replica(&addr);
        for i in 0..25 {
            conn.execute(&format!("insert into t values ({i}, {})", i % 5))
                .unwrap();
        }
        conn.execute_tagged("insert into t values (1000, 0)", 9_000)
            .unwrap();
        wait_converged("differential convergence", &pdb, &replica);
        let fp = fingerprint(&replica.db());
        drop(replica);
        primary.shutdown(Duration::from_millis(200));
        fp
    };

    assert_eq!(
        run(true),
        run(false),
        "disarmed failpoints changed the workload"
    );
}
