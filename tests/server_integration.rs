//! bq-server integration: the acceptance suite for the TCP front-end.
//!
//! Everything here runs over real loopback sockets against a real
//! listener. The load-bearing assertions, per the roadmap:
//!
//! * **Handshake** — version negotiation succeeds on a match and refuses
//!   a mismatch with a typed `Protocol` error.
//! * **Sessions** — prepared statements, per-session limits, and
//!   interactive transactions are session-scoped, not process-scoped.
//! * **KILL** — a client can list running queries and cancel one
//!   mid-flight from another connection; the victim gets `Cancelled`.
//! * **Shedding** — with connection slots exhausted, a seeded connection
//!   storm is answered with typed `Overloaded` frames, and capacity
//!   returns once a slot frees.
//! * **Fuzz** — truncated, oversized, and garbage frames never panic the
//!   server; it keeps serving fresh clients afterwards.
//! * **Durability** — graceful shutdown never loses an acknowledged
//!   write.
//! * **Differential** — the embedded and remote drivers agree, and the
//!   network failpoints, disarmed, change nothing (fingerprints match).
//!
//! Pin the storm/fuzz schedules with `BQ_SERVER_SEED=<n>`.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::Duration;

use big_queries::bq_faults::{self as faults, Action, Policy, Trigger};
use big_queries::bq_server::wire::{
    self, ErrorCode, Request, Response, MAX_FRAME, PROTOCOL_VERSION,
};
use big_queries::bq_server::{DriverError, RunningQuery};
use big_queries::bq_util::{Rng, SplitMix64};
use big_queries::prelude::*;

/// The failpoint registry is process-global, and an armed `server.*`
/// site fires in whichever server reads a frame next. Tests that arm
/// failpoints hold this exclusively ([`serial`], mirroring
/// `crash_torture.rs` and `governor_integration.rs`); every other test
/// holds it shared ([`unarmed`]), so none of its sessions can swallow a
/// fault meant for another test's server.
static SERIAL: RwLock<()> = RwLock::new(());

fn serial() -> RwLockWriteGuard<'static, ()> {
    let g = SERIAL.write().unwrap_or_else(|e| e.into_inner());
    faults::reset();
    g
}

fn unarmed() -> RwLockReadGuard<'static, ()> {
    SERIAL.read().unwrap_or_else(|e| e.into_inner())
}

/// Seed for the storm and fuzz schedules; override with `BQ_SERVER_SEED=<n>`.
fn server_seed() -> u64 {
    std::env::var("BQ_SERVER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_808)
}

/// `n` rows of `(i, i % 7)` in table `t`, plus `m` rows in `u`.
fn numbers_db(n: i64, m: i64) -> Db {
    let mut db = Db::new();
    db.create_table("t", &[("a", Type::Int), ("b", Type::Int)])
        .unwrap();
    db.create_table("u", &[("c", Type::Int), ("d", Type::Int)])
        .unwrap();
    for i in 0..n {
        db.insert("t", vec![Value::Int(i), Value::Int(i % 7)])
            .unwrap();
    }
    for i in 0..m {
        db.insert("u", vec![Value::Int(i), Value::Int(i * i)])
            .unwrap();
    }
    db
}

fn serve_numbers(n: i64, m: i64, config: ServerConfig) -> (Server, String) {
    let server = serve(Arc::new(RwLock::new(numbers_db(n, m))), config).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn rows(out: Outcome) -> Relation {
    match out {
        Outcome::Rows(rel) => rel,
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn handshake_statements_and_prepared_roundtrip() {
    let _g = unarmed();
    let (server, addr) = serve_numbers(5, 3, ServerConfig::default());
    let mut conn = connect(&addr).unwrap();
    assert_eq!(conn.backend(), "remote");
    assert!(conn.session() > 0);

    // DDL + DML + select over the wire.
    conn.execute("create table emp (name str, sal int)")
        .unwrap();
    conn.execute("insert into emp values ('ann', 90)").unwrap();
    conn.execute("insert into emp values ('bob', 70)").unwrap();
    let rel = rows(
        conn.execute("select e.name from emp e where e.sal > 80")
            .unwrap(),
    );
    assert_eq!(rel.len(), 1);

    // Prepared statements skip reparsing and honour ids per session.
    let id = conn.prepare("select e.sal from emp e").unwrap();
    assert_eq!(rows(conn.execute_prepared(id).unwrap()).len(), 2);
    let err = conn.execute_prepared(id + 99).unwrap_err();
    assert_eq!(err.code, ErrorCode::NoSuchStatement);
    let err = conn.prepare("insert into emp values ('x', 1)").unwrap_err();
    assert_eq!(err.code, ErrorCode::Unsupported);

    // A second session does not see the first session's statement table.
    let mut other = connect(&addr).unwrap();
    assert_eq!(
        other.execute_prepared(id).unwrap_err().code,
        ErrorCode::NoSuchStatement
    );

    // Interactive transactions are session-scoped and roll back on close.
    conn.execute("begin").unwrap();
    conn.execute("insert into emp values ('cat', 50)").unwrap();
    conn.execute("rollback").unwrap();
    assert_eq!(
        rows(conn.execute("select e.name from emp e").unwrap()).len(),
        2
    );
    assert_eq!(
        conn.execute("commit").unwrap_err().code,
        ErrorCode::TxnState
    );

    // Typed engine errors keep the session usable. (A select from a
    // missing table is a relational bind error, hence `Query`.)
    assert_eq!(
        conn.execute("select z.x from zilch z").unwrap_err().code,
        ErrorCode::Query
    );
    assert_eq!(
        conn.execute("create table emp (a int)").unwrap_err().code,
        ErrorCode::TableExists
    );
    assert_eq!(
        rows(conn.execute("select e.name from emp e").unwrap()).len(),
        2
    );

    conn.close();
    other.close();
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn version_mismatch_is_refused_with_a_typed_error() {
    let _g = unarmed();
    let (server, addr) = serve_numbers(1, 1, ServerConfig::default());

    let mut raw = TcpStream::connect(&addr).unwrap();
    let hello = Request::Hello {
        version: PROTOCOL_VERSION + 1,
        client: "time-traveller".into(),
    };
    wire::write_frame(&mut raw, &hello.encode()).unwrap();
    let body = wire::read_frame(&mut raw).unwrap();
    match Response::decode(&body).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Protocol);
            assert!(message.contains("version"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }

    // A first frame that is not Hello is refused the same way.
    let mut raw = TcpStream::connect(&addr).unwrap();
    wire::write_frame(&mut raw, &Request::ListQueries.encode()).unwrap();
    let body = wire::read_frame(&mut raw).unwrap();
    assert!(matches!(
        Response::decode(&body).unwrap(),
        Response::Error {
            code: ErrorCode::Protocol,
            ..
        }
    ));

    // The well-behaved client still gets in.
    connect(&addr).unwrap().close();
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn per_session_limits_bind_only_their_session() {
    let _g = unarmed();
    let (server, addr) = serve_numbers(120, 120, ServerConfig::default());
    let mut starved = connect(&addr).unwrap();
    let mut free = connect(&addr).unwrap();

    starved
        .set_limits(SessionLimits {
            memory_bytes: Some(1 << 10),
            deadline_ms: None,
            max_iterations: None,
        })
        .unwrap();

    // The starved session's cross product is refused with a typed error…
    let err = starved
        .execute("select e.a, f.c from t e, u f")
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::MemoryExceeded, "{err}");
    // …while the unlimited session materialises the same query fine.
    let rel = rows(free.execute("select e.a, f.c from t e, u f").unwrap());
    assert_eq!(rel.len(), 120 * 120);

    // An exhausted deadline is equally typed, and lifting the limits heals
    // the session in place.
    starved
        .set_limits(SessionLimits {
            memory_bytes: None,
            deadline_ms: Some(0),
            max_iterations: None,
        })
        .unwrap();
    let err = starved
        .execute("select e.a, f.c from t e, u f")
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::DeadlineExceeded, "{err}");
    starved.set_limits(SessionLimits::default()).unwrap();
    assert_eq!(
        rows(starved.execute("select e.a from t e").unwrap()).len(),
        120
    );

    starved.close();
    free.close();
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn kill_cancels_a_running_query_from_another_session() {
    let _g = unarmed();
    // Big enough that the parallel cross product runs for a while; the
    // governor checks at morsel boundaries make the kill bite quickly.
    let (server, addr) = serve_numbers(1200, 1200, ServerConfig::default());
    let mut victim = connect(&addr).unwrap();
    let mut killer = connect(&addr).unwrap();
    let victim_session = victim.session();

    let runner = thread::spawn(move || {
        let out = victim.execute("select e.a, f.c from t e, u f");
        (victim, out)
    });

    // Poll the running-query registry until the victim's statement shows.
    let mut target: Option<RunningQuery> = None;
    for _ in 0..2000 {
        let running = killer.running().unwrap();
        if let Some(q) = running.into_iter().find(|q| q.session == victim_session) {
            target = Some(q);
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    let target = target.expect("victim query never appeared in .queries");
    assert!(target.sql.contains("select"), "{target:?}");

    assert!(killer.kill(target.query).unwrap(), "kill lost the race");
    let (mut victim, out) = runner.join().unwrap();
    let err = out.expect_err("query survived its kill");
    assert_eq!(err.code, ErrorCode::Cancelled, "{err}");

    // The registry forgets finished queries, and both sessions live on.
    assert!(!killer.kill(target.query).unwrap());
    assert!(killer.running().unwrap().is_empty());
    assert_eq!(
        rows(victim.execute("select e.a from t e where e.a = 7").unwrap()).len(),
        1
    );

    victim.close();
    killer.close();
    server.shutdown(Duration::from_secs(2));
}

/// One trace id everywhere: a statement's `Done`-frame id joins
/// `bq.slow_log` (with its per-operator plan) by plain SQL; under a
/// seeded pair of concurrent long-running sessions, the ids `bq.queries`
/// reports are exactly the registry ids `Kill` accepts; and
/// `bq.sessions` shows the live connection with its peer address.
#[test]
fn trace_ids_join_frames_catalog_and_kill() {
    let _g = unarmed();
    let (server, addr) = serve_numbers(1200, 1200, ServerConfig::default());
    let mut conn = connect(&addr).unwrap();

    // -- Done frame → bq.slow_log, one SQL query away. --
    let marker = "select e.a from t e where e.a = 7";
    assert_eq!(rows(conn.execute(marker).unwrap()).len(), 1);
    let qid = conn.last_query_id();
    let hit = rows(
        conn.execute(&format!(
            "select s.sql, s.rows, s.plan from bq.slow_log s where s.query = {qid}"
        ))
        .unwrap(),
    );
    assert_eq!(hit.len(), 1, "Done-frame id {qid} not in bq.slow_log");
    let entry = hit.iter().next().unwrap();
    assert_eq!(entry.get(0), &Value::str(marker));
    assert_eq!(entry.get(1), &Value::Int(1));
    let Value::Str(plan) = entry.get(2) else {
        panic!("plan column is not text: {entry:?}");
    };
    assert!(plan.contains("SeqScan [t]"), "{plan}");
    assert!(plan.contains("time="), "{plan}");

    // -- bq.sessions sees this connection. --
    let sess = rows(
        conn.execute(&format!(
            "select s.peer, s.txn from bq.sessions s where s.session = {}",
            conn.session()
        ))
        .unwrap(),
    );
    assert_eq!(sess.len(), 1, "this session missing from bq.sessions");
    let srow = sess.iter().next().unwrap();
    let Value::Str(peer) = srow.get(0) else {
        panic!("peer column is not text: {srow:?}");
    };
    assert!(peer.contains("127.0.0.1"), "{peer}");
    assert_eq!(srow.get(1), &Value::Bool(false));

    // -- Seeded concurrency: catalog ids are KILL-able ids. --
    let mut rng = SplitMix64::seed_from_u64(server_seed() ^ 0xca7a);
    let mut victims = Vec::new();
    let mut victim_sessions = Vec::new();
    for _ in 0..2 {
        let mut v = connect(&addr).unwrap();
        victim_sessions.push(v.session());
        victims.push(thread::spawn(move || {
            let out = v.execute("select e.a, f.c from t e, u f");
            (v, out)
        }));
    }
    // Await both victims in bq.queries — through SQL, not the wire
    // registry, so this proves the catalog path end to end.
    let mut catalog_ids = Vec::new();
    for &vs in &victim_sessions {
        let mut found = None;
        for _ in 0..2000 {
            let rel = rows(
                conn.execute(&format!(
                    "select q.query from bq.queries q where q.session = {vs}"
                ))
                .unwrap(),
            );
            if let Some(t) = rel.iter().next() {
                let Value::Int(id) = t.get(0) else {
                    panic!("query column is not an int: {t:?}");
                };
                found = Some(*id as u64);
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        catalog_ids.push(found.expect("victim never appeared in bq.queries"));
    }
    // The catalog agrees with the wire-level registry snapshot...
    let running = conn.running().unwrap();
    for (&vs, &cid) in victim_sessions.iter().zip(&catalog_ids) {
        let reg = running
            .iter()
            .find(|q| q.session == vs)
            .expect("registry lost a victim");
        assert_eq!(
            reg.query, cid,
            "bq.queries id differs from the KILL registry"
        );
    }
    // ...and the seeded kill order takes both down through those ids.
    if rng.next_u64() % 2 == 1 {
        catalog_ids.reverse();
        victims.reverse();
    }
    for (cid, handle) in catalog_ids.into_iter().zip(victims) {
        assert!(
            conn.kill(cid).unwrap(),
            "catalog id {cid} was not KILL-able"
        );
        let (v, out) = handle.join().unwrap();
        assert_eq!(out.unwrap_err().code, ErrorCode::Cancelled);
        v.close();
    }

    conn.close();
    server.shutdown(Duration::from_secs(2));
}

/// `bq.sessions` is re-published only when a frame changed the row, so
/// every change a frame can make must show: mode, limits, and both
/// transaction boundaries.
#[test]
fn bq_sessions_follows_mode_limits_and_transactions() {
    let _g = unarmed();
    let (server, addr) = serve_numbers(3, 1, ServerConfig::default());
    let mut conn = connect(&addr).unwrap();
    let sql = format!(
        "select s.mode, s.limits, s.txn from bq.sessions s where s.session = {}",
        conn.session()
    );
    let row = |conn: &mut Connection| -> (Value, Value, Value) {
        let rel = rows(conn.execute(&sql).unwrap());
        let t = rel.iter().next().expect("session missing from bq.sessions");
        (t.get(0).clone(), t.get(1).clone(), t.get(2).clone())
    };
    assert_eq!(
        row(&mut conn),
        (Value::str("engine"), Value::str("none"), Value::Bool(false))
    );
    conn.set_mode(ExecMode::Sequential).unwrap();
    conn.set_limits(SessionLimits {
        deadline_ms: Some(5_000),
        ..SessionLimits::default()
    })
    .unwrap();
    conn.execute("begin").unwrap();
    assert_eq!(
        row(&mut conn),
        (
            Value::str(ExecMode::Sequential.to_string()),
            Value::str("deadline=5000ms"),
            Value::Bool(true)
        )
    );
    conn.execute("rollback").unwrap();
    assert_eq!(row(&mut conn).2, Value::Bool(false));

    conn.close();
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn admission_sheds_a_connection_storm_with_typed_overloaded() {
    let _g = unarmed();
    let (server, addr) = serve_numbers(
        4,
        4,
        ServerConfig {
            max_conns: 2,
            ..ServerConfig::default()
        },
    );

    // Fill both slots with live sessions.
    let mut held_a = connect(&addr).unwrap();
    let held_b = connect(&addr).unwrap();
    assert_eq!(
        rows(held_a.execute("select e.a from t e").unwrap()).len(),
        4
    );

    // A seeded storm of dials: every one must get a typed refusal, never a
    // hang or a bare hangup.
    let mut rng = SplitMix64::seed_from_u64(server_seed());
    let mut shed = 0;
    for _ in 0..16 {
        let err = match connect(&addr) {
            Ok(_) => panic!("admitted past max_conns"),
            Err(e) => e,
        };
        assert_eq!(err.code, ErrorCode::Overloaded, "{err}");
        shed += 1;
        thread::sleep(Duration::from_millis(rng.next_u64() % 3));
    }
    assert_eq!(shed, 16);
    // The held sessions rode out the storm untouched.
    assert_eq!(
        rows(held_a.execute("select e.a from t e").unwrap()).len(),
        4
    );

    // Freeing one slot restores capacity (the permit releases when the
    // handler thread winds down, so poll briefly).
    held_b.close();
    let mut readmitted = None;
    for _ in 0..2000 {
        match connect(&addr) {
            Ok(conn) => {
                readmitted = Some(conn);
                break;
            }
            Err(e) => {
                assert_eq!(e.code, ErrorCode::Overloaded, "{e}");
                thread::sleep(Duration::from_millis(1));
            }
        }
    }
    let mut readmitted = readmitted.expect("slot never came back after close");
    assert_eq!(
        rows(readmitted.execute("select e.a from t e").unwrap()).len(),
        4
    );

    readmitted.close();
    held_a.close();
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn protocol_fuzz_never_panics_the_server() {
    let _g = unarmed();
    let (server, addr) = serve_numbers(3, 3, ServerConfig::default());

    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        client: "fuzzer".into(),
    }
    .encode();

    // Deterministic nasty frames: empty, oversized, truncated, bad opcode,
    // trailing garbage after a valid opcode.
    let cases: Vec<Vec<u8>> = vec![
        0u32.to_le_bytes().to_vec(),
        ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec(),
        {
            let mut v = 100u32.to_le_bytes().to_vec();
            v.extend_from_slice(b"short");
            v
        },
        {
            let mut v = 2u32.to_le_bytes().to_vec();
            v.extend_from_slice(&[0x7f, 0x00]);
            v
        },
        {
            let mut v = 5u32.to_le_bytes().to_vec();
            v.extend_from_slice(&[0x02, 0xff, 0xff, 0xff, 0xff]); // Query with absurd string length
            v
        },
        {
            let mut v = 5u32.to_le_bytes().to_vec();
            v.extend_from_slice(&[0x0a, 0xff, 0xff, 0xff, 0xff]); // QueryTagged with absurd string length
            v
        },
        {
            let mut v = 4u32.to_le_bytes().to_vec();
            v.extend_from_slice(&[0x0b, 0x01, 0x02, 0x03]); // truncated Subscribe offset
            v
        },
        {
            let mut v = 10u32.to_le_bytes().to_vec();
            v.extend_from_slice(&[0x0c, 0, 0, 0, 0, 0, 0, 0, 0, 0xee]); // ReplAck with trailing garbage
            v
        },
        {
            // ReplAck without a Subscribe: well-formed but out of place;
            // dispatch must answer a typed Protocol error, not wedge.
            let mut v = 9u32.to_le_bytes().to_vec();
            v.extend_from_slice(&[0x0c, 1, 0, 0, 0, 0, 0, 0, 0]);
            v
        },
    ];
    for (i, case) in cases.iter().enumerate() {
        // Straight onto a fresh connection (pre-handshake)…
        let mut raw = TcpStream::connect(&addr).unwrap();
        use std::io::Write as _;
        raw.write_all(case).unwrap();
        drop(raw);
        // …and after a valid handshake.
        let mut raw = TcpStream::connect(&addr).unwrap();
        wire::write_frame(&mut raw, &hello).unwrap();
        let _ = wire::read_frame(&mut raw).unwrap();
        raw.write_all(case).unwrap();
        drop(raw);
        // The server is still alive and correct after each case.
        let mut probe =
            connect(&addr).unwrap_or_else(|e| panic!("case {i} wedged the server: {e}"));
        assert_eq!(rows(probe.execute("select e.a from t e").unwrap()).len(), 3);
        probe.close();
    }

    // Seeded random blobs, framed with their real length so the server
    // must reject them on content, not on the length prefix.
    let mut rng = SplitMix64::seed_from_u64(server_seed() ^ 0xf00d);
    for round in 0..32 {
        let len = 1 + (rng.next_u64() % 48) as usize;
        let blob: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let _ = wire::write_frame(&mut raw, &blob);
        let _ = wire::read_frame(&mut raw); // typed refusal or EOF, either is fine
        drop(raw);
        if round % 8 == 7 {
            let mut probe = connect(&addr).unwrap();
            assert_eq!(rows(probe.execute("select e.a from t e").unwrap()).len(), 3);
            probe.close();
        }
    }

    // A replication subscriber that answers segments with garbage
    // instead of ReplAck: the stream decode-or-refuses, never panics,
    // and the listener keeps serving honest clients afterwards.
    for round in 0..8 {
        let mut raw = TcpStream::connect(&addr).unwrap();
        wire::write_frame(&mut raw, &hello).unwrap();
        let _ = wire::read_frame(&mut raw).unwrap();
        // Bootstrap subscription: the snapshot frame arrives first.
        wire::write_frame(
            &mut raw,
            &Request::Subscribe {
                start: wire::SUBSCRIBE_BOOTSTRAP,
            }
            .encode(),
        )
        .unwrap();
        let snap = wire::read_frame(&mut raw).unwrap();
        assert!(matches!(
            Response::decode(&snap).unwrap(),
            Response::Snapshot { .. }
        ));
        // Provoke a segment, then answer it with seeded garbage.
        let mut writer = connect(&addr).unwrap();
        writer
            .execute(&format!("insert into t values ({}, 0)", 100 + round))
            .unwrap();
        writer.close();
        let _ = wire::read_frame(&mut raw).unwrap(); // the WalSegment
        let len = 1 + (rng.next_u64() % 24) as usize;
        let blob: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        let _ = wire::write_frame(&mut raw, &blob);
        let _ = wire::read_frame(&mut raw); // typed refusal or EOF, either is fine
        drop(raw);
        let mut probe = connect(&addr).unwrap();
        assert!(!rows(probe.execute("select e.a from t e").unwrap()).is_empty());
        probe.close();
    }

    server.shutdown(Duration::from_secs(2));
}

#[test]
fn graceful_shutdown_keeps_every_acknowledged_write() {
    let _g = unarmed();
    let db = Arc::new(RwLock::new(Db::new()));
    db.write()
        .unwrap()
        .create_table("w", &[("writer", Type::Int), ("seq", Type::Int)])
        .unwrap();
    let server = serve(Arc::clone(&db), ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let acked = Arc::new(AtomicU64::new(0));
    let mut writers = Vec::new();
    for w in 0..3i64 {
        let addr = addr.clone();
        let acked = Arc::clone(&acked);
        writers.push(thread::spawn(move || {
            let mut conn = match connect(&addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            for seq in 0..10_000i64 {
                match conn.execute(&format!("insert into w values ({w}, {seq})")) {
                    // The server acknowledged: the write is durably applied.
                    // relaxed: independent event counter, read after join.
                    Ok(_) => {
                        acked.fetch_add(1, Ordering::Relaxed);
                    }
                    // Shutdown reached us mid-stream; stop writing.
                    Err(_) => return,
                }
            }
        }));
    }

    // Let the writers get going, then pull the plug mid-stream.
    thread::sleep(Duration::from_millis(150));
    server.shutdown(Duration::from_secs(5));
    for t in writers {
        t.join().unwrap();
    }

    // relaxed: read after every writer thread has been joined.
    let acked = acked.load(Ordering::Relaxed);
    assert!(acked > 0, "shutdown raced ahead of every writer");
    let present = db.read().unwrap().row_count("w").unwrap() as u64;
    // At-least-once: every acknowledged row must be present. Rows applied
    // whose ack was cut off by the drain may add to the count, never
    // subtract.
    assert!(
        present >= acked,
        "lost committed writes: {present} rows present < {acked} acked"
    );

    // The listener really is down.
    assert!(connect(&addr).is_err());
}

/// Run one canonical workload through any driver and fingerprint
/// everything observable about it.
fn workload_fingerprint(driver: &mut dyn Driver) -> String {
    let mut fp = String::new();
    let mut record = |tag: &str, r: Result<Outcome, DriverError>| {
        match r {
            Ok(Outcome::Rows(rel)) => {
                fp.push_str(&format!("{tag}: {}\n", rel.schema()));
                let mut lines: Vec<String> = rel.iter().map(|t| format!("  {t}")).collect();
                lines.sort();
                for l in lines {
                    fp.push_str(&l);
                    fp.push('\n');
                }
            }
            Ok(Outcome::Message(m)) => fp.push_str(&format!("{tag}: {m}\n")),
            Err(e) => fp.push_str(&format!("{tag}: error [{}]\n", e.code)),
        };
    };
    record(
        "create",
        driver.execute("create table emp (name str, dept str, sal int)"),
    );
    record(
        "i1",
        driver.execute("insert into emp values ('ann', 'cs', 90)"),
    );
    record(
        "i2",
        driver.execute("insert into emp values ('bob', 'ee', 70)"),
    );
    record(
        "i3",
        driver.execute("insert into emp values ('cat', 'cs', 80)"),
    );
    record(
        "q1",
        driver.execute("select e.name from emp e where e.sal > 75"),
    );
    record(
        "q2",
        driver.execute("select e.dept from emp e where e.name = 'bob'"),
    );
    record("dup", driver.execute("create table emp (a int)"));
    record("bad", driver.execute("select z.z from zilch z"));
    record("txn-open", driver.execute("begin"));
    record(
        "txn-ins",
        driver.execute("insert into emp values ('dan', 'me', 60)"),
    );
    record("txn-undo", driver.execute("rollback"));
    record("q3", driver.execute("select e.name from emp e"));
    let prepared = driver.prepare("select e.sal from emp e where e.dept = 'cs'");
    match prepared {
        Ok(id) => record("prep-exec", driver.execute_prepared(id)),
        Err(e) => fp.push_str(&format!("prep: error [{}]\n", e.code)),
    }
    fp
}

#[test]
fn embedded_and_remote_drivers_agree() {
    let _g = unarmed();
    let mut embedded = EmbeddedDriver::default();
    let local = workload_fingerprint(&mut embedded);

    let (server, addr) = serve_numbers(0, 0, ServerConfig::default());
    let mut remote = connect(&addr).unwrap();
    let wired = workload_fingerprint(&mut remote);
    remote.close();
    server.shutdown(Duration::from_secs(2));

    assert_eq!(local, wired, "embedded and remote drivers disagree");
}

/// A reply leaves the server in one socket write, however many frames it
/// holds; a large one streams in writes of at least a buffer each.
/// (Exclusive: the socket-write counter is process-global.)
#[test]
fn a_reply_is_one_socket_write() {
    let _g = serial();
    let (server, addr) = serve_numbers(5_000, 1, ServerConfig::default());
    let mut conn = connect(&addr).unwrap();
    let metric = |name: &str| bq_obs::global().snapshot().get(name);

    let writes = metric("bq_server_socket_writes_total");
    let point = rows(conn.execute("select e.b from t e where e.a = 7").unwrap());
    assert_eq!(point.len(), 1);
    assert_eq!(metric("bq_server_socket_writes_total") - writes, 1);

    let (writes, bytes) = (
        metric("bq_server_socket_writes_total"),
        metric("bq_server_bytes_out_total"),
    );
    let export = rows(conn.execute("select e.a, e.b from t e").unwrap());
    assert_eq!(export.len(), 5_000);
    let writes = metric("bq_server_socket_writes_total") - writes;
    let bytes = metric("bq_server_bytes_out_total") - bytes;
    assert!(bytes as usize > wire::FRAME_BUF, "{bytes} bytes");
    assert!(
        writes as usize <= bytes as usize / wire::FRAME_BUF + 1,
        "{writes} writes for {bytes} bytes"
    );

    conn.close();
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn disarmed_network_failpoints_change_nothing() {
    let _g = serial();

    // Baseline: no failpoint machinery touched.
    let (server, addr) = serve_numbers(0, 0, ServerConfig::default());
    let mut conn = connect(&addr).unwrap();
    let baseline = workload_fingerprint(&mut conn);
    conn.close();
    server.shutdown(Duration::from_secs(2));

    // Same workload with every server site armed and then disarmed, plus a
    // seeded (but never-firing) registry: the fingerprint must not move.
    faults::set_seed(server_seed());
    for site in [
        "server.conn.drop",
        "server.read.partial",
        "server.write.partial",
    ] {
        faults::configure(site, Policy::new(Action::Error, Trigger::Always));
        faults::off(site);
    }
    let (server, addr) = serve_numbers(0, 0, ServerConfig::default());
    let mut conn = connect(&addr).unwrap();
    let disarmed = workload_fingerprint(&mut conn);
    conn.close();
    server.shutdown(Duration::from_secs(2));
    faults::reset();

    assert_eq!(
        baseline, disarmed,
        "disarmed failpoints perturbed the server"
    );
}

#[test]
fn armed_network_failpoints_break_one_session_not_the_server() {
    let _g = serial();
    let (server, addr) = serve_numbers(3, 3, ServerConfig::default());

    for site in [
        "server.conn.drop",
        "server.read.partial",
        "server.write.partial",
    ] {
        // A healthy session first, so the armed site hits an established
        // connection's next frame, not the handshake.
        let mut doomed = connect(&addr).unwrap();
        assert_eq!(
            rows(doomed.execute("select e.a from t e").unwrap()).len(),
            3
        );

        faults::configure(site, Policy::new(Action::Error, Trigger::Nth(1)));
        // The injected fault surfaces as a transport-or-protocol failure on
        // this session — the exact shape depends on the site, and the
        // session thread may already be blocked past the read-side
        // checkpoint when we arm, so the fault can land one frame later.
        let mut failure = None;
        for _ in 0..3 {
            match doomed.execute("select e.a from t e") {
                Ok(_) => continue,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        let err = failure.unwrap_or_else(|| panic!("site {site} never fired"));
        assert!(
            matches!(err.code, ErrorCode::Io | ErrorCode::Protocol),
            "site {site}: unexpected failure shape {err}"
        );
        faults::off(site);

        // The server survives and fresh sessions are unaffected.
        let mut probe = connect(&addr).unwrap();
        assert_eq!(rows(probe.execute("select e.a from t e").unwrap()).len(), 3);
        probe.close();
    }

    faults::reset();
    server.shutdown(Duration::from_secs(2));
}
