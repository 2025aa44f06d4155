//! `repl-semisync`: one remote connection plus one in-process `Replica`.
//! `ledger` is preloaded, the replica bootstraps from a snapshot, then the
//! client sends `execute_tagged` inserts (each waits for the replica's
//! ack), then a burst of untagged inserts, then waits for the replica to
//! drain; primary and replica must end with the same content fingerprint.
//!
//! The only workload where replication (ship loop, ack ping-pong,
//! `wait_for_replica_acks` polling) is on the blocking path; exec and the
//! planner do nothing.

use super::writes::{run_write, verify_writes, WriteLog};
use crate::gen::{self, WriteMix, WriteOp, WriteStream};
use crate::harness::{
    build_db, read, recoveries, report_end_state, timed_setups, Measured, Params, Remote,
    TableSpec, LEDGER_COLS,
};
use crate::layers::{self, counter, Run, WireBytes};
use crate::stats::Samples;
use bq_core::Db;
use bq_repl::{Replica, ReplicaConfig};
use std::sync::RwLock;
use std::thread;
use std::time::{Duration, Instant};

/// `ledger` has no id column; `delta` is unique per row.
const KEY: (usize, &str) = (1, "delta");

/// Start a replica of `remote` and wait until it streams. Returns it with
/// the bootstrap time in seconds.
fn start_replica(remote: &Remote) -> (Replica, f64) {
    let start = Instant::now();
    let replica = Replica::start(ReplicaConfig {
        // How quickly `Replica::stop` is noticed; no effect on acks.
        read_poll: Duration::from_millis(20),
        ..ReplicaConfig::new(remote.addr().to_string())
    });
    while replica.state() != "streaming" {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "replica stuck in state `{}`",
            replica.state()
        );
        thread::sleep(Duration::from_millis(1));
    }
    (replica, start.elapsed().as_secs_f64())
}

/// Wait until the replica has applied everything the primary made
/// durable. Returns the wait in seconds, or `None` after 20 s.
fn drain(primary: &RwLock<Db>, replica: &Replica) -> Option<f64> {
    let start = Instant::now();
    let horizon = read(primary).wal_durable_len();
    while replica.applied() < horizon {
        if start.elapsed() > Duration::from_secs(20) {
            return None;
        }
        thread::sleep(Duration::from_millis(1));
    }
    Some(start.elapsed().as_secs_f64())
}

pub fn run(p: &Params, run: &mut Run) {
    let preload = p.scale.ledger_preload;
    // The traced run attaches its replica later, to time tagged writes
    // with and without one.
    let with_replica = !p.trace;
    let ((remote, replica, mut conn, resident), setups) =
        timed_setups(p.scale.setup_reps, &mut run.pacer, || {
            let rows = gen::ledger_rows(p.seed, 0, preload);
            let ledger = TableSpec {
                name: "ledger",
                cols: LEDGER_COLS,
                rows: &rows,
                index: None,
            };
            let (db, resident) = build_db(&[ledger]);
            let remote = Remote::start(db);
            let replica = with_replica.then(|| start_replica(&remote).0);
            let conn = remote.connect("bq-spine-repl");
            (remote, replica, conn, resident)
        });
    let db = remote.db();
    let timeouts = counter("bq_repl_sync_timeouts_total");
    let mut log = WriteLog::default();
    let mut stream = WriteStream::ledger(p.seed, preload as i64, WriteMix::TaggedOnly);
    let tagged: Vec<WriteOp> = stream
        .by_ref()
        .take(p.scale.repl_tagged_ops as usize)
        .collect();
    let first_burst = preload as i64 + 2 * tagged.len() as i64;
    let burst: Vec<WriteOp> = WriteStream::ledger(p.seed, first_burst, WriteMix::AutoOnly)
        .take(p.scale.repl_burst_ops as usize)
        .collect();

    let mut replica = if let Some(replica) = replica {
        let measured =
            Measured::rounds(&tagged, p.scale.rounds, &mut run.tally, None, |op, lat| {
                run_write(&mut conn, "ledger", op, lat, &mut log)
            });
        measured.report(&mut run.metrics);
        let mut unmeasured = Samples::new();
        for op in &burst {
            let out = run_write(&mut conn, "ledger", op, &mut unmeasured, &mut log);
            run.tally.check(out.is_ok(), || out.unwrap_err());
        }
        replica
    } else {
        traced_phases(run, &remote, &mut conn, &mut log, stream, &tagged, &burst)
    };

    if drain(&db, &replica).is_none() {
        run.tally
            .fail(1, "replica did not drain within 20 s".to_string());
    }
    let timed_out = counter("bq_repl_sync_timeouts_total") - timeouts;
    if timed_out > 0 {
        run.tally.fail(
            timed_out as u64,
            format!("{timed_out} tagged writes outwaited the replica ack"),
        );
    }
    let same = read(&db).content_fingerprint() == read(&replica.db()).content_fingerprint();
    if !same {
        run.tally
            .fail(1, "replica and primary fingerprints differ".to_string());
    }
    if p.trace {
        layers::snapshot_probes(run, &db);
    }
    replica.stop();
    conn.close();
    remote.stop();

    verify_writes(
        &read(&db),
        "ledger",
        KEY,
        preload,
        &log,
        &mut run.tally,
        "before the crash",
    );
    let recovery = recoveries(&db, p.scale.recover_reps, &mut run.tally, &mut run.pacer);
    verify_writes(
        &read(&db),
        "ledger",
        KEY,
        preload,
        &log,
        &mut run.tally,
        "after recovery",
    );
    if !p.trace {
        report_end_state(&mut run.metrics, &setups, resident, &recovery, &db);
    }
}

/// The traced run: tagged writes without a replica, bootstrap, tagged
/// writes with it, then the burst with the lag sampled after every op.
fn traced_phases(
    run: &mut Run,
    remote: &Remote,
    conn: &mut bq_server::Connection,
    log: &mut WriteLog,
    stream: WriteStream,
    tagged: &[WriteOp],
    burst: &[WriteOp],
) -> Replica {
    let db = remote.db();
    layers::connect_probe(run, remote);
    let mut alone = Samples::new();
    for op in stream.take(tagged.len()) {
        let out = run_write(conn, "ledger", &op, &mut alone, log);
        run.tally.check(out.is_ok(), || out.unwrap_err());
    }

    let (replica, bootstrap_s) = start_replica(remote);
    run.metrics.set("bootstrap_s", bootstrap_s, 1);
    let segments = counter("bq_repl_segments_shipped_total");
    let shipped = counter("bq_repl_bytes_shipped_total");
    let bytes = WireBytes::start();
    let acked = layers::trace_overhead(run, tagged, |op, lat| {
        run_write(conn, "ledger", op, lat, log)
    });
    bytes.finish(&mut run.metrics, tagged.len() as u64);
    run.metrics.set(
        "repl.ack_wait_us",
        acked.p50_us() - alone.p50_us(),
        acked.len() as u64,
    );

    let mut lag = Vec::with_capacity(burst.len());
    let mut unmeasured = Samples::new();
    let start = Instant::now();
    for op in burst {
        let out = run_write(conn, "ledger", op, &mut unmeasured, log);
        run.tally.check(out.is_ok(), || out.unwrap_err());
        lag.push(
            read(&db)
                .wal_durable_len()
                .saturating_sub(replica.applied()),
        );
    }
    let burst_s = start.elapsed().as_secs_f64();
    let drained = drain(&db, &replica);
    lag.sort_unstable();
    let p95 = lag[(lag.len() * 95 / 100).min(lag.len().saturating_sub(1))];
    let n = burst.len() as u64;
    let commits = (tagged.len() + burst.len()) as f64;
    let m = &mut run.metrics;
    m.set("repl.async_burst_ops_s", n as f64 / burst_s, n);
    m.set("repl.drain_ms", drained.unwrap_or(20.0) * 1e3, 1);
    m.set("repl.lag_bytes_p95", p95 as f64, n);
    m.set(
        "repl.segments_per_commit",
        (counter("bq_repl_segments_shipped_total") - segments) as f64 / commits,
        commits as u64,
    );
    m.set(
        "repl.bytes_shipped_per_row",
        (counter("bq_repl_bytes_shipped_total") - shipped) as f64 / commits,
        commits as u64,
    );
    replica
}
