//! The benchmark's catalogue: every workload and every metric it may emit,
//! with unit, direction and bound. `bench list` prints it, the result
//! writer refuses names that are not in it, and `tests/schema.rs` checks
//! that `BENCHMARK.json` says the same thing.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`). Fixed op
/// counts are sized per second of this budget.
pub const RUN_SECONDS: u64 = 8;

/// Seed used when `--seed` is not given; recorded in every result file.
pub const DEFAULT_SEED: u64 = 1995;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// Names are final: later issues cite them.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "point-read",
        why: "remote point and small-range selects: parse/optimize, full scans and per-statement wire/server cost do all the work, storage and repl none; an index access path must show here",
    },
    WorkloadSpec {
        name: "analytic-join",
        why: "remote joins, set operations and a whole-table export under sequential exec: operators dominate and per-statement cost is negligible, the mirror image of point-read",
    },
    WorkloadSpec {
        name: "write-heavy",
        why: "remote autocommit, tagged and multi-row transactional inserts: core insert path, heap first-fit, WAL sync and index upkeep do the work, exec none; ends in crash recovery",
    },
    WorkloadSpec {
        name: "mixed-rw",
        why: "two connections for a fixed time, one inserting and one reading, on the single engine RwLock: a gain on one side bought with lock hold time on the other shows only here",
    },
    WorkloadSpec {
        name: "repl-semisync",
        why: "tagged inserts acknowledged by one in-process replica, then an async burst and drain: the only workload with the ship loop and ack wait on the blocking path",
    },
    WorkloadSpec {
        name: "ops-recovery",
        why: "embedded operator path: full and incremental backup, restore and crash recovery between insert batches, each checked by fingerprint; where space metrics repeat exactly",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
    /// A count that repeats bit for bit on fixed-count workloads.
    pub exact: bool,
    /// Workloads that measure it ("all", or names); 0 elsewhere.
    pub on: &'static str,
    /// What is measured, or which public call the timer sits around.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
        on: "all",
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static str,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        on,
        what,
    }
}

const fn exact(mut m: MetricSpec) -> MetricSpec {
    m.exact = true;
    m
}

use Better::{Higher, Lower};

/// What a user or operator sees; measured with tracing off, reported by
/// every workload, never 0.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25, "data generation + embedded preload + serve/connect (+ replica bootstrap), median of the set-up repetitions"),
    e2e("throughput_ops_s", "ops/s", Higher, 0.20, "completed ops / busy time, median over the rounds of the measured phase (a 5-insert transaction is one op); oracle-normalized on point-read and analytic-join"),
    e2e("latency_p50_us", "us", Lower, 0.20, "median client-side latency over all ops of the measured phase; oracle-normalized on point-read and analytic-join"),
    e2e("latency_p95_us", "us", Lower, 0.25, "95th percentile client-side latency over all ops (at least 10 samples beyond it)"),
    e2e("recovery_s", "s", Lower, 0.15, "Db::simulate_crash_and_recover wall time on the workload's end state, oracle-normalized, median of repetitions"),
    exact(e2e("stored_bytes_per_user_byte", "ratio", Lower, 0.02, "(wal_durable_len + page_count * PAGE_SIZE) / sum of codec::encode(tuple).len() at the end of the run")),
    exact(e2e("resident_bytes_per_row", "B/row", Lower, 0.02, "live heap bytes the preloaded Db holds / rows, from the counting allocator, single-threaded")),
];

/// Single-layer numbers from the traced run. Timed from outside, around
/// public functions; counts from `bq_obs` registry deltas and `ExecStats`.
pub const PER_LAYER: &[MetricSpec] = &[
    // End-to-end in nature but defined on one workload only, so they
    // cannot sit in END_TO_END (every workload must report those).
    layer("read_p50_us", "us", Lower, "mixed-rw", "reader connection's median latency"),
    layer("read_p95_us", "us", Lower, "mixed-rw", "reader connection's 95th percentile latency"),
    layer("write_p50_us", "us", Lower, "mixed-rw", "writer connection's median latency"),
    layer("write_p95_us", "us", Lower, "mixed-rw", "writer connection's 95th percentile latency"),
    layer("bootstrap_s", "s", Lower, "repl-semisync", "Replica::start until state() == streaming"),
    layer("restore_s", "s", Lower, "ops-recovery", "median BackupEngine::restore_latest over the rounds"),
    layer("backup_mb_s", "MB/s", Higher, "ops-recovery", "archived bytes / time over all full and incremental backups"),
    layer("failed_ops_share", "ratio", Lower, "all", "failed / attempted of the traced run; expected 0"),
    // wire
    layer("wire.request_encode_ns", "ns", Lower, "point-read analytic-join write-heavy", "Request::encode"),
    layer("wire.request_decode_ns", "ns", Lower, "point-read analytic-join write-heavy", "Request::decode"),
    layer("wire.rows_encode_us_per_krow", "us/krow", Lower, "point-read analytic-join", "Response::RowSchema + Response::Rows encode, per 1000 rows"),
    layer("wire.rows_decode_us_per_krow", "us/krow", Lower, "point-read analytic-join", "Response::decode + schema_from_cols + Relation::from_tuples, per 1000 rows"),
    exact(layer("wire.bytes_per_row", "B/row", Lower, "point-read analytic-join", "encoded Rows frame bytes / rows")),
    // server
    layer("server.parse_statement_ns", "ns", Lower, "point-read analytic-join write-heavy", "parse_statement"),
    layer("server.session_run_us", "us", Lower, "point-read analytic-join write-heavy", "EmbeddedDriver::execute p50 (same SessionCore::run, no socket)"),
    layer("server.remote_p50_us", "us", Lower, "point-read analytic-join write-heavy", "Connection::execute p50 on the replayed sample"),
    layer("server.remote_overhead_us", "us", Lower, "point-read analytic-join write-heavy", "remote p50 - embedded p50, same statements"),
    layer("server.unattributed_us", "us", Lower, "point-read analytic-join write-heavy", "remote p50 - sum of median stage self times: what outside-in timing cannot split"),
    layer("server.connect_us", "us", Lower, "all remote", "connect + handshake, median"),
    layer("server.bytes_in_per_op", "B/op", Lower, "all remote", "bq_server_bytes_in_total delta / ops"),
    layer("server.bytes_out_per_op", "B/op", Lower, "all remote", "bq_server_bytes_out_total delta / ops"),
    // relational
    layer("relational.parse_us", "us", Lower, "point-read analytic-join", "sqlish::parse"),
    layer("relational.optimize_us", "us", Lower, "point-read analytic-join", "algebra::optimize"),
    layer("relational.prepared_saving_us", "us", Higher, "point-read", "remote unprepared p50 - prepared p50, same statement"),
    // exec
    layer("exec.lower_us", "us", Lower, "point-read analytic-join", "bq_exec::lower"),
    layer("exec.execute_seq_ms", "ms", Lower, "point-read analytic-join", "Executor::execute_plan_with_stats_ctx under Sequential"),
    layer("exec.execute_par2_ms", "ms", Lower, "point-read analytic-join", "the same under Parallel(2)"),
    layer("exec.scan_self_ms", "ms", Lower, "point-read analytic-join", "ExecStats.elapsed summed over SeqScan operators, per op"),
    layer("exec.filter_self_ms", "ms", Lower, "point-read analytic-join", "ExecStats.elapsed over Filter operators, per op"),
    layer("exec.product_self_ms", "ms", Lower, "point-read analytic-join", "ExecStats.elapsed over Product operators (where SQL joins lower today), per op"),
    layer("exec.join_build_ms", "ms", Lower, "point-read analytic-join", "ExecStats.build over hash joins, per op (0 until SQL joins lower to hash joins)"),
    layer("exec.join_probe_ms", "ms", Lower, "point-read analytic-join", "ExecStats.probe over hash joins, per op"),
    layer("exec.distinct_self_ms", "ms", Lower, "point-read analytic-join", "ExecStats.elapsed over HashDistinct and set operators, per op"),
    exact(layer("exec.rows_examined_per_result", "rows/row", Lower, "point-read analytic-join", "rows out of scans / root rows_out")),
    exact(layer("exec.intermediate_rows", "rows/op", Lower, "point-read analytic-join", "ExecStats::total_rows per op")),
    // core
    layer("core.sql_us", "us", Lower, "point-read analytic-join", "Db::sql_with_ctx_mode"),
    layer("core.begin_us", "us", Lower, "write-heavy", "Db::begin"),
    layer("core.insert_in_us", "us", Lower, "write-heavy", "Db::insert_in"),
    layer("core.commit_us", "us", Lower, "write-heavy", "Db::commit"),
    layer("core.abort_us", "us", Lower, "write-heavy", "Db::abort of a 5-row transaction"),
    layer("core.insert_us_at_1k", "us", Lower, "write-heavy ops-recovery", "Db::insert at ~1000 resident rows (during the shadow preload)"),
    layer("core.insert_us_at_4k", "us", Lower, "write-heavy ops-recovery", "Db::insert at ~4000 resident rows"),
    layer("core.insert_growth_ratio", "ratio", Lower, "write-heavy ops-recovery", "insert_us_at_4k / insert_us_at_1k"),
    layer("core.read_lock_wait_us", "us", Lower, "mixed-rw", "mean RwLock<Db>::read() acquisition in a 2-thread embedded replay"),
    layer("core.write_lock_wait_us", "us", Lower, "mixed-rw", "mean RwLock<Db>::write() acquisition in the same replay"),
    layer("core.recover_us_per_kb", "us/KB", Lower, "write-heavy ops-recovery", "simulate_crash_and_recover / WAL KB"),
    // storage
    layer("storage.heap_insert_us", "us", Lower, "write-heavy", "HeapFile::insert on a standalone PageStore at the workload's page count"),
    exact(layer("storage.page_reads_per_insert", "reads/op", Lower, "write-heavy", "PageStore::read_count delta / inserts")),
    exact(layer("storage.page_writes_per_insert", "writes/op", Lower, "write-heavy", "PageStore::write_count delta / inserts")),
    layer("storage.wal_append_ns", "ns", Lower, "write-heavy", "Wal::append of a RowInsert record"),
    layer("storage.wal_sync_ns", "ns", Lower, "write-heavy", "Wal::sync"),
    exact(layer("storage.wal_bytes_per_row", "B/row", Lower, "write-heavy", "Wal::byte_len / rows for begin + insert + commit")),
    exact(layer("storage.wal_syncs_per_commit", "syncs/op", Lower, "write-heavy", "Wal::sync_count / commits")),
    layer("storage.btree_upsert_ns", "ns", Lower, "write-heavy", "BPlusTree::upsert"),
    layer("storage.btree_get_ns", "ns", Lower, "write-heavy", "BPlusTree::get"),
    exact(layer("storage.btree_splits", "count", Lower, "write-heavy", "bq_storage_btree_splits_total delta over the upserts")),
    layer("storage.pool_hit_rate", "ratio", Higher, "point-read", "BufferPool hit rate scanning a 96-page heap twice through a 32-frame pool"),
    layer("storage.pool_hit_rate_fits", "ratio", Higher, "point-read", "the same through a 128-frame pool, which holds the heap"),
    exact(layer("storage.pool_evictions", "count", Lower, "point-read", "evictions in the 32-frame case")),
    // repl
    layer("repl.ack_wait_us", "us", Lower, "repl-semisync", "tagged p50 with the replica - tagged p50 without"),
    layer("repl.async_burst_ops_s", "ops/s", Higher, "repl-semisync", "untagged insert rate with a subscriber attached"),
    layer("repl.drain_ms", "ms", Lower, "repl-semisync", "end of burst until Replica::applied() == wal_durable_len"),
    layer("repl.lag_bytes_p95", "B", Lower, "repl-semisync", "wal_durable_len - Replica::applied(), sampled after each burst op"),
    layer("repl.snapshot_encode_ms", "ms", Lower, "repl-semisync ops-recovery", "Db::snapshot_bytes"),
    layer("repl.snapshot_apply_ms", "ms", Lower, "repl-semisync ops-recovery", "Db::apply_snapshot into a fresh Db"),
    layer("repl.apply_record_us", "us", Lower, "repl-semisync ops-recovery", "Db::apply_record per record of Wal::decode_stream"),
    layer("repl.segments_per_commit", "seg/op", Lower, "repl-semisync", "bq_repl_segments_shipped_total delta / commits"),
    layer("repl.bytes_shipped_per_row", "B/row", Lower, "repl-semisync", "bq_repl_bytes_shipped_total delta / rows"),
    // backup
    layer("backup.full_ms", "ms", Lower, "ops-recovery", "BackupEngine::backup_full, median"),
    layer("backup.incremental_ms", "ms", Lower, "ops-recovery", "BackupEngine::backup_incremental, median"),
    layer("backup.object_bytes_per_row", "B/row", Lower, "ops-recovery", "full backup Manifest.object_len / rows"),
    layer("backup.scrub_ms", "ms", Lower, "ops-recovery", "BackupEngine::scrub over the archive and the engine's pages"),
    // governor
    layer("governor.ctx_check_ns", "ns", Lower, "all", "QueryContext::unlimited().check()"),
    layer("governor.shed_total", "count", Lower, "all", "bq_governor_shed_total + bq_server_conns_shed_total delta; expected 0"),
    // obs
    layer("obs.bench_trace_overhead_ratio", "ratio", Higher, "point-read analytic-join write-heavy repl-semisync", "throughput with a span per op / throughput without, same ops"),
    layer("obs.db_tracing_on_ratio", "ratio", Higher, "point-read", "Db::set_tracing(true) throughput / off, same embedded sample"),
    // calibration
    layer("calib.oracle_ms", "ms", Lower, "all", "fixed recursive-oracle star join (algebra::eval, 2000 fact rows); start/end drift > 10% marks the run noisy"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The command the driver runs from the root of a checkout; it appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchspine/Cargo.toml",
    "--bin",
    "bench",
    "--",
    "run",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchspine"];

/// `BENCHMARK.json`, generated from this catalogue (`bench list --json`).
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metric = |m: &MetricSpec| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        ("command", strings(COMMAND)),
        ("paths", strings(PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// The one-screen catalogue `bench list` prints.
pub fn listing() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "workloads (closed loop, run_seconds = {RUN_SECONDS}):");
    for w in WORKLOADS {
        let _ = writeln!(out, "  {:<14} {}", w.name, w.why);
    }
    for (title, set) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        let _ = writeln!(out, "{title} metrics (name unit better bound on: what):");
        for m in set {
            let bound = m.bound.map_or("-".to_string(), |b| format!("{b}"));
            let _ = writeln!(
                out,
                "  {:<34} {:<8} {:<6} {:<5} {}{}: {}",
                m.name,
                m.unit,
                m.better.as_str(),
                bound,
                m.on,
                if m.exact { " [exact]" } else { "" },
                m.what
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_is_within_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name, 64), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name, 64), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
