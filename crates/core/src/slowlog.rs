//! The slow-query log: a bounded, byte-capped ring of completed
//! statements that ran for at least a configurable latency threshold.
//!
//! The ring is deliberately small and allocation-capped: introspection
//! must never be the thing that OOMs the engine. Three bounds apply, all
//! hard: at most [`MAX_ENTRIES`] entries, at most [`MAX_BYTES`] of
//! retained text across all entries, and per-entry truncation of the SQL
//! ([`MAX_SQL_BYTES`]) and rendered plan ([`MAX_PLAN_BYTES`]). Overflow
//! evicts oldest-first; a refusal (simulated by the
//! `core.slowlog.overflow` failpoint) drops the incoming entry and counts
//! it in [`SlowLog::dropped`].

use bq_exec::ExecStats;
use bq_util::Fnv1a64;
use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Maximum entries retained in the ring.
pub const MAX_ENTRIES: usize = 256;
/// Maximum bytes of SQL + plan text retained across the whole ring.
pub const MAX_BYTES: u64 = 256 * 1024;
/// Per-entry cap on retained SQL text (truncated beyond this).
pub const MAX_SQL_BYTES: usize = 512;
/// Per-entry cap on the retained rendered plan (truncated beyond this).
pub const MAX_PLAN_BYTES: usize = 4096;

/// One completed statement in the slow log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEntry {
    /// The statement's trace/query id (0 when it ran untagged).
    pub query: u64,
    /// The owning session id (0 for embedded/untagged statements).
    pub session: u64,
    /// Statement text, truncated to [`MAX_SQL_BYTES`].
    pub sql: String,
    /// End-to-end wall time in microseconds.
    pub elapsed_us: u64,
    /// Rows in the final result.
    pub rows: u64,
    /// Plan-shape fingerprint: hash of the operator labels, so entries
    /// for the same plan shape can be grouped regardless of runtimes.
    pub fingerprint: u64,
    /// Rendered per-operator stats tree, truncated to [`MAX_PLAN_BYTES`].
    pub plan: String,
}

impl SlowEntry {
    fn retained_bytes(&self) -> u64 {
        (self.sql.len() + self.plan.len()) as u64
    }
}

#[derive(Debug, Default)]
struct Ring {
    entries: VecDeque<SlowEntry>,
    bytes: u64,
}

/// The engine-wide slow-query log. Shared (`Arc`) between the `Db` that
/// records into it and the `bq.slow_log` virtual table that reads it.
#[derive(Debug, Default)]
pub struct SlowLog {
    ring: Mutex<Ring>,
    /// Only statements at or above this wall time (µs) are retained.
    /// Zero (the default) logs every completed statement.
    threshold_us: AtomicU64,
    /// Entries refused outright (byte-cap refusal, real or injected via
    /// the `core.slowlog.overflow` failpoint). Oldest-first eviction is
    /// normal ring behaviour and is *not* counted here.
    dropped: AtomicU64,
}

impl SlowLog {
    /// An empty log with threshold 0 (log everything).
    pub fn new() -> SlowLog {
        SlowLog::default()
    }

    /// Set the latency floor in microseconds; statements faster than
    /// this are not logged. 0 logs everything.
    pub fn set_threshold_us(&self, us: u64) {
        // relaxed: configuration cell, read once per completed statement.
        self.threshold_us.store(us, Ordering::Relaxed);
    }

    /// The current latency floor in microseconds.
    pub fn threshold_us(&self) -> u64 {
        // relaxed: see set_threshold_us.
        self.threshold_us.load(Ordering::Relaxed)
    }

    /// Entries refused at the allocation cap since process start.
    pub fn dropped(&self) -> u64 {
        // relaxed: stats counter.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a completed statement, applying the threshold, per-entry
    /// truncation, and the ring's entry/byte caps (evicting oldest-first).
    pub fn record(&self, mut entry: SlowEntry) {
        if entry.elapsed_us < self.threshold_us() {
            return;
        }
        if bq_faults::hit("core.slowlog.overflow").is_some() {
            // relaxed: stats counter.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        truncate_to(&mut entry.sql, MAX_SQL_BYTES);
        truncate_to(&mut entry.plan, MAX_PLAN_BYTES);
        let cost = entry.retained_bytes();
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.entries.push_back(entry);
        ring.bytes += cost;
        while ring.entries.len() > MAX_ENTRIES || ring.bytes > MAX_BYTES {
            match ring.entries.pop_front() {
                Some(evicted) => ring.bytes -= evicted.retained_bytes(),
                None => break,
            }
        }
    }

    /// Snapshot of the retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .iter()
            .cloned()
            .collect()
    }

    /// Drop every retained entry (the dropped counter is kept).
    pub fn clear(&self) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.entries.clear();
        ring.bytes = 0;
    }
}

/// Truncate `s` to at most `max` bytes on a char boundary, appending an
/// ellipsis marker when anything was cut.
fn truncate_to(s: &mut String, max: usize) {
    if s.len() <= max {
        return;
    }
    let mut cut = max;
    while cut > 0 && !s.is_char_boundary(cut) {
        cut -= 1;
    }
    s.truncate(cut);
    s.push('…');
}

/// Hash the plan *shape* — the operator labels in tree order — with
/// FNV-1a, ignoring runtimes and cardinalities, so repeated executions of
/// the same plan share a fingerprint in `bq.slow_log`.
pub fn plan_fingerprint(stats: &ExecStats) -> u64 {
    fn walk(node: &ExecStats, hash: &mut Fnv1a64) {
        hash.write(node.op.as_bytes());
        hash.write(b"("); // separates a node from its children
        for c in &node.children {
            walk(c, hash);
        }
        hash.write(b")");
    }
    let mut hash = Fnv1a64::default();
    walk(stats, &mut hash);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(query: u64, sql: &str, elapsed_us: u64) -> SlowEntry {
        SlowEntry {
            query,
            session: 1,
            sql: sql.to_string(),
            elapsed_us,
            rows: 0,
            fingerprint: 0,
            plan: String::new(),
        }
    }

    #[test]
    fn threshold_filters_fast_statements() {
        let log = SlowLog::new();
        log.set_threshold_us(1000);
        log.record(entry(1, "fast", 999));
        log.record(entry(2, "slow", 1000));
        let entries = log.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].query, 2);
    }

    #[test]
    fn ring_evicts_oldest_beyond_entry_cap() {
        let log = SlowLog::new();
        for i in 0..(MAX_ENTRIES as u64 + 10) {
            log.record(entry(i, "q", 5));
        }
        let entries = log.entries();
        assert_eq!(entries.len(), MAX_ENTRIES);
        assert_eq!(entries[0].query, 10, "oldest evicted first");
        assert_eq!(log.dropped(), 0, "eviction is not a drop");
    }

    #[test]
    fn byte_cap_bounds_retained_text() {
        let log = SlowLog::new();
        let big = "x".repeat(MAX_SQL_BYTES * 2);
        for i in 0..2000 {
            log.record(entry(i, &big, 5));
        }
        let entries = log.entries();
        let bytes: u64 = entries
            .iter()
            .map(|e| (e.sql.len() + e.plan.len()) as u64)
            .sum();
        assert!(bytes <= MAX_BYTES, "{bytes} > {MAX_BYTES}");
        assert!(entries[0].sql.len() <= MAX_SQL_BYTES + '…'.len_utf8());
        assert!(entries[0].sql.ends_with('…'), "truncation is marked");
    }

    #[test]
    fn overflow_failpoint_refuses_and_counts() {
        bq_faults::configure(
            "core.slowlog.overflow",
            bq_faults::Policy::new(bq_faults::Action::Error, bq_faults::Trigger::Always)
                .caller_thread(),
        );
        let log = SlowLog::new();
        log.record(entry(1, "refused", 5));
        bq_faults::off("core.slowlog.overflow");
        log.record(entry(2, "kept", 5));
        assert_eq!(log.dropped(), 1);
        let entries = log.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].query, 2);
    }

    #[test]
    fn fingerprint_tracks_shape_not_runtimes() {
        let shape = |rows| ExecStats {
            op: "Filter [a = 1]".to_string(),
            rows_out: rows,
            children: vec![ExecStats {
                op: "SeqScan [r]".to_string(),
                rows_out: rows,
                ..ExecStats::default()
            }],
            ..ExecStats::default()
        };
        assert_eq!(plan_fingerprint(&shape(1)), plan_fingerprint(&shape(999)));
        let other = ExecStats {
            op: "SeqScan [r]".to_string(),
            ..ExecStats::default()
        };
        assert_ne!(plan_fingerprint(&shape(1)), plan_fingerprint(&other));
    }
}
