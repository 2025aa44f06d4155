//! Blocking-while-locked: no fsync, socket I/O, join, sleep, channel or
//! condvar wait while a Mutex/RwLock guard is live in scope.
//!
//! A blocking call under a hot lock is the classic tail-latency killer
//! in a serving stack: every other thread that needs the guard queues
//! behind a disk flush or a peer's TCP window. The pass walks the item
//! index's calls-under-guard table — phase 1 recorded every call made
//! while a `let`-bound guard was live — and flags the ones whose callee
//! is a known blocking operation.

use crate::index::{CallSite, Workspace, WorkspaceLint};
use crate::source::Report;

/// Crates whose production code is checked: everything on the query /
/// storage / serving path. bqsh (interactive), examples, bench, and the
/// infrastructure crates are out of scope.
const SCOPE: &[&str] = &[
    "storage",
    "txn",
    "core",
    "exec",
    "datalog",
    "relational",
    "server",
    "repl",
    "backup",
    "governor",
];

pub struct Blocking;

impl WorkspaceLint for Blocking {
    fn name(&self) -> &'static str {
        "blocking-while-locked"
    }

    fn summary(&self) -> &'static str {
        "no fsync/socket I/O/join/sleep/channel recv/condvar wait while a guard is held"
    }

    fn explain(&self) -> &'static str {
        "Every millisecond a guard is held while the holder waits on disk or \
         network is a millisecond every contending thread also waits: one \
         fsync under the engine write lock turns a 50µs commit into a \
         convoy. Phase 1 of the workspace analyzer records every call made \
         while a `let`-bound MutexGuard/RwLockGuard is live; this pass flags \
         the blocking ones — WAL/file sync (`sync`, `sync_all`, `sync_data`, \
         `fsync`, `sync_wal`), socket I/O (`connect`, `accept`, `read_exact`, \
         `write_all`, `read_frame`, `write_frame`, `read_to_end`), \
         `JoinHandle::join`, `thread::sleep`, channel `recv` / \
         `recv_timeout`, and condvar waits (`wait`, `wait_while`, \
         `wait_timeout`, `wait_timeout_while`, and the engine's wrappers \
         `wait_past` / `wait_all_acked`). A condvar releases the one guard \
         it is handed, so that guard does not count; any other guard live \
         across the wait does. Fix by narrowing the guard (copy what you need out, \
         drop, then block) or, where the blocking is the lock's very purpose \
         (group-commit fsync under the WAL latch, a snapshot taken inside the \
         engine write lock so the WAL horizon cannot move), suppress with \
         `// lint: allow(blocking-while-locked) <why the hold is the point>`."
    }

    fn check(&self, ws: &Workspace, rep: &mut Report) {
        for f in &ws.files {
            if f.idx.test_file
                || !SCOPE.contains(&f.idx.crate_name.as_str())
                || !f.src.path.starts_with("crates/")
            {
                continue;
            }
            for c in f.idx.calls.iter().filter(|c| !c.in_test) {
                let Some(kind) = blocking_kind(c) else {
                    continue;
                };
                // A condvar wait releases the guard it is handed; only
                // the other live guards are held across it.
                let released = if kind == CONDVAR_WAIT {
                    c.arg0.as_deref()
                } else {
                    None
                };
                let held: Vec<String> = c
                    .held
                    .iter()
                    .filter(|h| released.is_none() || h.binding.as_deref() != released)
                    .map(|h| format!("`{}` (line {})", h.recv, h.line))
                    .collect();
                if held.is_empty() {
                    continue;
                }
                let held = held.join(", ");
                f.src.emit(
                    rep,
                    self.name(),
                    c.line,
                    format!(
                        "{kind} `{}` while holding {held}; every contender on the \
                         guard waits out the {kind}",
                        c.callee
                    ),
                );
            }
        }
    }
}

const CONDVAR_WAIT: &str = "condvar wait";

/// Classify a call-under-guard as blocking, or `None`.
fn blocking_kind(c: &CallSite) -> Option<&'static str> {
    let name = c.callee.as_str();
    match name {
        // JoinHandle::join takes no arguments; str::join takes one.
        "join" if c.method && c.zero_arg => Some("thread join"),
        "sleep" => Some("sleep"),
        "recv" | "recv_timeout" if c.method => Some("channel wait"),
        // `Condvar::wait*`, and the engine's wrappers over one: the
        // WAL-horizon watch and the replica registry's semi-sync wait.
        "wait" | "wait_while" | "wait_timeout" | "wait_timeout_while" | "wait_past"
        | "wait_all_acked"
            if c.method =>
        {
            Some(CONDVAR_WAIT)
        }
        // File/WAL durability. `sync`/`sync_all`/`sync_data` with zero
        // args are the fsync family; `sync_wal` is the Db-level wrapper.
        "sync" | "sync_all" | "sync_data" if c.method && c.zero_arg => Some("fsync"),
        "fsync" | "sync_wal" => Some("fsync"),
        // Socket / framed I/O.
        "connect" => Some("socket connect"),
        "accept" if c.method => Some("socket accept"),
        "read_exact" | "write_all" | "read_to_end" if c.method => Some("socket/file I/O"),
        "read_frame" | "write_frame" => Some("framed socket I/O"),
        _ => None,
    }
}
