//! Lock ordering: nested guard acquisitions must follow the declared
//! per-crate order.

use crate::lexer::Kind;
use crate::source::{Lint, Report, SourceFile};

/// Declared acquisition order per crate: a guard for a name later in
/// the list may be taken while holding an earlier one, never the
/// reverse, and never the same name twice (Mutex self-deadlock). Names
/// are the field/variable the guard is taken from (`self.inner.lock()`
/// declares `inner`). Locks not listed here don't participate in the
/// per-file pass, but the workspace `lock-graph` pass flags any nested
/// acquisition of an undeclared name, and any crate with two or more
/// distinct guards and no entry here at all — this table must stay the
/// superset of reality. `pub` because the workspace pass diffs the
/// inferred graph against it.
pub const CRATE_ORDERS: &[(&str, &[&str])] = &[
    ("exec", &["first_err", "out", "global"]),
    ("storage", &["inner"]),
    ("governor", &["state", "inner"]),
    // `lock` is the tracer's process-wide span sink; it is a leaf and
    // never nests with the registry locks.
    ("obs", &["metrics", "ring", "lock"]),
    ("txn", &["serial"]),
    ("faults", &["registry"]),
    ("server", &["conns", "running", "workers", "db"]),
    ("repl", &["state", "db"]),
    // `objects` is the in-memory archive's store; MemArchive methods
    // are leaves called under `state` (and sometimes `db`).
    ("backup", &["state", "db", "objects"]),
    // `inner` is the vtab registry, `ring` the slow-query ring; they
    // guard disjoint subsystems and never nest today — the order makes
    // any future nesting take the registry first. `rows` (the replica
    // registry a semi-sync wait blocks on) and `horizon` (the WAL watch
    // a shipping loop blocks on) are leaves: each is paired with a
    // condvar, nothing is taken under either, and neither is ever held
    // while taking the engine `RwLock<Db>` — `Db` publishes to
    // `horizon` under the engine write guard, never the reverse.
    ("core", &["inner", "ring", "rows", "horizon"]),
];

/// A zero-argument acquisition method on Mutex/RwLock.
const ACQUIRE_FNS: &[&str] = &["lock", "read", "write"];

pub struct LockOrder;

struct Guard {
    depth: i32,
    name: String,
    rank: usize,
    line: u32,
}

impl Lint for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn summary(&self) -> &'static str {
        "nested Mutex/RwLock acquisitions must follow the declared crate order"
    }

    fn explain(&self) -> &'static str {
        "Two threads taking the same pair of locks in opposite orders is a \
         deadlock waiting for load; taking the same Mutex twice on one thread \
         is a deadlock today. Each crate declares an acquisition order over \
         its named locks (see DESIGN.md §10); this pass tracks `let`-bound \
         guards (`let g = x.lock()…`, `.read()`, `.write()` with zero \
         arguments) through their brace scope and flags any acquisition — \
         bound or temporary — of a lock whose declared rank is not strictly \
         greater than every guard already held. Locks whose receiver name is \
         not in the crate's declared order are ignored, as are ordinary \
         methods that happen to be called `read`/`write` with arguments. \
         Suppress with `// lint: allow(lock-order) <reason>`."
    }

    fn check(&self, file: &SourceFile, rep: &mut Report) {
        let Some(order) = crate_order(&file.path) else {
            return;
        };
        let rank_of = |name: &str| order.iter().position(|n| *n == name);

        let mut depth = 0i32;
        let mut guards: Vec<Guard> = Vec::new();
        // Does the current statement start with `let`? Reset at `;` and
        // at braces; good enough to tell a bound guard from a temporary.
        let mut stmt_is_let = false;

        for i in 0..file.len() {
            if file.is_punct(i, "{") {
                depth += 1;
                stmt_is_let = false;
                continue;
            }
            if file.is_punct(i, "}") {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
                stmt_is_let = false;
                continue;
            }
            if file.is_punct(i, ";") {
                stmt_is_let = false;
                continue;
            }
            if file.is_ident(i, "let") {
                stmt_is_let = true;
                continue;
            }
            // An acquisition: `.lock()` / `.read()` / `.write()` with no
            // arguments, receiver named by the identifier before the dot.
            let is_acquire = i > 0
                && file.is_punct(i - 1, ".")
                && ACQUIRE_FNS.iter().any(|f| file.is_ident(i, f))
                && file.is_punct(i + 1, "(")
                && file.is_punct(i + 2, ")");
            if !is_acquire || file.in_test(i) {
                continue;
            }
            let recv = if i >= 2 && file.tok(i - 2).kind == Kind::Ident {
                file.tok(i - 2).text.to_lowercase()
            } else {
                continue; // computed receiver: not a declared lock
            };
            let Some(rank) = rank_of(&recv) else {
                continue;
            };
            let line = file.tok(i).line;
            for held in &guards {
                if held.rank >= rank {
                    file.emit(
                        rep,
                        self.name(),
                        line,
                        format!(
                            "acquiring `{recv}` (rank {rank}) while holding \
                             `{}` (rank {}, taken on line {}); declared order \
                             for this crate is [{}]",
                            held.name,
                            held.rank,
                            held.line,
                            order.join(" < ")
                        ),
                    );
                }
            }
            if stmt_is_let {
                guards.push(Guard {
                    depth,
                    name: recv,
                    rank,
                    line,
                });
            }
        }
    }
}

fn crate_order(path: &str) -> Option<&'static [&'static str]> {
    let rest = path.strip_prefix("crates/")?;
    let name = rest.split('/').next()?;
    CRATE_ORDERS
        .iter()
        .find(|(c, _)| *c == name)
        .map(|(_, o)| *o)
}
