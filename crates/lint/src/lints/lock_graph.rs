//! Workspace lock graph: infer the global guard-acquisition graph,
//! detect deadlock cycles, and check it against the declared orders.
//!
//! A node is `(crate, guard)`, and an edge `a → b` means *b was acquired
//! while a was held* — either directly (a nested acquisition in one
//! scope) or via a call (a fn was called under guard `a`, and that fn —
//! resolved through the item index — directly acquires `b`). Edges
//! compose in the graph, so a multi-hop cycle, one that spans crates
//! included, is found by SCC without chasing deep call chains.

use crate::index::{Workspace, WorkspaceLint, WsFile};
use crate::source::Report;
use std::collections::{BTreeMap, BTreeSet};

/// Declared acquisition order per crate: a guard for a name later in
/// the list may be taken while holding an earlier one, never the
/// reverse, and never the same name twice (Mutex self-deadlock). Names
/// are the field/variable the guard is taken from (`self.inner.lock()`
/// declares `inner`). The pass flags any nesting that inverts an order,
/// any nested acquisition of an undeclared name, any crate with two or
/// more distinct guards and no entry here at all, and any listed name no
/// production guard of its crate acquires — this table must stay
/// exactly reality.
pub const CRATE_ORDERS: &[(&str, &[&str])] = &[
    ("exec", &["first_err", "out"]),
    ("storage", &["inner"]),
    ("governor", &["state", "inner"]),
    ("obs", &["metrics"]),
    ("server", &["conns", "workers", "db"]),
    ("repl", &["state", "db"]),
    // `objects` is the in-memory archive's store; MemArchive methods
    // are leaves called under `state` (and sometimes `db`).
    ("backup", &["state", "db", "objects"]),
    // `inner` is the session and backup registries, `ring` the
    // slow-query ring; they guard disjoint subsystems and never nest
    // today — the order makes any future nesting take a registry first. `rows` (the replica registry a
    // semi-sync wait blocks on) and `horizon` (the WAL watch a shipping
    // loop blocks on) are leaves: each is paired with a condvar, nothing
    // is taken under either, and neither is ever held while taking the
    // engine `RwLock<Db>` — `Db` publishes to `horizon` under the engine
    // write guard, never the reverse.
    ("core", &["inner", "ring", "rows", "horizon"]),
];

pub struct LockGraph;

/// How an edge was inferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Via {
    /// A nested acquisition in one scope.
    Direct,
    /// The destination guard is acquired inside a fn called under the
    /// source guard.
    Call,
}

/// One inferred edge with its best (lexicographically least) witness.
#[derive(Debug, Clone)]
struct Edge {
    from: Node,
    to: Node,
    via: Via,
    /// Index of the witnessing file in `ws.files`.
    file: usize,
    line: u32,
    /// Human-readable witness, e.g. "via call to `sync`".
    witness: String,
}

/// `(crate, guard)` — the graph's node type.
type Node = (String, String);

impl WorkspaceLint for LockGraph {
    fn name(&self) -> &'static str {
        "lock-graph"
    }

    fn summary(&self) -> &'static str {
        "inferred workspace guard graph: no cycles, every nesting declared and in order"
    }

    fn explain(&self) -> &'static str {
        "Phase 2 of the workspace analyzer builds the global guard-acquisition \
         graph: a node is (crate, guard) and an edge a → b means b was \
         acquired while a was held — directly in one scope, or inside a fn \
         called under a (calls are resolved through the item index when the \
         callee is path-qualified, defined in the same crate, or globally \
         unique). Four findings: (1) a strongly-connected component in the \
         graph is a potential deadlock — two threads walking the cycle from \
         different entry points block forever, and taking the same Mutex \
         twice on one thread (a self-edge) deadlocks today; (2) an \
         intra-crate edge that inverts the crate's declared order \
         (`CRATE_ORDERS` in lints/lock_graph.rs), or whose guards are not \
         both in it — an undeclared nesting: the declaration table must \
         stay the superset of reality, or the order check is checking \
         fiction; (3) a crate with two or more distinct production guards \
         and no declared order at all escapes the order check; (4) a \
         declared name that no production guard in its crate acquires any \
         more is stale (judged only when the crate's src/lib.rs is scanned). \
         Fix by breaking the cycle (narrow the guard scope, drop before \
         calling), declaring the missing order, removing the stale name, \
         or — when a cycle is provably benign (e.g. the edges can never \
         interleave) — suppressing the witness site with \
         `// lint: allow(lock-graph) <reason>`."
    }

    fn check(&self, ws: &Workspace, rep: &mut Report) {
        let edges = infer_edges(ws);

        // (1) Cycles: SCCs of size > 1, plus self-edges.
        let nodes: BTreeSet<Node> = edges
            .iter()
            .flat_map(|e| [e.from.clone(), e.to.clone()])
            .collect();
        let nodes: Vec<Node> = nodes.into_iter().collect();
        let id_of: BTreeMap<&Node, usize> = nodes.iter().enumerate().map(|(i, n)| (n, i)).collect();
        let mut adj = vec![Vec::new(); nodes.len()];
        for e in &edges {
            adj[id_of[&e.from]].push(id_of[&e.to]);
        }
        for scc in sccs(&adj) {
            let cyclic = scc.len() > 1 || adj[scc[0]].contains(&scc[0]); // self-edge
            if !cyclic {
                continue;
            }
            let members: BTreeSet<usize> = scc.iter().copied().collect();
            // Witness edges inside the SCC, lexicographic order.
            let mut inside: Vec<&Edge> = edges
                .iter()
                .filter(|e| members.contains(&id_of[&e.from]) && members.contains(&id_of[&e.to]))
                .collect();
            inside.sort_by_key(|e| (e.file, e.line, e.from.clone(), e.to.clone()));
            let desc = inside
                .iter()
                .map(|e| {
                    format!(
                        "{}/{} -> {}/{} ({}:{} {})",
                        e.from.0,
                        e.from.1,
                        e.to.0,
                        e.to.1,
                        ws.files[e.file].src.path,
                        e.line,
                        e.witness
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let w = inside[0];
            ws.files[w.file].src.emit(
                rep,
                self.name(),
                w.line,
                format!("potential deadlock cycle in the inferred lock graph: {desc}"),
            );
        }

        // (2) Intra-crate edges vs the declared orders: inversions, direct
        // or through calls, and undeclared nestings.
        let mut seen: BTreeSet<(Node, Node)> = BTreeSet::new();
        for e in &edges {
            if e.from.0 != e.to.0 || !seen.insert((e.from.clone(), e.to.clone())) {
                continue;
            }
            let Some(order) = declared_order(&e.from.0) else {
                continue; // finding (3) covers order-less crates
            };
            let rank = |g: &str| order.iter().position(|n| *n == g);
            match (rank(&e.from.1), rank(&e.to.1)) {
                (Some(a), Some(b)) => {
                    if a >= b {
                        ws.files[e.file].src.emit(
                            rep,
                            self.name(),
                            e.line,
                            format!(
                                "acquiring `{}` (rank {b}) {} while `{}` (rank {a}) is held \
                                 inverts crate `{}`'s declared order [{}]",
                                e.to.1,
                                e.witness,
                                e.from.1,
                                e.from.0,
                                order.join(" < ")
                            ),
                        );
                    }
                }
                (a, _) => {
                    let missing = if a.is_none() { &e.from.1 } else { &e.to.1 };
                    ws.files[e.file].src.emit(
                        rep,
                        self.name(),
                        e.line,
                        format!(
                            "undeclared nesting: `{}` is acquired while `{}` is held \
                             ({}), but `{missing}` is not in crate `{}`'s declared \
                             order [{}] — declare it in `CRATE_ORDERS` (lints/lock_graph.rs)",
                            e.to.1,
                            e.from.1,
                            e.witness,
                            e.from.0,
                            order.join(" < ")
                        ),
                    );
                }
            }
        }

        // (3) Crates with ≥ 2 distinct production guards but no
        // declared order escape the order check entirely.
        let mut per_crate: BTreeMap<&str, BTreeMap<&str, (usize, u32)>> = BTreeMap::new();
        for (fi, f) in ws.files.iter().enumerate() {
            if f.idx.test_file || !f.src.path.starts_with("crates/") {
                continue;
            }
            for g in f.idx.guards.iter().filter(|g| !g.in_test) {
                per_crate
                    .entry(f.idx.crate_name.as_str())
                    .or_default()
                    .entry(g.recv.as_str())
                    .or_insert((fi, g.line));
            }
        }
        for (krate, guards) in &per_crate {
            if guards.len() < 2 || declared_order(krate).is_some() {
                continue;
            }
            let (&first_guard, &(fi, line)) = guards
                .iter()
                .min_by_key(|(_, v)| **v)
                .unwrap_or_else(|| unreachable!("guards.len() >= 2"));
            let names: Vec<&str> = guards.keys().copied().collect();
            ws.files[fi].src.emit(
                rep,
                self.name(),
                line,
                format!(
                    "crate `{krate}` acquires {} distinct guards ({}) but declares no \
                     lock order; add a `{krate}` entry to `CRATE_ORDERS` (lints/lock_graph.rs) (first \
                     site: `{first_guard}`)",
                    names.len(),
                    names.join(", "),
                ),
            );
        }

        // (4) Stale declarations: a declared name that no production
        // guard in its crate acquires any more checks nothing, and hides
        // a rank a new lock could silently inherit. Only a crate scanned
        // whole — its `src/lib.rs` is among the files — can be judged.
        for (krate, order) in CRATE_ORDERS {
            let root = format!("crates/{krate}/src/lib.rs");
            let Some(fi) = ws.files.iter().position(|f| f.src.path == root) else {
                continue;
            };
            let acquired = per_crate.get(krate);
            let stale: Vec<String> = order
                .iter()
                .copied()
                .filter(|name| !acquired.is_some_and(|g| g.contains_key(name)))
                .map(|name| format!("`{name}`"))
                .collect();
            if !stale.is_empty() {
                ws.files[fi].src.emit(
                    rep,
                    self.name(),
                    1,
                    format!(
                        "crate `{krate}` declares lock order [{}] but no production guard \
                         acquires {}; remove the stale name from `CRATE_ORDERS` (lints/lock_graph.rs)",
                        order.join(" < "),
                        stale.join(", ")
                    ),
                );
            }
        }
    }
}

/// Render the inferred graph for `bqlint graph`: one line per edge,
/// grouped by source crate, with the witness site. This is the same
/// edge set the cycle/conformance checks run on, so the printout in
/// DESIGN.md §10 can be regenerated rather than hand-maintained.
pub fn render(ws: &Workspace) -> String {
    let mut edges = infer_edges(ws);
    edges.sort_by_key(|e| (e.from.clone(), e.to.clone()));
    if edges.is_empty() {
        return "lock graph: no nested acquisitions found".to_string();
    }
    let mut out = String::new();
    let mut last_crate = String::new();
    for e in &edges {
        if e.from.0 != last_crate {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!("{}:\n", e.from.0));
            last_crate = e.from.0.clone();
        }
        out.push_str(&format!(
            "  {} -> {}{}  [{} {}:{}]\n",
            e.from.1,
            if e.to.0 == e.from.0 {
                e.to.1.clone()
            } else {
                format!("{}/{}", e.to.0, e.to.1)
            },
            match e.via {
                Via::Direct => String::new(),
                Via::Call => format!(" ({})", e.witness),
            },
            "witness",
            ws.files[e.file].src.path,
            e.line
        ));
    }
    out
}

fn declared_order(krate: &str) -> Option<&'static [&'static str]> {
    CRATE_ORDERS
        .iter()
        .find(|(c, _)| *c == krate)
        .map(|(_, o)| *o)
}

/// Build the deduplicated edge set (best witness per `(from, to)`).
fn infer_edges(ws: &Workspace) -> Vec<Edge> {
    let mut best: BTreeMap<(Node, Node), Edge> = BTreeMap::new();
    let mut add = |e: Edge| {
        let key = (e.from.clone(), e.to.clone());
        match best.get(&key) {
            Some(old) if (old.via, old.file, old.line) <= (e.via, e.file, e.line) => {}
            _ => {
                best.insert(key, e);
            }
        }
    };

    for (fi, f) in ws.files.iter().enumerate() {
        if f.idx.test_file {
            continue;
        }
        let krate = f.idx.crate_name.clone();
        // Direct nested acquisitions.
        for g in f.idx.guards.iter().filter(|g| !g.in_test) {
            for h in &g.held {
                add(Edge {
                    from: (krate.clone(), h.recv.clone()),
                    to: (krate.clone(), g.recv.clone()),
                    via: Via::Direct,
                    file: fi,
                    line: g.line,
                    witness: format!("nested under `{}` taken on line {}", h.recv, h.line),
                });
            }
        }
        // Call edges: guards acquired inside the callee count as
        // acquired under every guard held at the call site.
        for c in f
            .idx
            .calls
            .iter()
            .filter(|c| !c.in_test && !c.held.is_empty())
        {
            for (cf, cfn) in resolve_callee(ws, f, c) {
                for (tcrate, trecv) in ws.fn_acquires(&ws.files[cf], cfn) {
                    for h in &c.held {
                        add(Edge {
                            from: (krate.clone(), h.recv.clone()),
                            to: (tcrate.clone(), trecv.clone()),
                            via: Via::Call,
                            file: fi,
                            line: c.line,
                            witness: format!("via call to `{}`", c.callee),
                        });
                    }
                }
            }
        }
    }
    best.into_values().collect()
}

/// Resolve a call made under guard to candidate fns in the index.
///
/// Resolution is deliberately conservative — a wrong edge is a false
/// deadlock report. Method calls resolve only when the receiver is
/// literally `self` (a `ring.entries.len()` must not resolve to an
/// unrelated local fn named `len`); free and path-qualified calls
/// resolve when pinned to a `bq_*` crate, when a candidate exists in
/// the calling crate (locality), or when the name is defined exactly
/// once in the whole workspace.
fn resolve_callee(
    ws: &Workspace,
    from: &WsFile,
    call: &crate::index::CallSite,
) -> Vec<(usize, usize)> {
    let callee = call.callee.as_str();
    let path = &call.path;
    if call.method && call.recv.as_deref() != Some("self") {
        return Vec::new();
    }
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if f.idx.test_file {
            continue;
        }
        for (ji, fun) in f.idx.fns.iter().enumerate() {
            if fun.name == callee && !fun.in_test {
                candidates.push((fi, ji));
            }
        }
    }
    // `bq_storage::…::f(..)` pins the crate.
    if let Some(hint) = path
        .iter()
        .find_map(|s| s.strip_prefix("bq_"))
        .map(|s| s.replace('_', "-"))
    {
        candidates.retain(|(fi, _)| {
            let c = &ws.files[*fi].idx.crate_name;
            *c == hint || c.replace('_', "-") == hint
        });
        return candidates;
    }
    // Locality: a candidate in the calling crate wins.
    let local: Vec<(usize, usize)> = candidates
        .iter()
        .copied()
        .filter(|(fi, _)| ws.files[*fi].idx.crate_name == from.idx.crate_name)
        .collect();
    if !local.is_empty() {
        return local;
    }
    // Otherwise only a globally unique name resolves.
    if candidates.len() == 1 {
        return candidates;
    }
    Vec::new()
}

/// Tarjan's strongly-connected components, iterative to keep the stack
/// bounded on adversarial graphs. Returns each SCC as a sorted Vec.
fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next = 0usize;
    let mut out = Vec::new();

    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            // v is finished.
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut comp = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                comp.sort_unstable();
                out.push(comp);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scc_finds_cycles_and_singletons() {
        // 0 → 1 → 2 → 0 is a cycle; 3 is alone; 4 → 4 self-loop.
        let adj = vec![vec![1], vec![2], vec![0], vec![], vec![4]];
        let comps = sccs(&adj);
        assert!(comps.contains(&vec![0, 1, 2]));
        assert!(comps.contains(&vec![3]));
        assert!(comps.contains(&vec![4]));
    }
}
