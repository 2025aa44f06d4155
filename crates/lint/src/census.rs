//! `bqlint census`: which fns the product runs, which only tests run,
//! and which nothing runs.
//!
//! A walk over the item index's references from two root sets:
//!
//! * **product** — `fn main` of the shipped binaries ([`ROOT_BINS`]) and
//!   of every example, every fn of the benchmark (`benchspine/src`, read
//!   as a root only: it is never linted), every method of an
//!   `impl Trait for T` block (callable through the trait without its
//!   name appearing: `fmt`, `drop`, `next`), and every identifier
//!   outside a fn body (in a `const`, a `static`, a `macro_rules!` body);
//! * **test** — every fn under `#[cfg(test)]`, in a `tests/` or
//!   `benches/` directory, and every identifier outside a fn body there.
//!
//! Edges are over-approximated by name: an identifier in a reached fn
//! body reaches every fn of that name, whatever its receiver or path,
//! so nothing live is reported dead. A non-test fn is *live* when the
//! product reaches it, *test-only* when only tests do, and *unreached*
//! otherwise. The output counts the source lines of each class per
//! crate, then lists the test-only and unreached `pub fn`s.

use crate::index::{Workspace, WsFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

/// Files whose `fn main` is a product root: `bqd`, `bqsh`, `bqlint`
/// and `report`. Every `examples/*.rs` main is one too.
pub const ROOT_BINS: &[&str] = &[
    "src/bin/bqd.rs",
    "src/bin/bqsh.rs",
    "crates/lint/src/main.rs",
    "crates/bench/src/bin/report.rs",
];

/// Read as product roots only, never counted.
pub const BENCH_ROOT: &str = "benchspine/src/";

/// `(file, fn)` in `ws.files[file].idx.fns[fn]`.
type FnId = (usize, usize);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Live,
    TestOnly,
    Unreached,
}

fn is_test_file(f: &WsFile) -> bool {
    f.idx.test_file || f.src.path.starts_with("benches/") || f.src.path.contains("/benches/")
}

/// Render the census of an indexed workspace.
pub fn render(ws: &Workspace) -> String {
    let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    // Per fn, the names its body references.
    let mut refs: BTreeMap<FnId, Vec<&str>> = BTreeMap::new();
    // Root fns and names referenced outside any fn: product, then test.
    let mut roots: [(Vec<FnId>, Vec<&str>); 2] = Default::default();
    for (fi, f) in ws.files.iter().enumerate() {
        let test_file = is_test_file(f);
        let benchmark = f.src.path.starts_with(BENCH_ROOT);
        let bin = ROOT_BINS.contains(&f.src.path.as_str()) || f.src.path.starts_with("examples/");
        for (ji, fun) in f.idx.fns.iter().enumerate() {
            by_name.entry(&fun.name).or_default().push((fi, ji));
            if fun.in_test || test_file {
                roots[1].0.push((fi, ji));
            } else if benchmark || fun.trait_impl || (bin && fun.name == "main") {
                roots[0].0.push((fi, ji));
            }
        }
        for r in &f.idx.refs {
            match r.fn_idx {
                Some(ji) => refs.entry((fi, ji)).or_default().push(&r.name),
                None => roots[(r.in_test || test_file) as usize].1.push(&r.name),
            }
        }
    }
    let [live, tested] = roots.map(|(fns, names)| reach(fns, names, &by_name, &refs));

    // Source lines per crate and class; a nested fn's lines are its own.
    let mut lines: BTreeMap<&str, [usize; 3]> = BTreeMap::new();
    let mut listed: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for (fi, f) in ws.files.iter().enumerate() {
        if is_test_file(f) || f.src.path.starts_with(BENCH_ROOT) {
            continue;
        }
        let mut owner: BTreeMap<u32, Option<Class>> = BTreeMap::new();
        for (ji, fun) in f.idx.fns.iter().enumerate() {
            let class = (!fun.in_test).then(|| {
                if live.contains(&(fi, ji)) {
                    Class::Live
                } else if tested.contains(&(fi, ji)) {
                    Class::TestOnly
                } else {
                    Class::Unreached
                }
            });
            for line in fun.line..=f.src.tok(fun.body_end).line {
                owner.insert(line, class);
            }
            if fun.is_pub && class.is_some_and(|c| c != Class::Live) {
                listed[(class == Some(Class::Unreached)) as usize]
                    .push(format!("  {}:{} {}", f.src.path, fun.line, fun.name));
            }
        }
        let counts = lines.entry(&f.idx.crate_name).or_default();
        for class in owner.into_values().flatten() {
            counts[class as usize] += 1;
        }
    }
    lines.retain(|_, c| c.iter().sum::<usize>() > 0);

    let width = lines.keys().map(|k| k.len()).max().unwrap_or(0).max(5);
    let mut out = String::new();
    let mut row = |name: &str, c: [&dyn std::fmt::Display; 3]| {
        let _ = writeln!(out, "{name:width$}  {:>7}  {:>9}  {:>9}", c[0], c[1], c[2]);
    };
    row("crate", [&"live", &"test-only", &"unreached"]);
    let mut total = [0usize; 3];
    for (krate, c) in &lines {
        row(krate, [&c[0], &c[1], &c[2]]);
        for (t, n) in total.iter_mut().zip(c) {
            *t += n;
        }
    }
    row("total", [&total[0], &total[1], &total[2]]);
    for (title, fns) in ["test-only", "unreached"].iter().zip(&listed) {
        let _ = writeln!(out, "\n{title} pub fns ({}):", fns.len());
        for line in fns {
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

/// Every fn reachable from the root fns and the root names.
fn reach<'a>(
    mut fns: Vec<FnId>,
    mut names: Vec<&'a str>,
    by_name: &BTreeMap<&'a str, Vec<FnId>>,
    refs: &BTreeMap<FnId, Vec<&'a str>>,
) -> BTreeSet<FnId> {
    let mut seen_names: BTreeSet<&str> = BTreeSet::new();
    let mut reached: BTreeSet<FnId> = BTreeSet::new();
    loop {
        if let Some(id) = fns.pop() {
            if reached.insert(id) {
                names.extend(refs.get(&id).into_iter().flatten());
            }
        } else if let Some(name) = names.pop() {
            if seen_names.insert(name) {
                fns.extend(by_name.get(name).into_iter().flatten());
            }
        } else {
            return reached;
        }
    }
}
