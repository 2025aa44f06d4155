//! The registered discipline passes.
//!
//! Two registries: [`all`] holds the per-file passes (phase 1 of
//! `bqlint check` — each sees one [`crate::source::SourceFile`] at a
//! time), [`workspace`] holds the cross-file passes (phase 2 — each
//! sees the whole [`crate::index::Workspace`] item index). [`catalog`]
//! chains both for the CLI, so `bqlint list` / `--explain` can never
//! drift from the pass set.

pub mod atomics;
pub mod blocking;
pub mod cancellation;
pub mod failpoints;
pub mod lock_graph;
pub mod operator_stats;
pub mod panics;
pub mod site_registry;
pub mod timing;
pub mod wire_conformance;

use crate::index::WorkspaceLint;
use crate::source::Lint;

/// Every registered per-file pass, in the order they run and are
/// listed.
pub fn all() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(timing::Timing),
        Box::new(cancellation::Cancellation),
        Box::new(failpoints::Failpoints),
        Box::new(panics::Panics),
        Box::new(atomics::Atomics),
        Box::new(operator_stats::OperatorStats),
    ]
}

/// Every registered workspace (cross-file) pass.
pub fn workspace() -> Vec<Box<dyn WorkspaceLint>> {
    vec![
        Box::new(lock_graph::LockGraph),
        Box::new(blocking::Blocking),
        Box::new(wire_conformance::WireConformance),
        Box::new(site_registry::SiteRegistry),
    ]
}

/// `(name, summary, explain)` for every pass in both registries, in
/// listing order: per-file first, then workspace.
pub fn catalog() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut out: Vec<(&'static str, &'static str, &'static str)> = all()
        .iter()
        .map(|l| (l.name(), l.summary(), l.explain()))
        .collect();
    out.extend(
        workspace()
            .iter()
            .map(|l| (l.name(), l.summary(), l.explain())),
    );
    out
}
