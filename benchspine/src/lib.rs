//! # bq-spine
//!
//! The measurement spine of this repository: six seeded workloads driven
//! through the path a user or operator actually takes — `Connection` →
//! BQWP frame → `Server` session → `Db` lock → parse/optimize/lower →
//! `bq-exec` → heap/WAL → `Wal::sync` → replica ack → `Done` — each result
//! checked against an oracle, every metric printed by name with its unit.
//! A second, traced run attributes time to layers from the outside, with
//! the benchmark's own span recorder around each layer's public functions.
//! See `README.md` for the workload and metric tables.

pub mod gen;
pub mod harness;
pub mod json;
pub mod layers;
pub mod pin;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;
