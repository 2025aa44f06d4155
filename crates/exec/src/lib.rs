//! # bq-exec
//!
//! A physical execution engine for the relational algebra — the "make it
//! fast" half of the paper's §2/§6 arc. Codd's algebra won because the
//! Berkeley–IBM feasibility experiments showed it *could* be made fast;
//! this crate is that move for this repo.
//!
//! The logical [`Expr`](bq_relational::algebra::Expr) AST is lowered into a
//! [`PhysPlan`] tree of batch-at-a-time physical operators (sequential
//! scans, filters, projections, partitioned hash joins, hash distinct, set
//! operations, products), which the [`Executor`] then runs **morsel-driven
//! in parallel**: every operator's input is a list of fixed-size tuple
//! batches ("morsels"), and a pool of `std::thread::scope` workers pulls
//! morsels off a shared atomic cursor — the classic morsel-driven
//! parallelism scheme (Leis et al., SIGMOD '14) with materialized operator
//! boundaries.
//!
//! Selections over a base table are folded into the scan at lowering, with
//! their attribute names bound to column positions ([`BoundPred`]): the
//! scan is one pass that borrows the matches, and when the conjuncts fix a
//! leading-column prefix the pass starts from an ordered [`Seek`] into the
//! relation's tuple set instead of its first tuple (DESIGN.md §16).
//!
//! Joins are build/probe **partitioned hash joins**: both inputs are hash
//! partitioned on the join key across the worker count, and each partition
//! is then built and probed independently, in parallel.
//!
//! Set semantics are paid once (DESIGN.md §18): every plan ends in a set
//! build that removes duplicates and hands the rows on as a [`RowSet`],
//! still borrowed from the base relations; its consumer copies them into
//! a relation or encodes them where they lie. A `HashDistinct` remains
//! only on join and product inputs whose duplicates the join would
//! multiply.
//!
//! Every operator records an [`ExecStats`] node (rows in/out, batches,
//! wall time, build/probe split for joins), under a root node for the set
//! build, so `EXPLAIN`-style reporting falls out of every execution.
//!
//! The original single-threaded recursive interpreter
//! ([`bq_relational::algebra::eval`]) remains in place as the differential
//! testing oracle: `tests/exec_equivalence.rs` at the workspace root
//! proves `parallel ≡ sequential ≡ oracle` on hundreds of random
//! expression/database pairs.

pub mod engine;
pub mod plan;
pub mod pred;
pub mod stats;

pub use engine::{ExecMode, Executor, Row, RowSet, DEFAULT_MORSEL_SIZE};
pub use plan::{lower, PhysPlan, Seek, SetOpKind};
pub use pred::BoundPred;
pub use stats::ExecStats;
