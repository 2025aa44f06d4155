//! # bq-storage
//!
//! An in-memory storage substrate for the `big-queries` workspace: the layer
//! that plays the role of the 1995-era storage managers underneath the
//! relational systems Papadimitriou's essay surveys.
//!
//! The essay's claims are about algorithms (two-phase locking, normalization,
//! recursive query evaluation), not about any particular product, so this
//! substrate is deliberately *simulated*: pages live in memory rather than on
//! disk, but every structure — slotted pages, heap files, a buffer pool with
//! clock eviction, a B+-tree index, and a write-ahead log whose crash can
//! lose any unsynced suffix — exercises the same code paths a disk-backed
//! engine would. Recovery is not here: the engine that writes the log
//! (bq-core's `Db`) reads its records back after a crash.
//!
//! ## Layout
//!
//! * [`page`] — fixed-size page frames with checksums and LSNs.
//! * [`slotted`] — the classic slotted-page record layout.
//! * [`heap`] — unordered heap files of variable-length records.
//! * [`buffer`] — a pin-count buffer pool with clock (second-chance) eviction.
//! * [`btree`] — an order-configurable B+-tree with linked leaves.
//! * [`wal`] — a write-ahead log of logical records with a durable prefix.

pub mod btree;
pub mod buffer;
pub mod error;
pub mod heap;
pub mod page;
pub mod slotted;
pub mod wal;

pub use btree::BPlusTree;
pub use buffer::{BufferPool, BufferStats};
pub use error::StorageError;
pub use heap::{HeapFile, RecordId};
pub use page::{Page, PageId, PageStore, PAGE_SIZE};
pub use slotted::SlottedPage;
pub use wal::{LogRecord, Lsn, Wal};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StorageError>;
