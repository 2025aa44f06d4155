//! # bq-core
//!
//! The facade a downstream user adopts: a [`Db`] that ties the substrates
//! together — storage-backed tables ([`bq_storage`]), secondary B+-tree
//! indexes with point/range lookups, SQL-ish / algebra / calculus
//! querying ([`bq_relational`]), recursive queries ([`bq_datalog`]),
//! transactional sessions with table locks and WAL recovery ([`bq_txn`] +
//! [`bq_storage::wal`]), and a schema-design advisor ([`bq_design`]) in
//! the tradition of the "more than twenty database design tools" the
//! paper counts.

pub mod advisor;
pub mod codec;
pub mod db;
pub mod error;
pub mod slowlog;
mod table;
pub mod vtab;
pub mod watch;

pub use advisor::{advise, DesignReport};
pub use db::{Answer, Db, Query, SessionLimits, TxnHandle};
pub use error::CoreError;
pub use slowlog::{SlowEntry, SlowLog};
pub use vtab::{
    BackupRegistry, BackupRow, ReplicaRegistry, ReplicaRow, SessionRegistry, SessionRow,
    VirtualTable,
};
pub use watch::WalWatch;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
