//! Error type for the facade engine.

use std::fmt;

/// Errors surfaced by the [`crate::Db`] facade.
#[derive(Debug)]
pub enum CoreError {
    /// Relational-layer error (schema, evaluation, parsing).
    Rel(bq_relational::RelError),
    /// Datalog-layer error.
    Datalog(bq_datalog::DlError),
    /// Storage-layer error.
    Storage(bq_storage::StorageError),
    /// A table with this name already exists.
    TableExists(String),
    /// The named table does not exist.
    NoSuchTable(String),
    /// The name is in the `bq.` namespace, which the virtual system
    /// catalog owns.
    ReservedName(String),
    /// The transaction handle is unknown or already finished.
    BadTxn(u64),
    /// A lock conflict: another active transaction holds the table.
    Locked {
        /// The table that is locked.
        table: String,
    },
    /// Record bytes could not be decoded into a tuple.
    Codec(String),
    /// The resource governor stopped the statement: deadline, cancellation,
    /// memory budget, iteration cap, or admission shedding. Layer-specific
    /// `Governed` wrappers ([`bq_relational::RelError::Governed`] etc.) are
    /// normalised to this variant so callers match one place.
    Governor(bq_governor::GovernorError),
}

impl CoreError {
    /// The governor error behind this failure, if it was a governed stop.
    pub fn governor(&self) -> Option<&bq_governor::GovernorError> {
        match self {
            CoreError::Governor(g) => Some(g),
            _ => None,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Rel(e) => write!(f, "{e}"),
            CoreError::Datalog(e) => write!(f, "{e}"),
            CoreError::Storage(e) => write!(f, "{e}"),
            CoreError::TableExists(t) => write!(f, "table `{t}` already exists"),
            CoreError::NoSuchTable(t) => write!(f, "no such table `{t}`"),
            CoreError::ReservedName(t) => {
                write!(f, "`{t}` is reserved: `bq.` names the system catalog")
            }
            CoreError::BadTxn(h) => write!(f, "unknown transaction handle {h}"),
            CoreError::Locked { table } => write!(f, "table `{table}` is locked"),
            CoreError::Codec(m) => write!(f, "codec error: {m}"),
            CoreError::Governor(g) => write!(f, "{g}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<bq_relational::RelError> for CoreError {
    fn from(e: bq_relational::RelError) -> Self {
        match e {
            bq_relational::RelError::Governed(g) => CoreError::Governor(g),
            other => CoreError::Rel(other),
        }
    }
}

impl From<bq_datalog::DlError> for CoreError {
    fn from(e: bq_datalog::DlError) -> Self {
        match e {
            bq_datalog::DlError::Governed(g) => CoreError::Governor(g),
            other => CoreError::Datalog(other),
        }
    }
}

impl From<bq_storage::StorageError> for CoreError {
    fn from(e: bq_storage::StorageError) -> Self {
        match e {
            bq_storage::StorageError::Governed(g) => CoreError::Governor(g),
            other => CoreError::Storage(other),
        }
    }
}

impl From<bq_util::DecodeError> for CoreError {
    fn from(e: bq_util::DecodeError) -> Self {
        CoreError::Codec(e.to_string())
    }
}

impl From<bq_governor::GovernorError> for CoreError {
    fn from(g: bq_governor::GovernorError) -> Self {
        CoreError::Governor(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = bq_relational::RelError::UnknownRelation("r".into()).into();
        assert!(e.to_string().contains("`r`"));
        assert!(CoreError::Locked { table: "t".into() }
            .to_string()
            .contains("locked"));
    }
}
