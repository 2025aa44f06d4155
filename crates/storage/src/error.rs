//! Error type shared by every storage component.

use std::fmt;

/// Errors surfaced by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A page id was requested that the backing store has never allocated.
    PageNotFound(u32),
    /// A record id pointed at a slot that does not exist or was deleted.
    RecordNotFound {
        /// Page the record was expected on.
        page: u32,
        /// Slot within the page.
        slot: u16,
    },
    /// A record was too large to ever fit in a page.
    RecordTooLarge {
        /// Size of the rejected record in bytes.
        size: usize,
        /// Maximum size a page can hold.
        max: usize,
    },
    /// The page has no room for the requested insertion.
    PageFull,
    /// Page checksum did not match its contents: the stored checksum
    /// (`expected`) disagrees with the one computed from the bytes
    /// (`found`). Raised by [`crate::PageStore::read`] on torn or
    /// bit-flipped pages; torture tests assert on the typed fields.
    Corruption {
        /// Page whose checksum failed.
        page: u32,
        /// Checksum stored in the page header.
        expected: u32,
        /// Checksum computed from the page contents.
        found: u32,
    },
    /// The buffer pool had no evictable frame (everything pinned).
    PoolExhausted,
    /// A frame was unpinned more times than it was pinned.
    NotPinned(u32),
    /// A WAL record could not be decoded at the given offset.
    CorruptLog(usize),
    /// A B+-tree key already exists and duplicates were not permitted.
    DuplicateKey,
    /// A dirty frame could not be written back to the store (injected via
    /// the `pool.writeback.fail` failpoint).
    WritebackFailed(u32),
    /// The resource governor refused the operation (memory budget, deadline,
    /// cancellation). Raised by the buffer pool when faulting in a page would
    /// exceed the attached [`bq_governor::MemoryBudget`].
    Governed(bq_governor::GovernorError),
    /// The backing device is out of space (ENOSPC). Raised by
    /// [`crate::Wal::append`] / [`crate::Wal::sync`] when the
    /// `wal.append.enospc` failpoint simulates a full log device. The
    /// in-flight transaction aborts; the engine stays read-available.
    DiskFull,
    /// A WAL append was torn (the `wal.append.torn` failpoint): the log
    /// ends in a fragment, and [`crate::Wal`] refuses every append and
    /// sync until [`crate::Wal::crash`] cuts the fragment off — a record
    /// written after it would be lost with it.
    TornLog,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::PageNotFound(id) => write!(f, "page {id} not found"),
            StorageError::RecordNotFound { page, slot } => {
                write!(f, "record not found at page {page}, slot {slot}")
            }
            StorageError::RecordTooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds page capacity of {max}")
            }
            StorageError::PageFull => write!(f, "page full"),
            StorageError::Corruption {
                page,
                expected,
                found,
            } => {
                write!(
                    f,
                    "corruption on page {page}: stored checksum {expected:#010x}, computed {found:#010x}"
                )
            }
            StorageError::PoolExhausted => {
                write!(f, "buffer pool exhausted: all frames pinned")
            }
            StorageError::NotPinned(id) => {
                write!(f, "page {id} unpinned more times than pinned")
            }
            StorageError::CorruptLog(off) => {
                write!(f, "corrupt WAL record at offset {off}")
            }
            StorageError::DuplicateKey => write!(f, "duplicate key"),
            StorageError::WritebackFailed(id) => {
                write!(f, "writeback of page {id} failed (injected fault)")
            }
            StorageError::Governed(g) => write!(f, "governed: {g}"),
            StorageError::DiskFull => {
                write!(f, "storage device full (ENOSPC): WAL write refused")
            }
            StorageError::TornLog => {
                write!(f, "WAL append torn: the log refuses writes until a crash")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<bq_governor::GovernorError> for StorageError {
    fn from(g: bq_governor::GovernorError) -> StorageError {
        StorageError::Governed(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(
            StorageError::PageNotFound(7).to_string(),
            "page 7 not found"
        );
        assert!(StorageError::RecordNotFound { page: 1, slot: 2 }
            .to_string()
            .contains("slot 2"));
        assert!(StorageError::RecordTooLarge {
            size: 9000,
            max: 4084
        }
        .to_string()
        .contains("9000"));
        let corruption = StorageError::Corruption {
            page: 3,
            expected: 0xdead_beef,
            found: 0x0bad_f00d,
        }
        .to_string();
        assert!(corruption.contains("page 3"), "{corruption}");
        assert!(corruption.contains("0xdeadbeef"), "{corruption}");
        assert!(corruption.contains("0x0badf00d"), "{corruption}");
        assert!(StorageError::WritebackFailed(5)
            .to_string()
            .contains("page 5"));
        assert!(StorageError::DiskFull.to_string().contains("ENOSPC"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&StorageError::PageFull);
    }
}
