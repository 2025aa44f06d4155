//! Wire-conformance violation in the WAL codec (virtual path
//! crates/storage/src/wal.rs): a log record variant that is encoded but
//! never decoded, so a log holding one cannot be read back.

pub enum LogRecord {
    Begin(u64),
    Commit(u64),
    CreateIndex { table: String },
}

impl LogRecord {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            LogRecord::Begin(t) => vec![1, *t as u8],
            LogRecord::Commit(t) => vec![2, *t as u8],
            LogRecord::CreateIndex { table } => table.as_bytes().to_vec(),
        }
    }

    fn decode(buf: &[u8]) -> Option<LogRecord> {
        match buf[0] {
            1 => Some(LogRecord::Begin(u64::from(buf[1]))),
            2 => Some(LogRecord::Commit(u64::from(buf[1]))),
            _ => None,
        }
    }
}
