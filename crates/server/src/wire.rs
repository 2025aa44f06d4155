//! The bq wire protocol, version 1.
//!
//! Every message is one *frame*: a little-endian `u32` body length
//! followed by the body; the first body byte is the opcode. Bodies are
//! built from four primitives — `u8`, little-endian `u32`/`u64`, and
//! length-prefixed UTF-8 strings — plus tuples in the storage codec
//! ([`bq_core::codec`]). A connection opens with a [`Request::Hello`]
//! carrying the `b"BQWP"` magic and the client's protocol version; the
//! server answers [`Response::HelloOk`] (same version, session id) or a
//! typed [`Response::Error`] and closes. Query results stream as one
//! [`Response::RowSchema`] frame, zero or more [`Response::Rows`]
//! batches, and a terminating [`Response::Done`].
//!
//! Decoding is total: any byte sequence either parses or returns
//! [`WireError`] — never a panic — which is what the protocol-fuzz
//! integration test leans on.

use bq_core::{CoreError, SessionLimits};
use bq_exec::ExecMode;
use bq_governor::GovernorError;
use bq_relational::{Schema, Tuple, Type};
use bq_util::{ByteReader, ByteWriter, DecodeError};
use std::fmt;
use std::io::{self, BufReader, Read, Write};

/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u32 = 1;

/// Handshake magic: the first four body bytes of a `Hello`.
pub const MAGIC: [u8; 4] = *b"BQWP";

/// Hard cap on a frame body; a length prefix above this is a protocol
/// error, not an allocation.
pub const MAX_FRAME: usize = 16 << 20;

/// A malformed frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> WireError {
        WireError(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------

/// The fill at which a [`Framed`] socket's queued frames go to the
/// socket without waiting for [`Framed::flush`], and the most
/// [`read_frame`] reserves for a body before its bytes arrive.
pub const FRAME_BUF: usize = 64 << 10;

/// Write one `len | body` frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Read one frame body, rejecting empty and oversized frames. The body
/// buffer grows as bytes arrive, so a header claiming 16 MiB followed by
/// EOF costs at most one [`FRAME_BUF`], and a short body is
/// `UnexpectedEof`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    let mut body = Vec::with_capacity(len.min(FRAME_BUF));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame body ended after {} of {len} bytes", body.len()),
        ));
    }
    Ok(body)
}

/// One end of a framed connection. Reads go through a buffer (std's
/// default size; a body larger than it is read straight into place), so
/// a frame's header and body usually arrive in one `recv`. Frames are
/// queued in an outgoing buffer, encoded straight into it, and reach the
/// socket in one `write` per [`Framed::flush`] — the server flushes once
/// per reply — or as soon as the queue passes [`FRAME_BUF`], so a large
/// reply streams in buffer-sized writes. Nothing queued is sent until
/// then: flush before blocking on the peer.
pub struct Framed<S: Read + Write> {
    io: BufReader<S>,
    out: Vec<u8>,
}

impl<S: Read + Write> Framed<S> {
    /// Wrap a connected stream.
    pub fn new(stream: S) -> Framed<S> {
        Framed {
            io: BufReader::new(stream),
            out: Vec::new(),
        }
    }

    /// The underlying stream, e.g. to set its deadlines.
    pub fn get_ref(&self) -> &S {
        self.io.get_ref()
    }

    /// The underlying stream, for bytes that must bypass the queue.
    pub fn get_mut(&mut self) -> &mut S {
        self.io.get_mut()
    }

    /// Read one frame body (see [`read_frame`]).
    pub fn read_frame(&mut self) -> io::Result<Vec<u8>> {
        read_frame(&mut self.io)
    }

    /// Queue one frame whose body `encode` appends in place, and return
    /// the body's length.
    pub fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<usize> {
        let at = self.out.len();
        self.out.put_u32(0);
        encode(&mut self.out);
        let len = self.out.len() - at - 4;
        self.out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
        if self.out.len() >= FRAME_BUF {
            self.flush()?;
        }
        Ok(len)
    }

    /// Queue one encoded frame body.
    pub fn write_frame(&mut self, body: &[u8]) -> io::Result<()> {
        self.push(|out| out.extend_from_slice(body)).map(drop)
    }

    /// Hand everything queued to the socket in one `write_all`.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let sent = self.io.get_mut().write_all(&self.out);
        self.out.clear();
        // A snapshot frame may have grown the queue far past its usual size.
        self.out.shrink_to(FRAME_BUF);
        sent
    }
}

impl<S: Read + Write> Read for Framed<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.io.read(buf)
    }
}

// ---------------------------------------------------------------------
// Body primitives
// ---------------------------------------------------------------------

fn opt_u64(r: &mut ByteReader<'_>) -> Result<Option<u64>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        other => Err(WireError(format!("bad option tag {other}"))),
    }
}

fn type_byte(ty: Type) -> u8 {
    match ty {
        Type::Int => 0,
        Type::Str => 1,
        Type::Bool => 2,
    }
}

fn type_from_byte(b: u8) -> Result<Type, WireError> {
    match b {
        0 => Ok(Type::Int),
        1 => Ok(Type::Str),
        2 => Ok(Type::Bool),
        other => Err(WireError(format!("bad type byte {other}"))),
    }
}

fn put_mode(out: &mut Vec<u8>, mode: ExecMode) {
    let (kind, workers) = match mode {
        ExecMode::Sequential => (0, 0),
        ExecMode::Parallel(n) => (1, n as u32),
    };
    out.put_u8(kind);
    out.put_u32(workers);
}

fn mode_from(r: &mut ByteReader<'_>) -> Result<ExecMode, WireError> {
    let kind = r.u8()?;
    let workers = r.u32()? as usize;
    match kind {
        0 => Ok(ExecMode::Sequential),
        1 => Ok(ExecMode::Parallel(workers.max(1))),
        other => Err(WireError(format!("bad exec-mode byte {other}"))),
    }
}

// ---------------------------------------------------------------------
// Requests (client → server)
// ---------------------------------------------------------------------

const OP_HELLO: u8 = 0x01;
const OP_QUERY: u8 = 0x02;
const OP_PREPARE: u8 = 0x03;
const OP_EXECUTE: u8 = 0x04;
const OP_KILL: u8 = 0x05;
const OP_SET_LIMITS: u8 = 0x06;
const OP_SET_MODE: u8 = 0x07;
const OP_LIST_QUERIES: u8 = 0x08;
const OP_CLOSE: u8 = 0x09;
const OP_QUERY_TAGGED: u8 = 0x0A;
const OP_SUBSCRIBE: u8 = 0x0B;
const OP_REPL_ACK: u8 = 0x0C;

/// [`Request::Subscribe`] `start` value that asks for a full bootstrap:
/// the server answers with a [`Response::Snapshot`] before streaming.
pub const SUBSCRIBE_BOOTSTRAP: u64 = u64::MAX;

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Must be the first frame on a connection: magic, protocol version,
    /// and a free-form client identifier.
    Hello {
        /// Client's protocol version; the server refuses a mismatch.
        version: u32,
        /// Client software name, for logs.
        client: String,
    },
    /// Parse and run one statement (SQL-ish select, create table,
    /// insert into, begin/commit/rollback).
    Query {
        /// The statement text.
        sql: String,
    },
    /// Parse and optimize a select into a server-side prepared plan.
    Prepare {
        /// The select text.
        sql: String,
    },
    /// Run a previously prepared plan.
    Execute {
        /// Id returned by [`Response::Prepared`].
        stmt: u64,
    },
    /// Cancel a running query (any session) by its registry id.
    Kill {
        /// Id shown by [`Request::ListQueries`] / returned in
        /// [`Response::Done`].
        query: u64,
    },
    /// Replace this session's resource limits.
    SetLimits {
        /// The new limits; `None` fields are unlimited.
        limits: SessionLimits,
    },
    /// Set this session's execution mode.
    SetMode {
        /// Sequential or morsel-parallel.
        mode: ExecMode,
    },
    /// List the queries currently running on the server.
    ListQueries,
    /// Cleanly end the session (open transactions are rolled back).
    Close,
    /// Run one statement tagged with a client idempotency id. The server
    /// deduplicates on (session client identity, request id): a retry of
    /// an already-committed write answers success without re-applying.
    QueryTagged {
        /// The statement text.
        sql: String,
        /// Client-chosen request id, unique per client identity.
        request: u64,
    },
    /// Turn this connection into a replication stream. `start` is the
    /// primary WAL byte offset to resume from, or
    /// [`SUBSCRIBE_BOOTSTRAP`] to request a snapshot first.
    Subscribe {
        /// Resume offset, or [`SUBSCRIBE_BOOTSTRAP`].
        start: u64,
    },
    /// Replica → primary acknowledgement: every WAL byte below `through`
    /// has been applied. Also the resync signal — an ack below the
    /// shipped position rewinds the stream (segment loss recovery).
    ReplAck {
        /// Applied-through byte offset.
        through: u64,
    },
}

impl Request {
    /// Encode to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            Request::Hello { version, client } => {
                out.put_u8(OP_HELLO);
                out.extend_from_slice(&MAGIC);
                out.put_u32(*version);
                out.put_str(client);
            }
            Request::Query { sql } => {
                out.put_u8(OP_QUERY);
                out.put_str(sql);
            }
            Request::Prepare { sql } => {
                out.put_u8(OP_PREPARE);
                out.put_str(sql);
            }
            Request::Execute { stmt } => {
                out.put_u8(OP_EXECUTE);
                out.put_u64(*stmt);
            }
            Request::Kill { query } => {
                out.put_u8(OP_KILL);
                out.put_u64(*query);
            }
            Request::SetLimits { limits } => {
                out.put_u8(OP_SET_LIMITS);
                // Each limit is a presence byte, then the value if present.
                for limit in [
                    limits.memory_bytes,
                    limits.deadline_ms,
                    limits.max_iterations,
                ] {
                    out.put_u8(u8::from(limit.is_some()));
                    if let Some(v) = limit {
                        out.put_u64(v);
                    }
                }
            }
            Request::SetMode { mode } => {
                out.put_u8(OP_SET_MODE);
                put_mode(&mut out, *mode);
            }
            Request::ListQueries => out.put_u8(OP_LIST_QUERIES),
            Request::Close => out.put_u8(OP_CLOSE),
            Request::QueryTagged { sql, request } => {
                out.put_u8(OP_QUERY_TAGGED);
                out.put_str(sql);
                out.put_u64(*request);
            }
            Request::Subscribe { start } => {
                out.put_u8(OP_SUBSCRIBE);
                out.put_u64(*start);
            }
            Request::ReplAck { through } => {
                out.put_u8(OP_REPL_ACK);
                out.put_u64(*through);
            }
        }
        out
    }

    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> Result<Request, WireError> {
        let mut r = ByteReader::new(body);
        let req = match r.u8()? {
            OP_HELLO => {
                if r.take(4)? != MAGIC {
                    return Err(WireError("bad handshake magic".into()));
                }
                Request::Hello {
                    version: r.u32()?,
                    client: r.str()?.to_owned(),
                }
            }
            OP_QUERY => Request::Query {
                sql: r.str()?.to_owned(),
            },
            OP_PREPARE => Request::Prepare {
                sql: r.str()?.to_owned(),
            },
            OP_EXECUTE => Request::Execute { stmt: r.u64()? },
            OP_KILL => Request::Kill { query: r.u64()? },
            OP_SET_LIMITS => Request::SetLimits {
                limits: SessionLimits {
                    memory_bytes: opt_u64(&mut r)?,
                    deadline_ms: opt_u64(&mut r)?,
                    max_iterations: opt_u64(&mut r)?,
                },
            },
            OP_SET_MODE => Request::SetMode {
                mode: mode_from(&mut r)?,
            },
            OP_LIST_QUERIES => Request::ListQueries,
            OP_CLOSE => Request::Close,
            OP_QUERY_TAGGED => Request::QueryTagged {
                sql: r.str()?.to_owned(),
                request: r.u64()?,
            },
            OP_SUBSCRIBE => Request::Subscribe { start: r.u64()? },
            OP_REPL_ACK => Request::ReplAck { through: r.u64()? },
            other => return Err(WireError(format!("bad request opcode {other:#04x}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Responses (server → client)
// ---------------------------------------------------------------------

const OP_HELLO_OK: u8 = 0x81;
const OP_ROW_SCHEMA: u8 = 0x82;
const OP_ROWS: u8 = 0x83;
const OP_DONE: u8 = 0x84;
const OP_PREPARED: u8 = 0x85;
const OP_KILLED: u8 = 0x86;
const OP_QUERIES: u8 = 0x87;
const OP_OK: u8 = 0x88;
const OP_ERROR: u8 = 0x89;
const OP_SNAPSHOT: u8 = 0x8A;
const OP_WAL_SEGMENT: u8 = 0x8B;
const OP_GOING_AWAY: u8 = 0x8C;

/// One row of [`Response::Queries`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryInfo {
    /// Registry id, valid as a [`Request::Kill`] target while running.
    pub query: u64,
    /// Session the query belongs to.
    pub session: u64,
    /// Statement text.
    pub sql: String,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful handshake.
    HelloOk {
        /// Server's protocol version (equals the client's).
        version: u32,
        /// Server-assigned session id.
        session: u64,
    },
    /// First frame of a result stream: the column names and types.
    RowSchema {
        /// `(name, type)` per column, in order.
        cols: Vec<(String, Type)>,
    },
    /// One batch of result tuples (storage-codec encoded).
    Rows {
        /// The batch.
        tuples: Vec<Tuple>,
    },
    /// Terminates a statement: total rows and the query's registry id.
    Done {
        /// Rows streamed (0 for non-selects).
        rows: u64,
        /// Registry id the statement ran under (0 for unregistered work).
        query: u64,
        /// Human-readable outcome, e.g. `created table emp`.
        message: String,
    },
    /// A plan was prepared.
    Prepared {
        /// Id to pass to [`Request::Execute`].
        stmt: u64,
    },
    /// Answer to [`Request::Kill`].
    Killed {
        /// Was a running query with that id found (and cancelled)?
        found: bool,
    },
    /// Answer to [`Request::ListQueries`].
    Queries {
        /// Currently running queries.
        entries: Vec<QueryInfo>,
    },
    /// Generic success with a message.
    Ok {
        /// Human-readable confirmation.
        message: String,
    },
    /// Typed failure; the session stays usable unless the code says
    /// otherwise ([`ErrorCode::Protocol`] closes the connection).
    Error {
        /// Machine-readable taxonomy entry.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Bootstrap payload for a [`Request::Subscribe`] with
    /// [`SUBSCRIBE_BOOTSTRAP`]: a full engine snapshot in the
    /// `bq_core::Db::snapshot_bytes` format.
    Snapshot {
        /// The snapshot image.
        bytes: Vec<u8>,
    },
    /// One shipped chunk of the primary's durable WAL.
    WalSegment {
        /// Primary WAL byte offset of the first byte in `bytes`.
        start: u64,
        /// Raw WAL bytes (whole-record aligned on the primary side).
        bytes: Vec<u8>,
    },
    /// The server is draining; long-lived peers should reconnect
    /// elsewhere instead of waiting out a read timeout.
    GoingAway {
        /// Human-readable reason.
        message: String,
    },
}

impl Response {
    /// Encode to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            Response::HelloOk { version, session } => {
                out.put_u8(OP_HELLO_OK);
                out.put_u32(*version);
                out.put_u64(*session);
            }
            Response::RowSchema { cols } => {
                out.put_u8(OP_ROW_SCHEMA);
                out.put_u32(cols.len() as u32);
                for (name, ty) in cols {
                    out.put_str(name);
                    out.put_u8(type_byte(*ty));
                }
            }
            Response::Rows { tuples } => encode_rows(&mut out, tuples),
            Response::Done {
                rows,
                query,
                message,
            } => {
                out.put_u8(OP_DONE);
                out.put_u64(*rows);
                out.put_u64(*query);
                out.put_str(message);
            }
            Response::Prepared { stmt } => {
                out.put_u8(OP_PREPARED);
                out.put_u64(*stmt);
            }
            Response::Killed { found } => {
                out.put_u8(OP_KILLED);
                out.put_u8(u8::from(*found));
            }
            Response::Queries { entries } => {
                out.put_u8(OP_QUERIES);
                out.put_u32(entries.len() as u32);
                for e in entries {
                    out.put_u64(e.query);
                    out.put_u64(e.session);
                    out.put_str(&e.sql);
                }
            }
            Response::Ok { message } => {
                out.put_u8(OP_OK);
                out.put_str(message);
            }
            Response::Error { code, message } => {
                out.put_u8(OP_ERROR);
                out.put_u8(code.as_u8());
                out.put_str(message);
            }
            Response::Snapshot { bytes } => {
                out.put_u8(OP_SNAPSHOT);
                out.put_bytes(bytes);
            }
            Response::WalSegment { start, bytes } => {
                out.put_u8(OP_WAL_SEGMENT);
                out.put_u64(*start);
                out.put_bytes(bytes);
            }
            Response::GoingAway { message } => {
                out.put_u8(OP_GOING_AWAY);
                out.put_str(message);
            }
        }
        out
    }

    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> Result<Response, WireError> {
        let mut r = ByteReader::new(body);
        let resp = match r.u8()? {
            OP_HELLO_OK => Response::HelloOk {
                version: r.u32()?,
                session: r.u64()?,
            },
            // A column is at least a string length and a type byte.
            OP_ROW_SCHEMA => Response::RowSchema {
                cols: r.list(5, |r| {
                    let name = r.str()?.to_owned();
                    Ok::<_, WireError>((name, type_from_byte(r.u8()?)?))
                })?,
            },
            // A row is at least its length prefix.
            OP_ROWS => Response::Rows {
                tuples: r.list(4, |r| {
                    bq_core::codec::decode(r.bytes()?)
                        .map_err(|e| WireError(format!("row codec: {e}")))
                })?,
            },
            OP_DONE => Response::Done {
                rows: r.u64()?,
                query: r.u64()?,
                message: r.str()?.to_owned(),
            },
            OP_PREPARED => Response::Prepared { stmt: r.u64()? },
            OP_KILLED => Response::Killed {
                found: r.u8()? != 0,
            },
            // An entry is at least two ids and a string length.
            OP_QUERIES => Response::Queries {
                entries: r.list(20, |r| {
                    Ok::<_, WireError>(QueryInfo {
                        query: r.u64()?,
                        session: r.u64()?,
                        sql: r.str()?.to_owned(),
                    })
                })?,
            },
            OP_OK => Response::Ok {
                message: r.str()?.to_owned(),
            },
            OP_ERROR => Response::Error {
                code: ErrorCode::from_u8(r.u8()?),
                message: r.str()?.to_owned(),
            },
            OP_SNAPSHOT => Response::Snapshot {
                bytes: r.bytes()?.to_vec(),
            },
            OP_WAL_SEGMENT => Response::WalSegment {
                start: r.u64()?,
                bytes: r.bytes()?.to_vec(),
            },
            OP_GOING_AWAY => Response::GoingAway {
                message: r.str()?.to_owned(),
            },
            other => return Err(WireError(format!("bad response opcode {other:#04x}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Append a [`Response::Rows`] body to `out` from borrowed tuples: the
/// bytes `Response::Rows { tuples }.encode()` gives, with no owned batch.
pub fn encode_rows<'a>(out: &mut Vec<u8>, tuples: impl IntoIterator<Item = &'a Tuple>) {
    out.put_u8(OP_ROWS);
    // The count and each tuple's length are placeholders, patched once
    // known, so every tuple is encoded in place.
    let count_at = out.len();
    out.put_u32(0);
    let mut count = 0u32;
    for t in tuples {
        let at = out.len();
        out.put_u32(0);
        bq_core::codec::encode_into(out, t);
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
        count += 1;
    }
    out[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
}

/// Build the wire [`Schema`] carried by [`Response::RowSchema`].
pub fn schema_from_cols(cols: &[(String, Type)]) -> Result<Schema, WireError> {
    let attrs: Vec<(&str, Type)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    Schema::new(&attrs).map_err(|e| WireError(e.to_string()))
}

// ---------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------

/// Machine-readable error classes carried by [`Response::Error`].
///
/// The first block mirrors [`CoreError`]; the second mirrors
/// [`GovernorError`]; the rest are transport/session conditions that only
/// exist at the wire layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Malformed frame or handshake; the server closes the connection.
    Protocol = 1,
    /// Statement understood but not servable over the wire.
    Unsupported = 2,
    /// Relational-layer failure (parse, schema, evaluation).
    Query = 3,
    /// Datalog-layer failure.
    Datalog = 4,
    /// Storage-layer failure.
    Storage = 5,
    /// `create table` of an existing table.
    TableExists = 6,
    /// Statement referenced a missing table.
    NoSuchTable = 7,
    /// Unknown or finished transaction handle.
    BadTxn = 8,
    /// Lock conflict with another transaction.
    Locked = 9,
    /// Row bytes failed to decode.
    Codec = 10,
    /// The statement ran past its deadline.
    DeadlineExceeded = 11,
    /// The statement was cancelled (`KILL` or shutdown).
    Cancelled = 12,
    /// The statement exceeded its memory budget.
    MemoryExceeded = 13,
    /// Admission control shed the connection or statement.
    Overloaded = 14,
    /// A fixpoint hit its iteration cap.
    IterationLimit = 15,
    /// The server is shutting down.
    Shutdown = 16,
    /// `Execute` named an unknown prepared-statement id.
    NoSuchStatement = 17,
    /// Transaction-state misuse (nested `begin`, `commit` outside one).
    TxnState = 18,
    /// Transport failure talking to the peer.
    Io = 19,
    /// A socket deadline expired (connect, read, or write).
    Timeout = 20,
    /// The server announced a drain; reconnect to another endpoint.
    GoingAway = 21,
    /// A write was sent to a read-only replica.
    ReadOnlyReplica = 22,
    /// Forward-compatibility catch-all for codes this build predates.
    Unknown = 255,
}

impl ErrorCode {
    /// Wire byte for this code.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decode a wire byte; unknown bytes map to [`ErrorCode::Unknown`].
    pub fn from_u8(b: u8) -> ErrorCode {
        match b {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Unsupported,
            3 => ErrorCode::Query,
            4 => ErrorCode::Datalog,
            5 => ErrorCode::Storage,
            6 => ErrorCode::TableExists,
            7 => ErrorCode::NoSuchTable,
            8 => ErrorCode::BadTxn,
            9 => ErrorCode::Locked,
            10 => ErrorCode::Codec,
            11 => ErrorCode::DeadlineExceeded,
            12 => ErrorCode::Cancelled,
            13 => ErrorCode::MemoryExceeded,
            14 => ErrorCode::Overloaded,
            15 => ErrorCode::IterationLimit,
            16 => ErrorCode::Shutdown,
            17 => ErrorCode::NoSuchStatement,
            18 => ErrorCode::TxnState,
            19 => ErrorCode::Io,
            20 => ErrorCode::Timeout,
            21 => ErrorCode::GoingAway,
            22 => ErrorCode::ReadOnlyReplica,
            _ => ErrorCode::Unknown,
        }
    }

    /// The wire code for an engine error.
    pub fn from_core(e: &CoreError) -> ErrorCode {
        match e {
            CoreError::Rel(_) => ErrorCode::Query,
            CoreError::Datalog(_) => ErrorCode::Datalog,
            CoreError::Storage(_) => ErrorCode::Storage,
            CoreError::TableExists(_) => ErrorCode::TableExists,
            CoreError::NoSuchTable(_) => ErrorCode::NoSuchTable,
            CoreError::BadTxn(_) => ErrorCode::BadTxn,
            CoreError::Locked { .. } => ErrorCode::Locked,
            CoreError::Codec(_) => ErrorCode::Codec,
            CoreError::Governor(g) => ErrorCode::from_governor(g),
        }
    }

    /// The wire code for a governor stop.
    pub fn from_governor(g: &GovernorError) -> ErrorCode {
        match g {
            GovernorError::DeadlineExceeded { .. } => ErrorCode::DeadlineExceeded,
            GovernorError::Cancelled => ErrorCode::Cancelled,
            GovernorError::MemoryExceeded { .. } => ErrorCode::MemoryExceeded,
            GovernorError::Overloaded { .. } => ErrorCode::Overloaded,
            GovernorError::IterationLimit { .. } => ErrorCode::IterationLimit,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Query => "query",
            ErrorCode::Datalog => "datalog",
            ErrorCode::Storage => "storage",
            ErrorCode::TableExists => "table-exists",
            ErrorCode::NoSuchTable => "no-such-table",
            ErrorCode::BadTxn => "bad-txn",
            ErrorCode::Locked => "locked",
            ErrorCode::Codec => "codec",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::MemoryExceeded => "memory-exceeded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::IterationLimit => "iteration-limit",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::NoSuchStatement => "no-such-statement",
            ErrorCode::TxnState => "txn-state",
            ErrorCode::Io => "io",
            ErrorCode::Timeout => "timeout",
            ErrorCode::GoingAway => "going-away",
            ErrorCode::ReadOnlyReplica => "read-only-replica",
            ErrorCode::Unknown => "unknown",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_relational::Value;

    fn roundtrip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Hello {
            version: PROTOCOL_VERSION,
            client: "bqsh".into(),
        });
        roundtrip_req(Request::Query {
            sql: "select e.name from emp e".into(),
        });
        roundtrip_req(Request::Prepare {
            sql: "select …".into(),
        });
        roundtrip_req(Request::Execute { stmt: 7 });
        roundtrip_req(Request::Kill { query: u64::MAX });
        roundtrip_req(Request::SetLimits {
            limits: SessionLimits {
                memory_bytes: Some(1 << 20),
                deadline_ms: None,
                max_iterations: Some(0),
            },
        });
        roundtrip_req(Request::SetMode {
            mode: ExecMode::Sequential,
        });
        roundtrip_req(Request::SetMode {
            mode: ExecMode::Parallel(4),
        });
        roundtrip_req(Request::ListQueries);
        roundtrip_req(Request::Close);
        roundtrip_req(Request::QueryTagged {
            sql: "insert into emp values ('ann', 90, true)".into(),
            request: 17,
        });
        roundtrip_req(Request::Subscribe { start: 4096 });
        roundtrip_req(Request::Subscribe {
            start: SUBSCRIBE_BOOTSTRAP,
        });
        roundtrip_req(Request::ReplAck { through: u64::MAX });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::HelloOk {
            version: 1,
            session: 42,
        });
        roundtrip_resp(Response::RowSchema {
            cols: vec![
                ("name".into(), Type::Str),
                ("sal".into(), Type::Int),
                ("active".into(), Type::Bool),
            ],
        });
        roundtrip_resp(Response::Rows {
            tuples: vec![
                Tuple::new(vec![Value::str("ann"), Value::Int(90), Value::Bool(true)]),
                Tuple::new(vec![Value::str("bob"), Value::Null(3), Value::Bool(false)]),
            ],
        });
        roundtrip_resp(Response::Done {
            rows: 2,
            query: 9,
            message: "ok".into(),
        });
        roundtrip_resp(Response::Prepared { stmt: 3 });
        roundtrip_resp(Response::Killed { found: true });
        roundtrip_resp(Response::Queries {
            entries: vec![QueryInfo {
                query: 1,
                session: 2,
                sql: "select …".into(),
            }],
        });
        roundtrip_resp(Response::Ok {
            message: "bye".into(),
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::Overloaded,
            message: "shed".into(),
        });
        roundtrip_resp(Response::Snapshot {
            bytes: vec![1, 0, 0, 0, 0, 0, 0, 0, 7],
        });
        roundtrip_resp(Response::Snapshot { bytes: Vec::new() });
        roundtrip_resp(Response::WalSegment {
            start: 8192,
            bytes: vec![0xAB; 37],
        });
        roundtrip_resp(Response::GoingAway {
            message: "draining".into(),
        });
    }

    #[test]
    fn garbage_bodies_decode_to_errors_not_panics() {
        let cases: &[&[u8]] = &[
            &[],
            &[0x00],
            &[0xff, 1, 2, 3],
            &[OP_HELLO, b'X', b'X', b'X', b'X', 1, 0, 0, 0],
            &[OP_QUERY, 200, 0, 0, 0], // string length past the body
            &[OP_SET_LIMITS, 9],       // bad option tag
            &[OP_SET_MODE, 7, 0, 0, 0, 0],
            &[OP_CLOSE, 0],                            // trailing byte
            &[OP_QUERY_TAGGED, 200, 0, 0, 0],          // string length past the body
            &[OP_SUBSCRIBE, 1, 2, 3],                  // truncated u64
            &[OP_REPL_ACK, 0, 0, 0, 0, 0, 0, 0, 0, 0], // trailing byte
        ];
        for body in cases {
            assert!(Request::decode(body).is_err(), "{body:?}");
        }
        assert!(Response::decode(&[OP_ROWS, 1, 0, 0, 0, 99, 0, 0, 0]).is_err());
        assert!(Response::decode(&[OP_ROW_SCHEMA, 1, 0, 0, 0, 1, 0, 0, 0, b'a', 9]).is_err());
        // Oversized length prefixes refuse before allocating.
        assert!(Response::decode(&[OP_SNAPSHOT, 0xFF, 0xFF, 0xFF, 0xFF]).is_err());
        assert!(Response::decode(&[
            OP_WAL_SEGMENT,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0xFF,
            0xFF,
            0xFF,
            0xFF
        ])
        .is_err());
        // Truncated segment body.
        assert!(
            Response::decode(&[OP_WAL_SEGMENT, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 1]).is_err()
        );
    }

    #[test]
    fn error_codes_roundtrip_and_map_the_taxonomy() {
        for code in [
            ErrorCode::Protocol,
            ErrorCode::Unsupported,
            ErrorCode::Query,
            ErrorCode::Datalog,
            ErrorCode::Storage,
            ErrorCode::TableExists,
            ErrorCode::NoSuchTable,
            ErrorCode::BadTxn,
            ErrorCode::Locked,
            ErrorCode::Codec,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Cancelled,
            ErrorCode::MemoryExceeded,
            ErrorCode::Overloaded,
            ErrorCode::IterationLimit,
            ErrorCode::Shutdown,
            ErrorCode::NoSuchStatement,
            ErrorCode::TxnState,
            ErrorCode::Io,
            ErrorCode::Timeout,
            ErrorCode::GoingAway,
            ErrorCode::ReadOnlyReplica,
        ] {
            assert_eq!(ErrorCode::from_u8(code.as_u8()), code);
        }
        assert_eq!(ErrorCode::from_u8(200), ErrorCode::Unknown);
        assert_eq!(
            ErrorCode::from_core(&CoreError::NoSuchTable("t".into())),
            ErrorCode::NoSuchTable
        );
        assert_eq!(
            ErrorCode::from_core(&CoreError::Governor(GovernorError::Overloaded {
                running: 1,
                queued: 0
            })),
            ErrorCode::Overloaded
        );
        assert_eq!(
            ErrorCode::from_governor(&GovernorError::Cancelled),
            ErrorCode::Cancelled
        );
    }

    #[test]
    fn frame_transport_rejects_empty_and_oversized() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hi").unwrap();
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), b"hi");

        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut zero.as_slice()).is_err());
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err());
        let truncated = [5u8, 0, 0, 0, b'x'];
        let err = read_frame(&mut truncated.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A stream that records each `write` it is handed and reads from a
    /// fixed input in `chunk`-byte `read`s.
    struct Pipe {
        input: Vec<u8>,
        at: usize,
        chunk: usize,
        reads: usize,
        writes: Vec<Vec<u8>>,
    }

    impl Pipe {
        fn new(input: Vec<u8>, chunk: usize) -> Pipe {
            let writes = Vec::new();
            Pipe {
                input,
                at: 0,
                chunk,
                reads: 0,
                writes,
            }
        }
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.chunk).min(self.input.len() - self.at);
            buf[..n].copy_from_slice(&self.input[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn framed_sends_one_write_per_flush_and_spills_at_the_buffer() {
        let mut conn = Framed::new(Pipe::new(Vec::new(), usize::MAX));
        let frames = [b"one".to_vec(), b"two".to_vec(), vec![7; 300]];
        let mut expected = Vec::new();
        for f in &frames {
            conn.write_frame(f).unwrap();
            write_frame(&mut expected, f).unwrap();
        }
        assert!(
            conn.get_ref().writes.is_empty(),
            "nothing leaves before a flush"
        );
        conn.flush().unwrap();
        conn.flush().unwrap();
        assert_eq!(conn.get_ref().writes, vec![expected]);

        // Past the buffer, queued frames go out without waiting for a
        // flush, each write at least a buffer's worth.
        let body = vec![1u8; 1000];
        let total = 200 * (body.len() + 4);
        for _ in 0..200 {
            conn.write_frame(&body).unwrap();
        }
        conn.flush().unwrap();
        let writes = &conn.get_ref().writes[1..];
        assert_eq!(writes.iter().map(Vec::len).sum::<usize>(), total);
        assert!(writes.len() <= total / FRAME_BUF + 1, "{}", writes.len());
        assert!(writes[..writes.len() - 1]
            .iter()
            .all(|w| w.len() >= FRAME_BUF));
    }

    #[test]
    fn framed_reads_header_and_body_in_one_read() {
        let mut input = Vec::new();
        for body in [&b"first"[..], b"second", b"third"] {
            write_frame(&mut input, body).unwrap();
        }
        let mut conn = Framed::new(Pipe::new(input, usize::MAX));
        assert_eq!(conn.read_frame().unwrap(), b"first");
        assert_eq!(conn.read_frame().unwrap(), b"second");
        assert_eq!(conn.read_frame().unwrap(), b"third");
        assert_eq!(conn.get_ref().reads, 1);
        // A peer that dribbles bytes is reassembled the same way.
        let mut input = Vec::new();
        write_frame(&mut input, b"dribbled").unwrap();
        let mut conn = Framed::new(Pipe::new(input, 3));
        assert_eq!(conn.read_frame().unwrap(), b"dribbled");
    }

    #[test]
    fn rows_encode_in_place_from_borrowed_tuples() {
        let tuples: Vec<Tuple> = (0..5)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::str("ab"), Value::Null(2)]))
            .collect();
        for n in [0, 1, 5] {
            let mut out = vec![0xEE];
            encode_rows(&mut out, &tuples[..n]);
            let owned = Response::Rows {
                tuples: tuples[..n].to_vec(),
            };
            assert_eq!(out[1..], owned.encode()[..], "{n} rows");
        }
    }
}
