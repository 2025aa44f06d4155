//! The remote driver: a TCP [`Connection`] speaking the wire protocol.
//!
//! [`connect`] dials, handshakes, and returns a [`Connection`] that
//! implements [`Driver`] — the same trait the embedded driver implements,
//! so frontends swap between in-process and remote databases without
//! changing a line above the trait.

use crate::driver::{Driver, DriverError, Outcome, RunningQuery};
use crate::wire::{schema_from_cols, ErrorCode, Framed, Request, Response, PROTOCOL_VERSION};
use bq_core::SessionLimits;
use bq_exec::ExecMode;
use bq_relational::Relation;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Socket deadlines and identity for [`connect_with`]. The defaults give
/// every dial and handshake a 10-second ceiling so a black-holed endpoint
/// surfaces as a typed [`ErrorCode::Timeout`] instead of hanging forever,
/// while established sessions keep unlimited reads (long queries are
/// legitimate).
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    /// TCP dial deadline; also bounds the handshake read when
    /// `read_timeout` is `None`.
    pub connect_timeout: Option<Duration>,
    /// Per-read socket deadline after the handshake.
    pub read_timeout: Option<Duration>,
    /// Per-write socket deadline.
    pub write_timeout: Option<Duration>,
    /// Client identity sent in the `Hello`. Doubles as the idempotency
    /// namespace for [`Connection::execute_tagged`] request ids.
    pub client: String,
}

impl Default for ConnectOptions {
    fn default() -> ConnectOptions {
        ConnectOptions {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(10)),
            client: "bq-client".to_string(),
        }
    }
}

/// A live session with a `bq-server`.
pub struct Connection {
    /// Each request leaves in one write; replies are read through a buffer.
    io: Framed<TcpStream>,
    session: u64,
    limits: SessionLimits,
    mode: Option<ExecMode>,
    /// Query id from the most recent `Done` frame: the server-side trace
    /// id joinable against `bq.queries` / `bq.slow_log`.
    last_query: u64,
}

fn io_err(e: std::io::Error) -> DriverError {
    let code = match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => ErrorCode::Timeout,
        _ => ErrorCode::Io,
    };
    DriverError::new(code, e.to_string())
}

/// Dial `addr`, handshake, and return a live session with the default
/// deadlines ([`ConnectOptions::default`]). A server that sheds the
/// connection answers the dial with a typed `Overloaded` error frame,
/// which surfaces here as a [`DriverError`] with that code.
pub fn connect(addr: impl ToSocketAddrs) -> Result<Connection, DriverError> {
    connect_with(addr, ConnectOptions::default())
}

/// Dial with explicit socket deadlines; see [`ConnectOptions`]. A dial or
/// handshake past its deadline returns [`ErrorCode::Timeout`].
pub fn connect_with(
    addr: impl ToSocketAddrs,
    options: ConnectOptions,
) -> Result<Connection, DriverError> {
    let stream = dial(addr, options.connect_timeout)?;
    let _ = stream.set_nodelay(true);
    // During the handshake the connect deadline also bounds the first
    // read — a server that accepts and then stalls is as dead as one
    // that never answers the SYN.
    let handshake_read = options.read_timeout.or(options.connect_timeout);
    let _ = stream.set_read_timeout(handshake_read);
    let _ = stream.set_write_timeout(options.write_timeout);
    let mut conn = Connection {
        io: Framed::new(stream),
        session: 0,
        limits: SessionLimits::default(),
        mode: None,
        last_query: 0,
    };
    // If the server shed us at accept time it may close before reading
    // the Hello; the refusal frame is still in our receive buffer, so a
    // failed send is survivable as long as the following read works.
    let sent = conn.send(&Request::Hello {
        version: PROTOCOL_VERSION,
        client: options.client.clone(),
    });
    let first = match conn.recv() {
        Ok(resp) => resp,
        Err(recv_err) => {
            sent?;
            return Err(recv_err);
        }
    };
    let _ = conn.io.get_ref().set_read_timeout(options.read_timeout);
    match first {
        Response::HelloOk { session, .. } => {
            conn.session = session;
            Ok(conn)
        }
        Response::Error { code, message } => Err(DriverError::new(code, message)),
        other => Err(DriverError::new(
            ErrorCode::Protocol,
            format!("expected HelloOk, got {other:?}"),
        )),
    }
}

/// Resolve and dial, honoring the connect deadline per candidate address.
fn dial(addr: impl ToSocketAddrs, timeout: Option<Duration>) -> Result<TcpStream, DriverError> {
    let Some(timeout) = timeout else {
        return TcpStream::connect(addr).map_err(io_err);
    };
    let addrs = addr.to_socket_addrs().map_err(io_err)?;
    let mut last = None;
    for a in addrs {
        match TcpStream::connect_timeout(&a, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.map_or_else(
        || DriverError::new(ErrorCode::Io, "address resolved to nothing"),
        io_err,
    ))
}

impl Connection {
    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The trace/query id the server stamped on the last completed
    /// statement (from its `Done` frame). Join it against `bq.queries`
    /// or `bq.slow_log` to recover server-side per-operator timings.
    pub fn last_query_id(&self) -> u64 {
        self.last_query
    }

    fn send(&mut self, req: &Request) -> Result<(), DriverError> {
        self.io.write_frame(&req.encode()).map_err(io_err)?;
        self.io.flush().map_err(io_err)
    }

    fn recv(&mut self) -> Result<Response, DriverError> {
        let body = self.io.read_frame().map_err(io_err)?;
        let resp = Response::decode(&body)
            .map_err(|e| DriverError::new(ErrorCode::Protocol, e.to_string()))?;
        // A drain announcement means this endpoint is done serving;
        // surface it as a typed error so failover logic reconnects
        // immediately instead of waiting out a read timeout.
        if let Response::GoingAway { message } = resp {
            return Err(DriverError::new(ErrorCode::GoingAway, message));
        }
        Ok(resp)
    }

    /// Send one request, read one response, surfacing `Error` frames as
    /// typed driver errors.
    fn roundtrip(&mut self, req: &Request) -> Result<Response, DriverError> {
        self.send(req)?;
        match self.recv()? {
            Response::Error { code, message } => Err(DriverError::new(code, message)),
            other => Ok(other),
        }
    }

    /// Read a result stream: `RowSchema`, `Rows*`, `Done` — or a lone
    /// `Done` for statements that return no rows. A server sends a set:
    /// a stream whose rows do not add up to `Done.rows`, or that repeats
    /// a row, is a protocol error rather than a result.
    fn read_result(&mut self) -> Result<Outcome, DriverError> {
        let first = match self.recv()? {
            Response::Error { code, message } => return Err(DriverError::new(code, message)),
            other => other,
        };
        let cols = match first {
            Response::RowSchema { cols } => cols,
            Response::Done {
                message,
                rows,
                query,
            } => {
                self.last_query = query;
                return Ok(Outcome::Message(if message.is_empty() {
                    format!("{rows} rows")
                } else {
                    message
                }));
            }
            other => {
                return Err(DriverError::new(
                    ErrorCode::Protocol,
                    format!("expected RowSchema or Done, got {other:?}"),
                ));
            }
        };
        let schema = schema_from_cols(&cols)
            .map_err(|e| DriverError::new(ErrorCode::Protocol, e.to_string()))?;
        let mut tuples = Vec::new();
        let announced = loop {
            match self.recv()? {
                Response::Rows { tuples: batch } => tuples.extend(batch),
                Response::Done { rows, query, .. } => {
                    self.last_query = query;
                    break rows;
                }
                Response::Error { code, message } => return Err(DriverError::new(code, message)),
                other => {
                    return Err(DriverError::new(
                        ErrorCode::Protocol,
                        format!("expected Rows or Done, got {other:?}"),
                    ));
                }
            }
        };
        let received = tuples.len();
        if received as u64 != announced {
            return Err(DriverError::new(
                ErrorCode::Protocol,
                format!("received {received} rows, the Done frame announced {announced}"),
            ));
        }
        let rel = Relation::from_tuples(schema, tuples)
            .map_err(|e| DriverError::new(ErrorCode::Protocol, e.to_string()))?;
        if rel.len() < received {
            return Err(DriverError::new(
                ErrorCode::Protocol,
                format!(
                    "received {received} rows, of which only {} are distinct",
                    rel.len()
                ),
            ));
        }
        Ok(Outcome::Rows(rel))
    }

    /// Run one statement tagged with a client idempotency id. The server
    /// deduplicates on (client identity, `request`): retrying the same
    /// tagged statement after a lost ack is safe — an already-committed
    /// write answers success without re-applying.
    pub fn execute_tagged(&mut self, sql: &str, request: u64) -> Result<Outcome, DriverError> {
        self.send(&Request::QueryTagged {
            sql: sql.to_string(),
            request,
        })?;
        self.read_result()
    }

    /// Politely end the session; errors are ignored (the socket closes
    /// either way when the connection drops).
    pub fn close(mut self) {
        let _ = self.roundtrip(&Request::Close);
    }
}

impl Driver for Connection {
    fn execute(&mut self, line: &str) -> Result<Outcome, DriverError> {
        self.send(&Request::Query {
            sql: line.to_string(),
        })?;
        self.read_result()
    }

    fn prepare(&mut self, sql: &str) -> Result<u64, DriverError> {
        match self.roundtrip(&Request::Prepare {
            sql: sql.to_string(),
        })? {
            Response::Prepared { stmt } => Ok(stmt),
            other => Err(DriverError::new(
                ErrorCode::Protocol,
                format!("expected Prepared, got {other:?}"),
            )),
        }
    }

    fn execute_prepared(&mut self, stmt: u64) -> Result<Outcome, DriverError> {
        self.send(&Request::Execute { stmt })?;
        self.read_result()
    }

    fn set_limits(&mut self, limits: SessionLimits) -> Result<(), DriverError> {
        self.roundtrip(&Request::SetLimits { limits })?;
        self.limits = limits;
        Ok(())
    }

    fn limits(&self) -> SessionLimits {
        self.limits
    }

    fn set_mode(&mut self, mode: ExecMode) -> Result<(), DriverError> {
        self.roundtrip(&Request::SetMode { mode })?;
        self.mode = Some(mode);
        Ok(())
    }

    fn mode(&self) -> Option<ExecMode> {
        self.mode
    }

    fn kill(&mut self, query: u64) -> Result<bool, DriverError> {
        match self.roundtrip(&Request::Kill { query })? {
            Response::Killed { found } => Ok(found),
            other => Err(DriverError::new(
                ErrorCode::Protocol,
                format!("expected Killed, got {other:?}"),
            )),
        }
    }

    fn running(&mut self) -> Result<Vec<RunningQuery>, DriverError> {
        match self.roundtrip(&Request::ListQueries)? {
            Response::Queries { entries } => Ok(entries
                .into_iter()
                .map(|e| RunningQuery {
                    query: e.query,
                    session: e.session,
                    sql: e.sql,
                })
                .collect()),
            other => Err(DriverError::new(
                ErrorCode::Protocol,
                format!("expected Queries, got {other:?}"),
            )),
        }
    }

    fn backend(&self) -> &'static str {
        "remote"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_relational::{tup, Tuple, Type};
    use std::net::TcpListener;

    /// A peer that answers the handshake, then each query with the next
    /// hand-built frame stream in `replies`.
    fn canned_server(replies: Vec<Vec<Response>>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut io = Framed::new(stream);
            let mut answer = |frames: &[Response]| {
                io.read_frame().expect("request");
                for frame in frames {
                    io.write_frame(&frame.encode()).expect("queue");
                }
                io.flush().expect("flush");
            };
            answer(&[Response::HelloOk {
                version: PROTOCOL_VERSION,
                session: 1,
            }]);
            for reply in replies {
                answer(&reply);
            }
        });
        (addr, peer)
    }

    fn stream(rows: Vec<Tuple>, announced: u64) -> Vec<Response> {
        vec![
            Response::RowSchema {
                cols: vec![("a".to_string(), Type::Int)],
            },
            Response::Rows { tuples: rows },
            Response::Done {
                rows: announced,
                query: 7,
                message: String::new(),
            },
        ]
    }

    #[test]
    fn a_result_stream_must_add_up_to_a_set() {
        let (addr, peer) = canned_server(vec![
            stream(vec![tup![1i64], tup![2i64]], 2),
            stream(vec![tup![1i64], tup![2i64]], 3),
            stream(vec![tup![1i64], tup![1i64]], 2),
        ]);
        let mut conn = connect(addr).expect("handshake");
        match conn.execute("q") {
            Ok(Outcome::Rows(rel)) => assert_eq!(rel.len(), 2),
            other => panic!("a well-formed stream is a result: {other:?}"),
        }
        assert_eq!(conn.last_query_id(), 7);
        for (what, detail) in [
            ("a short stream", "announced 3"),
            ("a repeated row", "only 1 are distinct"),
        ] {
            let err = conn.execute("q").expect_err(what);
            assert_eq!(err.code, ErrorCode::Protocol, "{what}: {err}");
            assert!(err.message.contains(detail), "{what}: {err}");
        }
        peer.join().expect("canned peer");
    }
}
