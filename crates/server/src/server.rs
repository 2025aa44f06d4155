//! The TCP server: accept loop, per-connection sessions, load shedding,
//! a running-query registry behind client-visible `KILL`, and graceful
//! shutdown.
//!
//! Concurrency model: one accept thread blocks in `accept` (shutdown
//! wakes it with a loopback self-connect); each admitted connection gets
//! a handler thread holding an [`AdmissionPermit`], so the
//! [`bq_governor::AdmissionController`] *is* the connection bound — when
//! slots run out the accept thread answers with a typed `Overloaded`
//! error frame and closes, it never leaves the client hanging. Sessions execute statements against a shared
//! `Arc<RwLock<Db>>`: selects under the read half (concurrent), mutations
//! under the write half.
//!
//! Every statement registers once in the engine's [`CancelRegistry`] (the
//! registry `Db::cancel_handle` exposes and `bq.queries` lists), before it
//! queues on the engine lock: `ListQueries` reads that map, `Kill` cancels
//! through it, and its id is the one the `Done` frame carries.

use crate::stmt::{parse_statement, Produced, SessionCore, Statement};
use crate::wire::{self, ErrorCode, Framed, QueryInfo, Request, Response, PROTOCOL_VERSION};
use bq_core::{
    Answer, Db, ReplicaRegistry, ReplicaRow, SessionLimits, SessionRegistry, SessionRow, WalWatch,
};
use bq_exec::ExecMode;
use bq_governor::{
    AdmissionController, AdmissionPermit, CancelRegistry, Charger, GovernorError, QueryContext,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Back-off after a failed `accept` (so `EMFILE` cannot spin), and the
/// drain loop's poll of its worker threads.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Largest WAL chunk one `WalSegment` frame ships; well under
/// [`wire::MAX_FRAME`] so the segment header always fits too.
const SEGMENT_MAX: usize = 256 << 10;

/// Longest a caught-up shipping loop sleeps on the WAL watch before it
/// looks at the WAL again unprompted. Commits wake it through the watch;
/// this only bounds the damage of a wake-up that never came.
const SHIP_IDLE_FALLBACK: Duration = Duration::from_millis(100);

/// Longest a semi-sync wait sleeps on the replica registry before it
/// re-checks its ceiling and the stop flag. Acks and departures wake it
/// through the registry; this bounds how far past `sync_wait_ms` a wait
/// can run.
const ACK_WAIT_SLICE: Duration = Duration::from_millis(5);

/// Server tunables. `addr` may use port 0 for an ephemeral port; read the
/// bound address back from [`Server::local_addr`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Connection slots; the accept loop sheds beyond this many.
    pub max_conns: usize,
    /// Tuples per streamed `Rows` frame.
    pub batch_rows: usize,
    /// Start in replica mode: every mutation is refused with a typed
    /// [`ErrorCode::ReadOnlyReplica`] until [`Server::set_read_only`]
    /// flips it at promotion.
    pub read_only: bool,
    /// Semi-sync ceiling: a tagged write waits up to this long for every
    /// subscribed replica to acknowledge its WAL offset before the `Done`
    /// frame goes out. 0 disables the wait; with no replicas it is
    /// vacuous (primary-only durability).
    pub sync_wait_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 64,
            batch_rows: 256,
            read_only: false,
            sync_wait_ms: 2000,
        }
    }
}

struct Shared {
    db: Arc<RwLock<Db>>,
    stop: AtomicBool,
    /// Connection slots; admission with an empty queue sheds instantly.
    admission: AdmissionController,
    /// The engine's in-flight registry (`Db::cancel_handle`): `KILL` ids
    /// are registration ids in here.
    registry: CancelRegistry,
    /// Open connections, for half-close at shutdown.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Per-connection handler threads.
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_session: AtomicU64,
    batch_rows: usize,
    /// Replica mode: mutations refused until promotion flips this off.
    read_only: AtomicBool,
    /// The engine's `bq.replicas` registry; subscriber loops publish
    /// per-replica progress here and the semi-sync wait blocks on it.
    replicas: ReplicaRegistry,
    /// The engine's durable-WAL-horizon watch; caught-up subscriber
    /// loops block on it until a commit lands.
    watch: WalWatch,
    /// Semi-sync ceiling for tagged writes (0 = disabled).
    sync_wait_ms: u64,
}

/// A handle to a running server; dropping it shuts the server down.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    stopped: bool,
}

/// Bind and start serving `db` in background threads. The engine stays
/// shared: the caller can keep querying it embedded while the server
/// runs, and can keep the `Arc` to inspect state after shutdown.
pub fn serve(db: Arc<RwLock<Db>>, config: ServerConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let (registry, replicas, watch) = {
        let db = db.read().unwrap_or_else(|e| e.into_inner());
        (db.cancel_handle(), db.replica_registry(), db.wal_watch())
    };
    let shared = Arc::new(Shared {
        db,
        stop: AtomicBool::new(false),
        admission: AdmissionController::new(config.max_conns, 0),
        registry,
        conns: Mutex::new(HashMap::new()),
        workers: Mutex::new(Vec::new()),
        next_session: AtomicU64::new(1),
        batch_rows: config.batch_rows.max(1),
        read_only: AtomicBool::new(config.read_only),
        replicas,
        watch,
        sync_wait_ms: config.sync_wait_ms,
    });
    let accept_shared = Arc::clone(&shared);
    let accept = thread::Builder::new()
        .name("bq-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(Server {
        local_addr,
        shared,
        accept: Some(accept),
        stopped: false,
    })
}

impl Server {
    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served engine.
    pub fn db(&self) -> Arc<RwLock<Db>> {
        Arc::clone(&self.shared.db)
    }

    /// Flip replica (read-only) mode. Promotion calls
    /// `set_read_only(false)` after the engine's open replicated
    /// transactions are aborted; sessions see the change on their next
    /// statement.
    pub fn set_read_only(&self, read_only: bool) {
        // relaxed: advisory mode flag, re-checked per statement.
        self.shared.read_only.store(read_only, Ordering::Relaxed);
    }

    /// Graceful shutdown: stop accepting, half-close every connection so
    /// idle sessions drain out, wait up to `drain` for in-flight
    /// statements to finish and flush their responses, then cancel
    /// stragglers through the cancel registry and hard-close. A response
    /// the client has received is always durably applied: mutations
    /// acknowledge only after the engine (and its WAL) returned.
    pub fn shutdown(mut self, drain: Duration) {
        self.stop(drain);
    }

    fn stop(&mut self, drain: Duration) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        // relaxed: advisory stop flag, re-polled by every loop.
        self.shared.stop.store(true, Ordering::Relaxed);
        // Everything that blocks gets a wake-up to see the flag: the
        // accept thread a loopback connection (if the backlog is too full
        // to take it, `accept` is not blocked), shipping loops and
        // semi-sync waits a notify.
        let _ = TcpStream::connect_timeout(&wake_addr(self.local_addr), Duration::from_secs(1));
        self.shared.watch.wake_all();
        self.shared.replicas.wake_all();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        {
            let conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            for s in conns.values() {
                // Half-close: the session's next read sees EOF, but its
                // write half stays open for the in-flight response.
                let _ = s.shutdown(Shutdown::Read);
            }
        }
        // Drain under a deadline without reading the clock directly: the
        // governor's deadline context is the sanctioned stopwatch.
        let deadline = QueryContext::unlimited().with_deadline(drain);
        loop {
            let all_done = {
                let workers = self
                    .shared
                    .workers
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                workers.iter().all(|h| h.is_finished())
            };
            if all_done {
                break;
            }
            if deadline.check().is_err() {
                // Past the drain deadline: stop stragglers cooperatively,
                // then cut their sockets.
                self.shared.registry.cancel_all();
                let conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
                for s in conns.values() {
                    let _ = s.shutdown(Shutdown::Both);
                }
                break;
            }
            thread::sleep(ACCEPT_POLL);
        }
        let workers = {
            let mut workers = self
                .shared
                .workers
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *workers)
        };
        for h in workers {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop(Duration::from_millis(500));
    }
}

// ---------------------------------------------------------------------
// Accept path
// ---------------------------------------------------------------------

/// Where `Server::stop` connects to wake the accept thread: the bound
/// address, with an unspecified IP (`0.0.0.0`, `::`) mapped to loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // relaxed: advisory stop flag, re-checked after every accept;
        // the connection that woke us for it is simply dropped.
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        match accepted {
            Ok((stream, _)) => handle_accept(&shared, stream),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn handle_accept(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    match shared.admission.admit(&QueryContext::unlimited()) {
        Ok(permit) => spawn_session(shared, stream, permit),
        Err(e) => {
            // Real load shedding: a typed frame, then the socket closes.
            bq_obs::counter!(
                "bq_server_conns_shed_total",
                "connections shed by admission"
            )
            .inc();
            let resp = Response::Error {
                code: ErrorCode::from_governor(&e),
                message: e.to_string(),
            };
            // After the refusal, drain the client's Hello (briefly) so
            // close() sends FIN, not RST — an RST would destroy the refusal
            // frame in flight and the client would see a bare broken pipe.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
            let mut conn = Framed::new(Socket(stream));
            let _ = conn.write_frame(&resp.encode());
            let _ = conn.flush();
            let _ = conn.read_frame();
        }
    }
}

fn spawn_session(shared: &Arc<Shared>, stream: TcpStream, permit: AdmissionPermit) {
    // relaxed: unique-id hand-out; no data is published under it.
    let conn_id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        conns.insert(conn_id, clone);
    }
    let worker_shared = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name(format!("bq-conn-{conn_id}"))
        .spawn(move || {
            run_conn(&worker_shared, stream, conn_id);
            drop(permit);
        });
    match spawned {
        Ok(handle) => {
            let mut workers = shared.workers.lock().unwrap_or_else(|e| e.into_inner());
            workers.push(handle);
        }
        Err(_) => {
            let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            conns.remove(&conn_id);
        }
    }
}

// ---------------------------------------------------------------------
// Session path
// ---------------------------------------------------------------------

/// The server's end of a connection: a socket whose every `write` counts
/// in `bq_server_socket_writes_total`, which is how an operator sees the
/// writes a reply costs.
struct Socket(TcpStream);

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        bq_obs::counter!(
            "bq_server_socket_writes_total",
            "writes the server handed to its sockets"
        )
        .inc();
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// A session's framed connection: see [`Framed`] for when bytes leave.
type Conn = Framed<Socket>;

fn run_conn(shared: &Shared, stream: TcpStream, conn_id: u64) {
    let open = bq_obs::gauge!("bq_server_connections", "open TCP connections");
    open.add(1);
    bq_obs::counter!("bq_server_connections_total", "connections accepted").inc();
    let mut session = SessionCore::new();
    // The engine's `bq.sessions` registry: rows upserted here are what
    // `select * from bq.sessions` sees, embedded and over the wire alike.
    let sessions = {
        let db = shared.db.read().unwrap_or_else(|e| e.into_inner());
        db.session_registry()
    };
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    let mut conn = Framed::new(Socket(stream));
    let _ = session_loop(shared, &mut conn, &mut session, conn_id, &sessions, &peer);
    // Whatever the session queued last (a refusal, a `GoingAway`) leaves
    // before the socket closes.
    let _ = conn.flush();
    // A dropped connection must never leave locks held or ghosts in the
    // connection table (or in `bq.sessions` / `bq.replicas`).
    sessions.remove(conn_id);
    shared.replicas.remove(conn_id);
    session.close(&shared.db);
    {
        let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        conns.remove(&conn_id);
    }
    open.add(-1);
}

fn session_loop(
    shared: &Shared,
    conn: &mut Conn,
    session: &mut SessionCore,
    conn_id: u64,
    registry: &SessionRegistry,
    peer: &str,
) -> io::Result<()> {
    // Handshake: the first frame must be a version-matching Hello. The
    // client identity it carries is the dedup namespace for tagged
    // writes, so a reconnecting client keeps its idempotency history.
    let body = read_frame_srv(conn)?;
    let client = match Request::decode(&body) {
        Ok(Request::Hello { version, client }) if version == PROTOCOL_VERSION => {
            write_frame_srv(
                conn,
                &Response::HelloOk {
                    version: PROTOCOL_VERSION,
                    session: conn_id,
                },
            )?;
            client
        }
        Ok(Request::Hello { version, .. }) => {
            return refuse(
                conn,
                ErrorCode::Protocol,
                format!(
                    "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
                ),
            );
        }
        Ok(_) => return refuse(conn, ErrorCode::Protocol, "expected Hello".to_string()),
        Err(e) => return refuse(conn, ErrorCode::Protocol, e.to_string()),
    };
    let sessions = bq_obs::gauge!("bq_server_sessions", "sessions past handshake");
    sessions.add(1);
    let out = frame_loop(shared, conn, session, conn_id, registry, peer, &client);
    sessions.add(-1);
    out
}

/// What a session's `bq.sessions` row shows besides its fixed columns:
/// exec mode, limits, and whether a transaction is open.
type SessionState = (Option<ExecMode>, SessionLimits, bool);

fn session_state(session: &SessionCore) -> SessionState {
    (session.mode, session.limits, session.in_txn())
}

/// Mirror a session's state into the engine's `bq.sessions` registry.
fn publish_session(registry: &SessionRegistry, conn_id: u64, peer: &str, state: SessionState) {
    let (mode, limits, txn) = state;
    registry.upsert(SessionRow {
        session: conn_id,
        peer: peer.to_string(),
        mode: mode.map_or_else(|| "engine".to_string(), |m| m.to_string()),
        limits: render_limits(&limits),
        txn,
    });
}

fn render_limits(limits: &SessionLimits) -> String {
    let mut parts = Vec::new();
    if let Some(bytes) = limits.memory_bytes {
        parts.push(format!("mem={bytes}B"));
    }
    if let Some(ms) = limits.deadline_ms {
        parts.push(format!("deadline={ms}ms"));
    }
    if let Some(n) = limits.max_iterations {
        parts.push(format!("iters={n}"));
    }
    if parts.is_empty() {
        "none".to_string()
    } else {
        parts.join(" ")
    }
}

fn frame_loop(
    shared: &Shared,
    conn: &mut Conn,
    session: &mut SessionCore,
    conn_id: u64,
    registry: &SessionRegistry,
    peer: &str,
    client: &str,
) -> io::Result<()> {
    let mut published = session_state(session);
    publish_session(registry, conn_id, peer, published);
    loop {
        // relaxed: advisory stop flag, re-polled every frame.
        if shared.stop.load(Ordering::Relaxed) {
            return refuse(
                conn,
                ErrorCode::Shutdown,
                "server is shutting down".to_string(),
            );
        }
        let body = match read_frame_srv(conn) {
            Ok(b) => b,
            // A malformed length prefix gets a typed refusal; EOF and
            // transport errors just end the session.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return refuse(conn, ErrorCode::Protocol, e.to_string());
            }
            Err(_) => {
                // Drain half-closes reads first; the write half is still
                // open, so tell the peer why the session is ending and it
                // can reconnect immediately instead of waiting out a
                // read timeout.
                // relaxed: advisory stop flag, see above.
                if shared.stop.load(Ordering::Relaxed) {
                    let _ = write_frame_srv(
                        conn,
                        &Response::GoingAway {
                            message: "server is draining".to_string(),
                        },
                    );
                }
                return Ok(());
            }
        };
        let _frame_timer = bq_obs::histogram!(
            "bq_server_frame_latency_us",
            "per-frame dispatch latency (us)",
            bq_obs::LATENCY_BUCKETS_US
        )
        .start_timer();
        let req = match Request::decode(&body) {
            Ok(r) => r,
            // A frame that parses as no request is a protocol error; the
            // connection is not trustworthy past this point.
            Err(e) => return refuse(conn, ErrorCode::Protocol, e.to_string()),
        };
        // A Subscribe repurposes the whole connection: the session stops
        // being request/response and becomes a replication stream.
        if let Request::Subscribe { start } = req {
            return subscriber_loop(shared, conn, conn_id, peer, start);
        }
        let closing = matches!(req, Request::Close);
        dispatch(shared, conn, session, conn_id, client, req)?;
        // The whole reply leaves in one write.
        conn.flush()?;
        // Only SetMode, SetLimits and transaction boundaries change the
        // row; every other frame leaves it as it was.
        let state = session_state(session);
        if state != published {
            publish_session(registry, conn_id, peer, state);
            published = state;
        }
        if closing {
            return Ok(());
        }
    }
}

fn dispatch(
    shared: &Shared,
    conn: &mut Conn,
    session: &mut SessionCore,
    conn_id: u64,
    client: &str,
    req: Request,
) -> io::Result<()> {
    match req {
        Request::Query { sql } => match parse_statement(&sql) {
            Err(e) => write_err(conn, &e),
            Ok(stmt) => {
                if let Some(e) = refuse_mutation(shared, &stmt) {
                    return write_err(conn, &e);
                }
                let ctx = session.context();
                let reg = shared.registry.register(&ctx, conn_id, "sql", &sql);
                let qid = reg.id();
                let out = session.run_as(&shared.db, &stmt, &ctx, |answer| {
                    encode_reply(answer, shared.batch_rows, qid, &ctx)
                });
                drop(reg);
                send_reply(conn, out, qid)
            }
        },
        Request::QueryTagged { sql, request } => {
            run_tagged(shared, conn, session, client, &sql, request)
        }
        Request::Prepare { sql } => match session.prepare(&shared.db, &sql) {
            Ok(stmt) => write_frame_srv(conn, &Response::Prepared { stmt }),
            Err(e) => write_err(conn, &e),
        },
        Request::Execute { stmt } => match session.prepared_sql(stmt).map(str::to_string) {
            None => write_err(
                conn,
                &crate::driver::DriverError::new(
                    ErrorCode::NoSuchStatement,
                    format!("no prepared statement {stmt}"),
                ),
            ),
            Some(sql) => {
                let ctx = session.context();
                let reg = shared.registry.register(&ctx, conn_id, "sql", &sql);
                let qid = reg.id();
                let out = session.execute_as(&shared.db, stmt, &ctx, |answer| {
                    encode_reply(answer, shared.batch_rows, qid, &ctx)
                });
                drop(reg);
                send_reply(conn, out.map(Produced::Rows), qid)
            }
        },
        Request::Kill { query } => {
            let found = shared.registry.cancel_id(query);
            if found {
                bq_obs::counter!(
                    "bq_server_queries_killed_total",
                    "queries killed by clients"
                )
                .inc();
            }
            write_frame_srv(conn, &Response::Killed { found })
        }
        Request::SetLimits { limits } => {
            session.limits = limits;
            write_frame_srv(
                conn,
                &Response::Ok {
                    message: "limits set".to_string(),
                },
            )
        }
        Request::SetMode { mode } => {
            session.mode = Some(mode);
            write_frame_srv(
                conn,
                &Response::Ok {
                    message: format!("mode: {mode}"),
                },
            )
        }
        Request::ListQueries => write_frame_srv(
            conn,
            &Response::Queries {
                entries: shared
                    .registry
                    .list()
                    .into_iter()
                    .map(|q| QueryInfo {
                        query: q.query,
                        session: q.session,
                        sql: q.sql,
                    })
                    .collect(),
            },
        ),
        Request::Close => write_frame_srv(
            conn,
            &Response::Ok {
                message: "bye".to_string(),
            },
        ),
        Request::Hello { .. } => write_err(
            conn,
            &crate::driver::DriverError::new(ErrorCode::Protocol, "duplicate Hello"),
        ),
        // Subscribe is intercepted in the frame loop; reaching here means
        // the dispatcher was called out of order, which is a server bug,
        // but answer with a typed error rather than trusting that.
        Request::Subscribe { .. } => write_err(
            conn,
            &crate::driver::DriverError::new(ErrorCode::Protocol, "Subscribe mid-session"),
        ),
        Request::ReplAck { .. } => write_err(
            conn,
            &crate::driver::DriverError::new(
                ErrorCode::Protocol,
                "ReplAck outside a replication stream",
            ),
        ),
    }
}

/// The typed refusal for a mutation on a read-only replica, or `None`
/// when the statement may proceed.
fn refuse_mutation(shared: &Shared, stmt: &Statement) -> Option<crate::driver::DriverError> {
    // relaxed: advisory mode flag, re-checked per statement.
    if stmt.is_mutation() && shared.read_only.load(Ordering::Relaxed) {
        Some(crate::driver::DriverError::new(
            ErrorCode::ReadOnlyReplica,
            "replica is read-only; send writes to the primary",
        ))
    } else {
        None
    }
}

/// Run one tagged (idempotent) write: dedup-check and apply atomically
/// under the engine write lock, then hold the `Done` frame until every
/// subscribed replica has acknowledged the commit's WAL offset (semi-sync)
/// or the wait ceiling passes.
fn run_tagged(
    shared: &Shared,
    conn: &mut Conn,
    session: &mut SessionCore,
    client: &str,
    sql: &str,
    request: u64,
) -> io::Result<()> {
    let stmt = match parse_statement(sql) {
        Ok(s) => s,
        Err(e) => return write_err(conn, &e),
    };
    if let Some(e) = refuse_mutation(shared, &stmt) {
        return write_err(conn, &e);
    }
    let Statement::Insert { table, row } = stmt else {
        return write_err(
            conn,
            &crate::driver::DriverError::new(
                ErrorCode::Unsupported,
                "only inserts may carry a request tag",
            ),
        );
    };
    if session.in_txn() {
        return write_err(
            conn,
            &crate::driver::DriverError::new(
                ErrorCode::TxnState,
                "tagged writes are autocommit-only",
            ),
        );
    }
    // One write-lock scope covers the dedup probe and the apply: two
    // racing retries of the same request id serialize here, so exactly
    // one commits and the other answers as a duplicate — only once a sync
    // covers the commit, whose own sync may have failed.
    enum Applied {
        Duplicate,
        Committed(u64),
        Failed(crate::driver::DriverError),
    }
    let applied = {
        let mut db = shared.db.write().unwrap_or_else(|e| e.into_inner());
        match db.seen_durably(client, request) {
            Ok(true) => Applied::Duplicate,
            Ok(false) => match db.insert_tagged(&table, row, client, request) {
                Ok(()) => Applied::Committed(db.wal_durable_len()),
                Err(e) => Applied::Failed(crate::driver::DriverError::from_core(e)),
            },
            Err(e) => Applied::Failed(crate::driver::DriverError::from_core(e)),
        }
    };
    match applied {
        Applied::Failed(e) => write_err(conn, &e),
        Applied::Duplicate => {
            bq_obs::counter!(
                "bq_repl_dedup_hits_total",
                "tagged writes answered from the dedup table"
            )
            .inc();
            write_frame_srv(
                conn,
                &Response::Done {
                    rows: 0,
                    query: 0,
                    message: format!("request {request} already applied"),
                },
            )
        }
        Applied::Committed(offset) => {
            wait_for_replica_acks(shared, offset);
            write_frame_srv(
                conn,
                &Response::Done {
                    rows: 0,
                    query: 0,
                    message: format!("inserted 1 row into {table}"),
                },
            )
        }
    }
}

/// Semi-sync wait: block on the replica registry until every subscriber
/// has acknowledged `offset` (or left), the ceiling passes, or the server
/// stops.
fn wait_for_replica_acks(shared: &Shared, offset: u64) {
    if shared.sync_wait_ms == 0 || shared.replicas.is_empty() {
        return;
    }
    let _wait = bq_obs::histogram!(
        "bq_repl_ack_wait_us",
        "semi-sync wait for replica acks, per tagged write (us)",
        bq_obs::LATENCY_BUCKETS_US
    )
    .start_timer();
    // The governor's deadline context is the sanctioned stopwatch (no
    // direct clock reads in this crate).
    let deadline =
        QueryContext::unlimited().with_deadline(Duration::from_millis(shared.sync_wait_ms));
    while !shared.replicas.wait_all_acked(offset, ACK_WAIT_SLICE) {
        // relaxed: advisory stop flag, re-checked after every wake-up.
        if deadline.check().is_err() || shared.stop.load(Ordering::Relaxed) {
            bq_obs::counter!(
                "bq_repl_sync_timeouts_total",
                "tagged writes that outwaited a replica ack"
            )
            .inc();
            return;
        }
    }
}

/// A select's whole reply, encoded from the rows its answer borrows:
/// `RowSchema`, `Rows` batches of `batch_rows` and `Done`. It runs under
/// the engine read lock, so it fills a buffer of its own and never the
/// socket ([`send_reply`] queues the buffer once the lock is released).
/// Every frame's bytes are charged to `ctx`'s budget as it is encoded, so
/// the budget bounds the reply as it bounds an embedded copy; a refusal
/// counts as the statement's.
fn encode_reply(
    answer: Answer<'_>,
    batch_rows: usize,
    qid: u64,
    ctx: &QueryContext,
) -> bq_core::Result<Vec<u8>> {
    let rows = answer.rows;
    let mut out = Vec::new();
    let mut charger = Charger::new(ctx);
    // Charge what `out` gained since the last call.
    let mut charged = 0;
    let mut charge = |out: &Vec<u8>| {
        let grown = out.len() - charged;
        charged = out.len();
        charger.charge(grown as u64).map_err(refused)
    };
    let cols = rows.schema.attrs().iter();
    let cols = cols.map(|a| (a.name.clone(), a.ty)).collect();
    let schema = Response::RowSchema { cols }.encode();
    wire::push_frame(&mut out, |body| body.extend_from_slice(&schema));
    charge(&out)?;
    for batch in rows.rows.chunks(batch_rows) {
        wire::push_frame(&mut out, |body| {
            wire::encode_rows(body, batch.iter().map(|r| &**r));
        });
        charge(&out)?;
    }
    let done = Response::Done {
        rows: rows.rows.len() as u64,
        query: qid,
        message: String::new(),
    };
    wire::push_frame(&mut out, |body| body.extend_from_slice(&done.encode()));
    charge(&out)?;
    charger.flush().map_err(refused)?;
    bq_obs::counter!("bq_server_rows_streamed_total", "result rows streamed")
        .add(rows.rows.len() as u64);
    Ok(out)
}

/// Count a refusal met while encoding a reply as the statement's.
fn refused(g: GovernorError) -> bq_core::CoreError {
    bq_governor::record_refusal(&g);
    g.into()
}

/// Queue a statement's reply: a select's frames as [`encode_reply`] left
/// them, a lone `Done` carrying a message, or an `Error`.
fn send_reply(
    conn: &mut Conn,
    out: Result<Produced<Vec<u8>>, crate::driver::DriverError>,
    qid: u64,
) -> io::Result<()> {
    match out {
        Ok(Produced::Rows(frames)) => push_frames_srv(conn, frames),
        Ok(Produced::Message(message)) => write_frame_srv(
            conn,
            &Response::Done {
                rows: 0,
                query: qid,
                message,
            },
        ),
        Err(e) => write_err(conn, &e),
    }
}

fn write_err(conn: &mut Conn, e: &crate::driver::DriverError) -> io::Result<()> {
    write_frame_srv(
        conn,
        &Response::Error {
            code: e.code,
            message: e.message.clone(),
        },
    )
}

/// Queue a typed error, then end the session by returning `Ok(())` up the
/// loop (`run_conn` flushes it and closes the socket).
fn refuse(conn: &mut Conn, code: ErrorCode, message: String) -> io::Result<()> {
    let _ = write_frame_srv(conn, &Response::Error { code, message });
    Ok(())
}

// ---------------------------------------------------------------------
// Replication shipping (primary side)
// ---------------------------------------------------------------------

/// What the chaos failpoints ask one shipping round to do to the segment.
enum ShipPlan {
    /// Deliver normally.
    Normal,
    /// Lose the segment in flight.
    Drop,
    /// Deliver the segment twice.
    Duplicate,
    /// Split the segment and deliver the halves out of order.
    Reorder,
}

fn ship_plan() -> ShipPlan {
    bq_faults::fail_point!("repl.segment.drop", |_| ShipPlan::Drop);
    bq_faults::fail_point!("repl.segment.dup", |_| ShipPlan::Duplicate);
    bq_faults::fail_point!("repl.segment.reorder", |_| ShipPlan::Reorder);
    ShipPlan::Normal
}

/// Serve one replication subscriber: optionally bootstrap it with a full
/// snapshot, then ship durable WAL segments in a send/ack ping-pong.
///
/// The replica's acknowledgement is **authoritative** for the shipping
/// position: after every segment the loop continues from whatever offset
/// the replica says it has applied through. A dropped or reordered
/// segment therefore heals itself — the replica refuses the gap, acks its
/// old horizon, and the stream rewinds — with no sequence numbers or
/// retransmit queues on top of the WAL's own byte offsets.
fn subscriber_loop(
    shared: &Shared,
    conn: &mut Conn,
    conn_id: u64,
    peer: &str,
    start: u64,
) -> io::Result<()> {
    bq_obs::counter!(
        "bq_repl_subscribers_total",
        "replication subscriptions accepted"
    )
    .inc();
    // Registered with the first subscriber, so `bq.metrics` shows the row
    // at zero on a healthy primary instead of hiding it.
    let idle_wakeups = bq_obs::counter!(
        "bq_repl_ship_idle_wakeups_total",
        "shipping-loop waits ended by the fallback timeout, not by a commit"
    );
    let mut pos = start;
    if start == wire::SUBSCRIBE_BOOTSTRAP {
        publish_replica(shared, conn_id, peer, "bootstrapping", 0, 0, 0);
        // Snapshot under the write lock; the horizon read in the same
        // scope is exactly the offset the image ends at, so streaming
        // resumes with no gap and no overlap.
        let (snap, horizon) = {
            let mut db = shared.db.write().unwrap_or_else(|e| e.into_inner());
            let snap = match db.snapshot_bytes() {
                Ok(bytes) => bytes,
                Err(e) => {
                    drop(db);
                    return refuse(conn, ErrorCode::Storage, e.to_string());
                }
            };
            let horizon = db.wal_durable_len();
            (snap, horizon)
        };
        if snap.len() >= wire::MAX_FRAME {
            return refuse(
                conn,
                ErrorCode::Storage,
                format!("snapshot of {} bytes exceeds the frame cap", snap.len()),
            );
        }
        write_frame_srv(conn, &Response::Snapshot { bytes: snap })?;
        // The loop below may sleep on the WAL watch next.
        conn.flush()?;
        pos = horizon;
    }
    publish_replica(
        shared,
        conn_id,
        peer,
        "streaming",
        pos,
        pos,
        bq_obs::now_us(),
    );
    loop {
        // relaxed: advisory stop flag, re-polled every round.
        if shared.stop.load(Ordering::Relaxed) {
            let _ = write_frame_srv(
                conn,
                &Response::GoingAway {
                    message: "server is draining".to_string(),
                },
            );
            return Ok(());
        }
        // Caught up: sleep until a commit moves the durable horizon past
        // `pos` (returns at once if one already has). The engine lock is
        // only taken when there is something to read.
        if !shared.watch.wait_past(pos, SHIP_IDLE_FALLBACK) {
            idle_wakeups.inc();
            continue;
        }
        let chunk = {
            let db = shared.db.read().unwrap_or_else(|e| e.into_inner());
            db.wal_durable_bytes(pos, SEGMENT_MAX)
        };
        if chunk.is_empty() {
            // Woken for the stop flag, not for bytes.
            continue;
        }
        match ship_plan() {
            ShipPlan::Drop => {
                // The segment vanishes but the position advances: the next
                // shipped segment opens a gap the replica refuses, and its
                // ack rewinds the stream.
                pos += chunk.len() as u64;
            }
            ShipPlan::Duplicate => {
                let _ = ship_segment(shared, conn, conn_id, pos, chunk.clone())?;
                pos = ship_segment(shared, conn, conn_id, pos, chunk)?;
            }
            ShipPlan::Reorder => {
                let mid = chunk.len() / 2;
                if mid == 0 {
                    pos = ship_segment(shared, conn, conn_id, pos, chunk)?;
                } else {
                    // Second half first: the replica refuses the gap and
                    // acks its horizon; the first half then applies.
                    let second = chunk[mid..].to_vec();
                    let first = chunk[..mid].to_vec();
                    let _ = ship_segment(shared, conn, conn_id, pos + mid as u64, second)?;
                    pos = ship_segment(shared, conn, conn_id, pos, first)?;
                }
            }
            ShipPlan::Normal => {
                pos = ship_segment(shared, conn, conn_id, pos, chunk)?;
            }
        }
    }
}

/// Ship one segment and block for the replica's ack, which becomes the
/// new authoritative shipping position.
fn ship_segment(
    shared: &Shared,
    conn: &mut Conn,
    conn_id: u64,
    start: u64,
    bytes: Vec<u8>,
) -> io::Result<u64> {
    let len = bytes.len() as u64;
    write_frame_srv(conn, &Response::WalSegment { start, bytes })?;
    bq_obs::counter!(
        "bq_repl_segments_shipped_total",
        "WAL segments shipped to replicas"
    )
    .inc();
    bq_obs::counter!(
        "bq_repl_bytes_shipped_total",
        "WAL bytes shipped to replicas"
    )
    .add(len);
    let ack = read_ack(conn)?;
    bq_obs::counter!("bq_repl_acks_total", "replica acknowledgements received").inc();
    let shipped = start + len;
    bq_obs::gauge!(
        "bq_repl_lag_bytes",
        "bytes shipped but not yet acknowledged"
    )
    .set(shipped.saturating_sub(ack) as i64);
    shared
        .replicas
        .record_ack(conn_id, ack, shipped, bq_obs::now_us());
    Ok(ack)
}

/// Read the subscriber's next frame, which must be a `ReplAck`. Anything
/// else gets a typed error frame and ends the stream — arbitrary bytes on
/// a replication stream decode-or-refuse, never panic.
fn read_ack(conn: &mut Conn) -> io::Result<u64> {
    let body = read_frame_srv(conn)?;
    match Request::decode(&body) {
        Ok(Request::ReplAck { through }) => Ok(through),
        Ok(other) => {
            let _ = write_frame_srv(
                conn,
                &Response::Error {
                    code: ErrorCode::Protocol,
                    message: format!("expected ReplAck, got {other:?}"),
                },
            );
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected ReplAck",
            ))
        }
        Err(e) => {
            let _ = write_frame_srv(
                conn,
                &Response::Error {
                    code: ErrorCode::Protocol,
                    message: e.to_string(),
                },
            );
            Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
        }
    }
}

/// Publish a subscriber's row on a state change; per-segment progress
/// goes through [`ReplicaRegistry::record_ack`] instead.
fn publish_replica(
    shared: &Shared,
    id: u64,
    peer: &str,
    state: &str,
    acked: u64,
    shipped: u64,
    last_ack_us: u64,
) {
    shared.replicas.upsert(ReplicaRow {
        id,
        endpoint: peer.to_string(),
        state: state.to_string(),
        acked,
        shipped,
        last_ack_us,
    });
}

// ---------------------------------------------------------------------
// Server-side frame IO (failpoints + byte counters live here, so the
// in-process client half never trips them)
// ---------------------------------------------------------------------

/// Read the peer's next frame, first flushing whatever is queued: the
/// peer may be waiting for it before it sends anything.
fn read_frame_srv(conn: &mut Conn) -> io::Result<Vec<u8>> {
    conn.flush()?;
    bq_faults::fail_point!("server.conn.drop", |_| Err(io::Error::new(
        io::ErrorKind::ConnectionAborted,
        "injected connection drop",
    )));
    bq_faults::fail_point!("server.read.partial", |_| {
        // Consume the length prefix, then abandon the body mid-read:
        // exactly what a peer dying between header and payload looks like.
        let mut len = [0u8; 4];
        let _ = conn.read_exact(&mut len);
        Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "injected partial read",
        ))
    });
    let body = conn.read_frame()?;
    bq_obs::counter!("bq_server_bytes_in_total", "request bytes read").add(body.len() as u64 + 4);
    Ok(body)
}

fn write_frame_srv(conn: &mut Conn, resp: &Response) -> io::Result<()> {
    push_frame_srv(conn, |out| out.extend_from_slice(&resp.encode()))
}

/// Queue one frame whose body `encode` writes straight into the
/// connection's outgoing buffer.
fn push_frame_srv(conn: &mut Conn, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    bq_faults::fail_point!("server.write.partial", |_| {
        // Send what is queued, the length prefix and half the body, then
        // fail: the client sees a truncated frame, never a silent success.
        let mut body = Vec::new();
        encode(&mut body);
        let _ = conn.flush();
        let _ = conn.get_mut().write_all(&(body.len() as u32).to_le_bytes());
        let _ = conn.get_mut().write_all(&body[..body.len() / 2]);
        Err(io::Error::new(
            io::ErrorKind::WriteZero,
            "injected partial write",
        ))
    });
    let len = conn.push(encode)?;
    bq_obs::counter!("bq_server_bytes_out_total", "response bytes written").add(len as u64 + 4);
    Ok(())
}

/// Queue whole frames encoded away from the connection
/// ([`encode_reply`]); `server.write.partial` acts as in
/// [`push_frame_srv`], on the first of them.
fn push_frames_srv(conn: &mut Conn, frames: Vec<u8>) -> io::Result<()> {
    bq_faults::fail_point!("server.write.partial", |_| {
        let body = bq_util::ByteReader::new(&frames).u32().unwrap_or(0) as usize;
        let _ = conn.flush();
        let _ = conn
            .get_mut()
            .write_all(&frames[..(4 + body / 2).min(frames.len())]);
        Err(io::Error::new(
            io::ErrorKind::WriteZero,
            "injected partial write",
        ))
    });
    let len = frames.len();
    conn.push_frames(frames)?;
    bq_obs::counter!("bq_server_bytes_out_total", "response bytes written").add(len as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DriverError;
    use bq_relational::{Relation, Schema, Tuple, Type, Value};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::net::TcpListener;

    // Allocations counted per thread, so a test measures only what its own
    // thread allocates while other tests run.
    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    struct Counting;

    fn count() {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }

    // SAFETY: every call goes to `System` with the caller's arguments
    // unchanged, so `System`'s guarantees are this allocator's; `count`
    // only bumps a thread-local `Cell` and never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through this allocator.
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            // SAFETY: `ptr` came from `System` through this allocator.
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOC: Counting = Counting;

    fn socket_writes() -> u64 {
        bq_obs::global()
            .snapshot()
            .get("bq_server_socket_writes_total") as u64
    }

    /// Queue `out` as a reply on a real loopback socket, flush it, and
    /// return the bytes the peer received and the socket writes it took.
    fn reply_bytes(out: Result<Produced<Vec<u8>>, DriverError>, qid: u64) -> (Vec<u8>, u64) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Framed::new(Socket(listener.accept().unwrap().0));
        let before = socket_writes();
        send_reply(&mut conn, out, qid).unwrap();
        conn.flush().unwrap();
        let writes = socket_writes() - before;
        drop(conn);
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        (got, writes)
    }

    /// The same reply the way it used to be sent: one owned `Response`
    /// per frame, `Rows` batches cloned from `Relation::tuples`.
    fn frame_by_frame(frames: &[Response]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for frame in frames {
            wire::write_frame(&mut bytes, &frame.encode()).unwrap();
        }
        bytes
    }

    fn numbers(n: i64) -> Relation {
        let schema = Schema::new(&[("a", Type::Int), ("s", Type::Str)]).unwrap();
        let tuples =
            (0..n).map(|i| Tuple::new(vec![Value::Int(i), Value::str("x".repeat(i as usize % 5))]));
        Relation::from_tuples(schema, tuples).unwrap()
    }

    /// An engine whose table `t` holds `rel`.
    fn engine(rel: &Relation) -> RwLock<Db> {
        let mut db = Db::new();
        db.create_table("t", &[("a", Type::Int), ("s", Type::Str)])
            .unwrap();
        for t in rel.iter() {
            db.insert("t", t.values().to_vec()).unwrap();
        }
        RwLock::new(db)
    }

    /// The server's select arm on the calling thread: run the whole-table
    /// export under the read lock and encode its reply there.
    fn export(
        db: &RwLock<Db>,
        batch_rows: usize,
        ctx: &QueryContext,
    ) -> Result<Vec<u8>, DriverError> {
        let stmt = parse_statement("select x.a, x.s from t x").unwrap();
        let out = SessionCore::new().run_as(db, &stmt, ctx, |answer| {
            encode_reply(answer, batch_rows, 9, ctx)
        })?;
        match out {
            Produced::Rows(frames) => Ok(frames),
            Produced::Message(m) => panic!("expected rows, got `{m}`"),
        }
    }

    #[test]
    fn every_reply_is_the_frame_by_frame_bytes_in_one_write() {
        let batch = ServerConfig::default().batch_rows;
        for n in [0, 1, batch, batch + 1, 3 * batch + 7] {
            let rel = numbers(n as i64);
            let mut frames = vec![Response::RowSchema {
                cols: vec![("a".into(), Type::Int), ("s".into(), Type::Str)],
            }];
            for chunk in rel.tuples().chunks(batch) {
                frames.push(Response::Rows {
                    tuples: chunk.to_vec(),
                });
            }
            frames.push(Response::Done {
                rows: n as u64,
                query: 9,
                message: String::new(),
            });
            let reply = export(&engine(&rel), batch, &QueryContext::unlimited());
            let (got, writes) = reply_bytes(reply.map(Produced::Rows), 9);
            assert_eq!(got, frame_by_frame(&frames), "{n} rows");
            assert_eq!(writes, 1, "{n} rows");
        }

        let done = Ok(Produced::Message("created table t".into()));
        let (got, writes) = reply_bytes(done, 4);
        let expected = frame_by_frame(&[Response::Done {
            rows: 0,
            query: 4,
            message: "created table t".into(),
        }]);
        assert_eq!((got, writes), (expected, 1));

        let err = Err(DriverError::new(ErrorCode::NoSuchTable, "no table t"));
        let (got, writes) = reply_bytes(err, 4);
        let expected = frame_by_frame(&[Response::Error {
            code: ErrorCode::NoSuchTable,
            message: "no table t".into(),
        }]);
        assert_eq!((got, writes), (expected, 1));
    }

    #[test]
    fn an_export_allocates_per_frame_not_per_row() {
        let batch = ServerConfig::default().batch_rows;
        let allocations = |n: usize| {
            let db = engine(&numbers(n as i64));
            let ctx = QueryContext::unlimited();
            let before = ALLOCS.with(Cell::get);
            let frames = export(&db, batch, &ctx).unwrap();
            let spent = ALLOCS.with(Cell::get) - before;
            drop(frames);
            spent
        };
        let (small, large) = (allocations(100), allocations(10_000));
        // What may grow with the export: the scan's morsels, the frames
        // and the buffers holding them (each grown by doubling). A copy of
        // each row alone would be 10 000 more.
        let frames = 10_000 / batch as u64 + 1;
        let morsels = 10_000 / bq_exec::DEFAULT_MORSEL_SIZE as u64 + 1;
        let bound = 4 * (frames + morsels) + 64;
        assert!(
            large - small <= bound,
            "100 rows: {small} allocations, 10 000 rows: {large} (bound {bound} more)"
        );
    }
}
