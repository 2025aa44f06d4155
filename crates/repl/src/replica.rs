//! The replica side of WAL shipping: dial the primary, bootstrap from a
//! snapshot, then apply shipped segments forever. The snapshot is itself
//! a prefix of WAL records behind a header, so bootstrap and streaming
//! both enter the engine through `Db::apply_record`, one record at a
//! time; the snapshot's header names the primary WAL offset the stream
//! resumes at.
//!
//! One worker thread owns the whole lifecycle. It subscribes over the
//! ordinary wire protocol ([`bq_server::wire`]), so a replica is just
//! another client as far as the primary's accept path, admission control,
//! and session accounting are concerned. The stream protocol is a strict
//! send/ack ping-pong in which the replica's acknowledgement is
//! authoritative: it acks the byte offset it has *received contiguously
//! and applied through*, and the primary continues from whatever the ack
//! says. A segment that opens a gap (a dropped or reordered predecessor)
//! is refused — not applied, acked at the old horizon — which rewinds the
//! primary with no retransmit machinery beyond the WAL's own offsets.
//!
//! Crash semantics: the worker applies complete records only (a record
//! split across segments waits in a pending buffer), acks only after
//! apply, and re-subscribes from the last fully-applied record boundary
//! after any disconnect. Because the primary syncs its WAL on every
//! commit, an ack at or past a commit's offset proves that commit is
//! applied here — the fact the semi-sync tagged-write wait relies on.

use crate::backoff::Backoff;
use bq_core::Db;
use bq_server::wire::{Framed, Request, Response, PROTOCOL_VERSION, SUBSCRIBE_BOOTSTRAP};
use bq_storage::Wal;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How a replica worker run ended.
enum StreamEnd {
    /// [`Replica::stop`] was requested.
    Stopped,
    /// The primary announced a drain; reconnect immediately.
    GoingAway,
    /// The `repl.apply.crash` failpoint fired: simulate a process crash
    /// mid-apply. The worker exits; a fresh replica must re-bootstrap.
    Crashed,
}

/// Tunables for a [`Replica`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Primary's address, e.g. `127.0.0.1:4444`.
    pub primary: String,
    /// Dial + handshake deadline per attempt.
    pub connect_timeout: Duration,
    /// Read poll while streaming: how quickly the worker notices a stop
    /// request or a dead link when the primary is idle.
    pub read_poll: Duration,
    /// Seed for the reconnect backoff jitter.
    pub seed: u64,
}

impl ReplicaConfig {
    /// Defaults: 5s connect deadline, 250ms read poll, seed 0.
    pub fn new(primary: impl Into<String>) -> ReplicaConfig {
        ReplicaConfig {
            primary: primary.into(),
            connect_timeout: Duration::from_secs(5),
            read_poll: Duration::from_millis(250),
            seed: 0,
        }
    }
}

/// A live replica: a fresh engine plus the worker thread keeping it in
/// sync with the primary. Serve reads from [`Replica::db`] (embedded, or
/// behind a read-only [`bq_server::serve`]); call [`Replica::promote`]
/// when the primary dies.
pub struct Replica {
    db: Arc<RwLock<Db>>,
    stop: Arc<AtomicBool>,
    state: Arc<Mutex<String>>,
    applied: Arc<AtomicU64>,
    worker: Option<JoinHandle<()>>,
}

impl Replica {
    /// Start replicating from `config.primary` into a fresh engine. The
    /// worker retries forever (capped-exponential backoff, seeded
    /// jitter) until stopped, promoted, or crashed by a failpoint.
    pub fn start(config: ReplicaConfig) -> Replica {
        let db = Arc::new(RwLock::new(Db::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(Mutex::new("connecting".to_string()));
        let applied = Arc::new(AtomicU64::new(0));
        let worker = {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let state = Arc::clone(&state);
            let applied = Arc::clone(&applied);
            thread::Builder::new()
                .name("bq-replica".to_string())
                .spawn(move || worker(&db, &stop, &state, &applied, &config))
                .ok()
        };
        Replica {
            db,
            stop,
            state,
            applied,
            worker,
        }
    }

    /// The replicated engine. Safe to serve reads from at any time; its
    /// contents converge to the primary's committed state.
    pub fn db(&self) -> Arc<RwLock<Db>> {
        Arc::clone(&self.db)
    }

    /// Primary WAL byte offset applied through (last fully-applied
    /// record boundary).
    pub fn applied(&self) -> u64 {
        // relaxed: progress gauge; the db lock orders the data itself.
        self.applied.load(Ordering::Relaxed)
    }

    /// Worker state: `connecting`, `bootstrapping`, `streaming`,
    /// `reconnecting`, `crashed`, or `stopped`.
    pub fn state(&self) -> String {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Stop replicating (idempotent; joins the worker).
    pub fn stop(&mut self) {
        // relaxed: advisory stop flag, re-polled by the worker loop.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }

    /// Promote this replica: stop replication, abort any transactions
    /// that were open in the shipped stream (their coordinator is gone),
    /// and hand back the engine, now safe to serve writes.
    pub fn promote(mut self) -> Arc<RwLock<Db>> {
        self.stop();
        {
            let mut db = self.db.write().unwrap_or_else(|e| e.into_inner());
            let _ = db.promote();
        }
        bq_obs::counter!("bq_repl_promotions_total", "replicas promoted to primary").inc();
        Arc::clone(&self.db)
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop();
    }
}

fn set_state(state: &Mutex<String>, s: &str) {
    *state.lock().unwrap_or_else(|e| e.into_inner()) = s.to_string();
}

fn worker(
    db: &Arc<RwLock<Db>>,
    stop: &AtomicBool,
    state: &Mutex<String>,
    applied: &AtomicU64,
    config: &ReplicaConfig,
) {
    let mut backoff = Backoff::new(config.seed);
    // Last fully-applied record boundary; `None` until a snapshot lands.
    let mut base: Option<u64> = None;
    loop {
        // relaxed: advisory stop flag, re-polled every attempt.
        if stop.load(Ordering::Relaxed) {
            set_state(state, "stopped");
            return;
        }
        match run_stream(db, stop, state, applied, config, &mut base, &mut backoff) {
            Ok(StreamEnd::Stopped) => {
                set_state(state, "stopped");
                return;
            }
            Ok(StreamEnd::Crashed) => {
                set_state(state, "crashed");
                return;
            }
            Ok(StreamEnd::GoingAway) | Err(_) => {
                bq_obs::counter!(
                    "bq_repl_reconnects_total",
                    "replica reconnect attempts after a lost stream"
                )
                .inc();
                set_state(state, "reconnecting");
                sleep_unless_stopped(stop, backoff.next_delay());
            }
        }
    }
}

/// Sleep in small slices so a stop request is honored promptly.
fn sleep_unless_stopped(stop: &AtomicBool, total: Duration) {
    let slice = Duration::from_millis(10);
    let mut left = total;
    while !left.is_zero() {
        // relaxed: advisory stop flag, re-polled every slice.
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let step = left.min(slice);
        thread::sleep(step);
        left -= step;
    }
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_resp(stream: &mut Framed<TcpStream>) -> io::Result<Response> {
    let body = stream.read_frame()?;
    Response::decode(&body).map_err(|e| bad_data(e.to_string()))
}

/// Send one request in one write.
fn send(stream: &mut Framed<TcpStream>, req: &Request) -> io::Result<()> {
    stream.write_frame(&req.encode())?;
    stream.flush()
}

fn dial(primary: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = None;
    for addr in primary.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            "primary resolved to nothing",
        )
    }))
}

/// One connected run: handshake, subscribe, apply until the stream ends.
fn run_stream(
    db: &Arc<RwLock<Db>>,
    stop: &AtomicBool,
    state: &Mutex<String>,
    applied: &AtomicU64,
    config: &ReplicaConfig,
    base: &mut Option<u64>,
    backoff: &mut Backoff,
) -> io::Result<StreamEnd> {
    let socket = dial(&config.primary, config.connect_timeout)?;
    let _ = socket.set_nodelay(true);
    let _ = socket.set_write_timeout(Some(config.connect_timeout));
    // The connect deadline also bounds handshake and bootstrap reads.
    let _ = socket.set_read_timeout(Some(config.connect_timeout));
    let mut stream = Framed::new(socket);
    send(
        &mut stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            client: "bq-repl".to_string(),
        },
    )?;
    match read_resp(&mut stream)? {
        Response::HelloOk { .. } => {}
        Response::Error { code, message } => {
            return Err(bad_data(format!("primary refused: {code}: {message}")))
        }
        other => return Err(bad_data(format!("expected HelloOk, got {other:?}"))),
    }
    let start = base.unwrap_or(SUBSCRIBE_BOOTSTRAP);
    send(&mut stream, &Request::Subscribe { start })?;
    if base.is_none() {
        set_state(state, "bootstrapping");
        match read_resp(&mut stream)? {
            Response::Snapshot { bytes } => {
                let off = {
                    let mut db = db.write().unwrap_or_else(|e| e.into_inner());
                    db.apply_snapshot(&bytes)
                        .map_err(|e| bad_data(format!("snapshot: {e}")))?
                };
                *base = Some(off);
                // relaxed: progress gauge, see Replica::applied.
                applied.store(off, Ordering::Relaxed);
                bq_obs::counter!(
                    "bq_repl_bootstraps_total",
                    "replica bootstraps from a snapshot"
                )
                .inc();
            }
            Response::Error { code, message } => {
                return Err(bad_data(format!("bootstrap refused: {code}: {message}")))
            }
            other => return Err(bad_data(format!("expected Snapshot, got {other:?}"))),
        }
    }
    backoff.reset();
    set_state(state, "streaming");
    // Streaming reads poll briefly so stop requests are noticed even
    // when the primary is idle.
    let _ = stream.get_ref().set_read_timeout(Some(config.read_poll));
    // Contiguously-received stream pointer; bytes past the last applied
    // record boundary wait in `pending` for their record to complete.
    let mut recv_through = base.unwrap_or(0);
    let mut pending: Vec<u8> = Vec::new();
    loop {
        // relaxed: advisory stop flag, re-polled every read.
        if stop.load(Ordering::Relaxed) {
            return Ok(StreamEnd::Stopped);
        }
        let resp = match read_resp(&mut stream) {
            Ok(r) => r,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        match resp {
            Response::WalSegment {
                start: seg_start,
                bytes,
            } => {
                if seg_start > recv_through {
                    // A predecessor was lost or reordered: refuse the gap
                    // and ack the old horizon; the primary rewinds.
                    bq_obs::counter!(
                        "bq_repl_gaps_refused_total",
                        "out-of-order segments refused by replicas"
                    )
                    .inc();
                } else {
                    let overlap = (recv_through - seg_start) as usize;
                    if overlap < bytes.len() {
                        pending.extend_from_slice(&bytes[overlap..]);
                        recv_through += (bytes.len() - overlap) as u64;
                        let (records, consumed) = Wal::decode_stream(&pending)
                            .map_err(|e| bad_data(format!("wal stream: {e}")))?;
                        {
                            let mut db = db.write().unwrap_or_else(|e| e.into_inner());
                            for rec in &records {
                                // Simulated process crash between records:
                                // the worker dies without acking, so
                                // nothing already acked is ever lost.
                                bq_faults::fail_point!("repl.apply.crash", |_| Ok(
                                    StreamEnd::Crashed
                                ));
                                db.apply_record(rec)
                                    .map_err(|e| bad_data(format!("apply: {e}")))?;
                            }
                        }
                        pending.drain(..consumed);
                        *base = Some(recv_through - pending.len() as u64);
                        // relaxed: progress gauge, see Replica::applied.
                        applied.store(recv_through - pending.len() as u64, Ordering::Relaxed);
                    }
                    // else: pure duplicate of applied bytes — ack only.
                }
                // Injected link stall: hold the ack so the primary's
                // semi-sync wait and lag gauges see a slow replica.
                if let Some(action) = bq_faults::hit("repl.link.stall") {
                    if action == bq_faults::Action::Panic {
                        bq_faults::panic_at("repl.link.stall");
                    }
                    thread::sleep(Duration::from_millis(100));
                }
                send(
                    &mut stream,
                    &Request::ReplAck {
                        through: recv_through,
                    },
                )?;
            }
            Response::GoingAway { .. } => return Ok(StreamEnd::GoingAway),
            Response::Error { code, message } => {
                return Err(bad_data(format!("stream error: {code}: {message}")))
            }
            other => return Err(bad_data(format!("expected WalSegment, got {other:?}"))),
        }
    }
}
