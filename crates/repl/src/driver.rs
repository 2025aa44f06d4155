//! The failover client: a multi-endpoint [`Driver`] with reconnection,
//! seeded backoff, and safe retry semantics.
//!
//! Retry policy, by operation class:
//!
//! * **Reads** (selects, prepare/execute, kill, list) fail over
//!   transparently: any endpoint-level failure — connection loss, a
//!   timeout, a drain announcement — advances to the next endpoint and
//!   retries, up to [`FailoverOptions::max_attempts`].
//! * **Untagged writes** are retried only when the server provably did
//!   not execute them: a typed `ReadOnlyReplica`, `GoingAway`,
//!   `Shutdown`, or `Overloaded` refusal happens before dispatch, so the
//!   statement is re-sent elsewhere. An ambiguous failure — the
//!   connection died after the statement was sent — is surfaced to the
//!   caller instead; a lost ack must never be retried into a
//!   double-apply.
//! * **Tagged writes** ([`FailoverDriver::execute_tagged`]) are retried
//!   freely across every failure class: the server deduplicates on
//!   (client identity, request id), so a retry of an already-committed
//!   write answers success without re-applying.
//!
//! The client identity is derived from the seed once at construction and
//! reused across every reconnect, which is what keeps the server-side
//! dedup table effective after a failover.

use crate::backoff::Backoff;
use bq_core::SessionLimits;
use bq_exec::ExecMode;
use bq_server::client::{connect_with, ConnectOptions, Connection};
use bq_server::driver::{Driver, DriverError, Outcome};
use bq_server::stmt::parse_statement;
use bq_server::wire::{ErrorCode, QueryInfo};
use bq_util::{Rng, SplitMix64};
use std::collections::HashMap;
use std::thread;
use std::time::Duration;

/// Tunables for a [`FailoverDriver`].
#[derive(Debug, Clone)]
pub struct FailoverOptions {
    /// Dial + handshake deadline per endpoint attempt.
    pub connect_timeout: Duration,
    /// Per-read socket deadline on established sessions (`None` =
    /// unlimited; long queries are legitimate).
    pub read_timeout: Option<Duration>,
    /// Attempts per retryable operation before giving up (each attempt
    /// may cycle through every endpoint once).
    pub max_attempts: u32,
    /// Seed for the backoff jitter and the stable client identity.
    pub seed: u64,
}

impl Default for FailoverOptions {
    fn default() -> FailoverOptions {
        FailoverOptions {
            connect_timeout: Duration::from_secs(2),
            read_timeout: None,
            max_attempts: 8,
            seed: 0,
        }
    }
}

/// A prepared statement's client-side record, re-prepared lazily after
/// a reconnect invalidates the server-side id.
struct Prepared {
    sql: String,
    server_id: u64,
    generation: u64,
}

/// A multi-endpoint remote driver that survives endpoint failure.
pub struct FailoverDriver {
    endpoints: Vec<String>,
    opts: FailoverOptions,
    /// Stable identity sent in every Hello: the dedup namespace for
    /// tagged writes, kept across reconnects.
    identity: String,
    conn: Option<Connection>,
    current: usize,
    /// Bumped per successful reconnect; prepared statements from older
    /// generations are re-prepared before use.
    generation: u64,
    backoff: Backoff,
    limits: SessionLimits,
    mode: Option<ExecMode>,
    prepared: HashMap<u64, Prepared>,
    next_prepared: u64,
}

impl FailoverDriver {
    /// Build a driver over `endpoints` (tried in order, round-robin on
    /// failure). Does not dial yet; the first operation connects.
    pub fn new(endpoints: Vec<String>, opts: FailoverOptions) -> FailoverDriver {
        let mut rng = SplitMix64::seed_from_u64(opts.seed ^ 0xb9f0_a11e_d0e5_u64);
        let identity = format!("bq-failover-{:016x}", rng.next_u64());
        let backoff = Backoff::new(opts.seed);
        FailoverDriver {
            endpoints,
            opts,
            identity,
            conn: None,
            current: 0,
            generation: 0,
            backoff,
            limits: SessionLimits::default(),
            mode: None,
            prepared: HashMap::new(),
            next_prepared: 1,
        }
    }

    /// Build and eagerly dial; fails if no endpoint answers.
    pub fn connect(
        endpoints: Vec<String>,
        opts: FailoverOptions,
    ) -> Result<FailoverDriver, DriverError> {
        let mut d = FailoverDriver::new(endpoints, opts);
        d.ensure_conn()?;
        Ok(d)
    }

    /// The stable client identity (the tagged-write dedup namespace).
    pub fn identity(&self) -> &str {
        &self.identity
    }

    /// The endpoint of the live connection, if any.
    pub fn endpoint(&self) -> Option<&str> {
        self.conn
            .as_ref()
            .map(|_| self.endpoints[self.current].as_str())
    }

    /// Run one tagged (idempotent) write. Retried freely across every
    /// failure class — including ambiguous connection loss — because the
    /// server's dedup table makes the retry exactly-once.
    pub fn execute_tagged(&mut self, sql: &str, request: u64) -> Result<Outcome, DriverError> {
        let mut last = no_endpoints();
        for attempt in 0..self.opts.max_attempts.max(1) {
            if attempt > 0 {
                thread::sleep(self.backoff.next_delay());
            }
            match self.ensure_conn() {
                Err(e) => last = e,
                Ok(()) => {
                    let conn = self.conn.as_mut().expect("ensure_conn connected");
                    match conn.execute_tagged(sql, request) {
                        Ok(out) => return Ok(out),
                        Err(e) if retryable_read(&e) || e.code == ErrorCode::ReadOnlyReplica => {
                            self.fail_endpoint();
                            last = e;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Err(last)
    }

    /// Drop the current connection and advance to the next endpoint.
    fn fail_endpoint(&mut self) {
        self.conn = None;
        if !self.endpoints.is_empty() {
            self.current = (self.current + 1) % self.endpoints.len();
        }
        bq_obs::counter!(
            "bq_repl_failovers_total",
            "client failovers to another endpoint"
        )
        .inc();
    }

    /// Ensure a live, state-replayed connection, cycling endpoints once.
    fn ensure_conn(&mut self) -> Result<(), DriverError> {
        if self.conn.is_some() {
            return Ok(());
        }
        if self.endpoints.is_empty() {
            return Err(no_endpoints());
        }
        let mut last = no_endpoints();
        for _ in 0..self.endpoints.len() {
            let ep = self.endpoints[self.current].clone();
            let options = ConnectOptions {
                connect_timeout: Some(self.opts.connect_timeout),
                read_timeout: self.opts.read_timeout,
                write_timeout: Some(self.opts.connect_timeout),
                client: self.identity.clone(),
            };
            match connect_with(ep.as_str(), options).and_then(|c| self.replay_session(c)) {
                Ok(conn) => {
                    self.generation += 1;
                    self.backoff.reset();
                    self.conn = Some(conn);
                    return Ok(());
                }
                Err(e) => {
                    last = e;
                    self.current = (self.current + 1) % self.endpoints.len();
                }
            }
        }
        Err(last)
    }

    /// Re-apply session state (limits, mode) on a fresh connection.
    fn replay_session(&self, mut conn: Connection) -> Result<Connection, DriverError> {
        if self.limits != SessionLimits::default() {
            conn.set_limits(self.limits)?;
        }
        if let Some(mode) = self.mode {
            conn.set_mode(mode)?;
        }
        Ok(conn)
    }

    /// Read-class retry loop: fail over on any endpoint-level error.
    fn run_read<T>(
        &mut self,
        mut op: impl FnMut(&mut Connection) -> Result<T, DriverError>,
    ) -> Result<T, DriverError> {
        let mut last = no_endpoints();
        for attempt in 0..self.opts.max_attempts.max(1) {
            if attempt > 0 {
                thread::sleep(self.backoff.next_delay());
            }
            match self.ensure_conn() {
                Err(e) => last = e,
                Ok(()) => {
                    let conn = self.conn.as_mut().expect("ensure_conn connected");
                    match op(conn) {
                        Ok(v) => return Ok(v),
                        Err(e) if retryable_read(&e) => {
                            self.fail_endpoint();
                            last = e;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Err(last)
    }

    /// Write-class loop: retry only refusals the server provably issued
    /// before executing the statement; ambiguous loss surfaces as-is.
    fn run_write(&mut self, sql: &str) -> Result<Outcome, DriverError> {
        let mut last = no_endpoints();
        for attempt in 0..self.opts.max_attempts.max(1) {
            if attempt > 0 {
                thread::sleep(self.backoff.next_delay());
            }
            match self.ensure_conn() {
                Err(e) => last = e,
                Ok(()) => {
                    let conn = self.conn.as_mut().expect("ensure_conn connected");
                    match conn.execute(sql) {
                        Ok(out) => return Ok(out),
                        Err(e) if refused_before_execution(&e) => {
                            self.fail_endpoint();
                            last = e;
                        }
                        Err(e) => {
                            // Connection-level loss after the statement was
                            // sent is ambiguous: never silently retried.
                            if matches!(e.code, ErrorCode::Io | ErrorCode::Timeout) {
                                self.conn = None;
                            }
                            return Err(e);
                        }
                    }
                }
            }
        }
        Err(last)
    }
}

fn no_endpoints() -> DriverError {
    DriverError::new(ErrorCode::Io, "no endpoint reachable")
}

/// Failures that make the current endpoint useless but carry no
/// side-effect risk for reads.
fn retryable_read(e: &DriverError) -> bool {
    matches!(
        e.code,
        ErrorCode::Io
            | ErrorCode::Timeout
            | ErrorCode::GoingAway
            | ErrorCode::Shutdown
            | ErrorCode::Overloaded
            | ErrorCode::Protocol
    )
}

/// Typed refusals the server sends *before* dispatching a statement, so
/// re-sending an untagged write elsewhere cannot double-apply.
fn refused_before_execution(e: &DriverError) -> bool {
    matches!(
        e.code,
        ErrorCode::ReadOnlyReplica
            | ErrorCode::GoingAway
            | ErrorCode::Shutdown
            | ErrorCode::Overloaded
    )
}

impl Driver for FailoverDriver {
    fn execute(&mut self, line: &str) -> Result<Outcome, DriverError> {
        match parse_statement(line) {
            Ok(stmt) if stmt.is_mutation() => self.run_write(line),
            // Selects — and lines the server will refuse identically
            // everywhere (parse errors) — fail over freely.
            _ => self.run_read(|c| c.execute(line)),
        }
    }

    fn prepare(&mut self, sql: &str) -> Result<u64, DriverError> {
        let server_id = self.run_read(|c| c.prepare(sql))?;
        let id = self.next_prepared;
        self.next_prepared += 1;
        self.prepared.insert(
            id,
            Prepared {
                sql: sql.to_string(),
                server_id,
                generation: self.generation,
            },
        );
        Ok(id)
    }

    fn execute_prepared(&mut self, stmt: u64) -> Result<Outcome, DriverError> {
        let mut last = no_endpoints();
        for attempt in 0..self.opts.max_attempts.max(1) {
            if attempt > 0 {
                thread::sleep(self.backoff.next_delay());
            }
            if let Err(e) = self.ensure_conn() {
                last = e;
                continue;
            }
            let generation = self.generation;
            let Some(entry) = self.prepared.get_mut(&stmt) else {
                return Err(DriverError::new(
                    ErrorCode::NoSuchStatement,
                    format!("no prepared statement {stmt}"),
                ));
            };
            let conn = self.conn.as_mut().expect("ensure_conn connected");
            // A reconnect invalidated the server-side id: re-prepare
            // from the saved text first.
            if entry.generation != generation {
                match conn.prepare(&entry.sql) {
                    Ok(sid) => {
                        entry.server_id = sid;
                        entry.generation = generation;
                    }
                    Err(e) if retryable_read(&e) => {
                        self.fail_endpoint();
                        last = e;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            let server_id = entry.server_id;
            match conn.execute_prepared(server_id) {
                Ok(out) => return Ok(out),
                Err(e) if retryable_read(&e) => {
                    self.fail_endpoint();
                    last = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    fn set_limits(&mut self, limits: SessionLimits) -> Result<(), DriverError> {
        self.run_read(|c| c.set_limits(limits))?;
        self.limits = limits;
        Ok(())
    }

    fn limits(&self) -> SessionLimits {
        self.limits
    }

    fn set_mode(&mut self, mode: ExecMode) -> Result<(), DriverError> {
        self.run_read(|c| c.set_mode(mode))?;
        self.mode = Some(mode);
        Ok(())
    }

    fn mode(&self) -> Option<ExecMode> {
        self.mode
    }

    fn kill(&mut self, query: u64) -> Result<bool, DriverError> {
        self.run_read(|c| c.kill(query))
    }

    fn running(&mut self) -> Result<Vec<QueryInfo>, DriverError> {
        self.run_read(|c| c.running())
    }

    fn backend(&self) -> &'static str {
        "failover"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_core::Db;
    use bq_server::{serve, ServerConfig};
    use std::sync::{Arc, RwLock};

    /// Satellite regression: after a successful reconnect the
    /// equal-jitter backoff forgets its failure streak — the next delay
    /// is drawn from the base band again, not left sitting at the cap.
    #[test]
    fn backoff_resets_to_base_after_successful_reconnect() {
        let server = serve(Arc::new(RwLock::new(Db::new())), ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let opts = FailoverOptions {
            seed: 20_260_807,
            max_attempts: 2,
            ..FailoverOptions::default()
        };
        let mut driver = FailoverDriver::new(vec![addr], opts);

        // Inflate the failure streak into the cap band, as a long
        // outage of every endpoint would.
        for _ in 0..10 {
            driver.backoff.next_delay();
        }
        assert!(driver.backoff.attempt() >= 10);
        let inflated = driver.backoff.next_delay().as_millis() as u64;
        assert!(
            inflated >= 250,
            "streak should sit in the cap band, got {inflated}ms"
        );

        // The first operation dials, succeeds, and must reset the
        // schedule inside ensure_conn.
        driver.execute("select q.query from bq.queries q").unwrap();
        assert_eq!(
            driver.backoff.attempt(),
            0,
            "successful reconnect must clear the streak"
        );
        let next = driver.backoff.next_delay().as_millis() as u64;
        assert!(
            next <= 10,
            "post-reset delay {next}ms should be in the base band (<= base 10ms)"
        );

        server.shutdown(Duration::from_secs(2));
    }
}
