//! bq-server: the TCP front-end and client driver.
//!
//! Four layers, bottom-up:
//!
//! * [`wire`] — the versioned, length-prefixed binary protocol: frames,
//!   request/response messages, and the typed error taxonomy that maps
//!   [`bq_core::CoreError`] onto the wire.
//! * [`stmt`] — statement classification and [`stmt::SessionCore`], the
//!   per-session state machine (limits, mode, prepared statements, the
//!   interactive transaction) shared by both drivers.
//! * [`driver`] — the [`Driver`] trait plus the in-process
//!   [`EmbeddedDriver`]; [`client`] adds the remote [`Connection`]. A
//!   frontend written against the trait can't tell which one it holds.
//! * [`server`] — [`serve`]: the accept loop, per-connection sessions,
//!   admission-controlled load shedding, the running-query registry
//!   behind `KILL`, and graceful drain-then-cancel shutdown.
//!
//! The quickest tour is the `serve` example: start a server on an
//! ephemeral port, connect, create/insert/select over the wire, and shut
//! down cleanly.

pub mod client;
pub mod driver;
pub mod server;
pub mod stmt;
pub mod wire;

pub use client::{connect, connect_with, ConnectOptions, Connection};
pub use driver::{Driver, DriverError, EmbeddedDriver, Outcome};
pub use server::{serve, Server, ServerConfig};
pub use stmt::{parse_statement, SessionCore, Statement};
pub use wire::{ErrorCode, QueryInfo, Request, Response, WireError, PROTOCOL_VERSION};
