#![warn(missing_docs)]

//! Query-serving subsystem for the projection-pushing engine.
//!
//! The paper's planning methods make project-join queries cheap to compile
//! *and* cheap to run — the regime of a long-lived service answering many
//! small queries, where planning cost is amortized across repeated
//! evaluation. This crate is that serving layer:
//!
//! * [`catalog::Catalog`] — a named collection of databases, each with a
//!   monotonically increasing [`catalog::DbVersion`] bumped by every
//!   mutation (`create` / `load` / `add` / `drop`). Snapshots are
//!   copy-on-write `Arc`s: in-flight requests keep a consistent view
//!   while writers publish new versions beside them — writers never block
//!   readers.
//! * [`lru::Lru`] — one thread-safe, weight-budgeted LRU with three
//!   instances. Every entry stores the [`ppr_query::QueryShape`] of the
//!   query that built it and is re-verified on each hit, so a collision
//!   of the 1-WL [`ppr_query::Fingerprint`] costs a recomputation, never
//!   a wrong answer.
//!   - [`result_cache::ResultCache`]: complete result sets, byte-budgeted,
//!     keyed by [`cache::CacheKey`] (database content fingerprint × query
//!     fingerprint × method × seed). A content-changing mutation changes
//!     the key, so no explicit invalidation exists or is needed.
//!   - [`cache::PlanCache`]: compiled [`ppr_relalg::Plan`]s under the same
//!     key. The fingerprint is canonical under variable renaming and atom
//!     reordering, so syntactic variants of a hot query share one plan.
//!   - [`decomp::DecompCache`]: bucket elimination's chosen variable
//!     orders, keyed **without** the database identity: a mutation forces
//!     a re-plan, but a structurally repeated query skips
//!     re-decomposition because the optimizer pipeline
//!     ([`ppr_core::passes`], docs/PLANNING.md) consumes the cached order
//!     as a pass hint.
//! * [`engine::Engine`] — a worker pool executing requests over the
//!   streaming executor, with per-request tuple/time budgets clamped by
//!   a server-side maximum, **admission control**
//!   (bounded queue + max in-flight; saturation fast-fails with
//!   [`ServiceError::Overloaded`] instead of queueing unboundedly), and
//!   graceful drain-and-shutdown. Requests are built fluently:
//!   `Request::query("q() :- e(x,y)").method(m).on("graphs")`.
//! * [`protocol`] — a newline-delimited wire format carrying the
//!   Datalog-ish query text [`ppr_query::parse_query`] accepts, method
//!   selection, budget overrides, database targeting, and the catalog
//!   verbs `use` / `create` / `load` / `add` / `drop`; responses carry
//!   status, rows, and [`ppr_relalg::ExecStats`] including cache-hit
//!   flags.
//! * [`server::Server`] / [`client::Client`] — a `std::net` TCP server
//!   built with [`server::Server::builder`] and a blocking client. Two
//!   connection backends share one wire grammar: the default
//!   single-threaded epoll event loop ([`net`]; Linux, hand-rolled — no
//!   async runtime, sized for C10K) and a thread-per-connection fallback
//!   ([`server::ConnectionModel::Threads`], the portability path). Each
//!   connection carries a session database selected with `use`, the
//!   default for requests that don't name one, plus an idle (slow-loris)
//!   timeout and a bounded output buffer for slow readers.
//!
//! Everything is std-only; the engine is equally usable embedded (via
//! [`engine::EngineHandle::execute`]) and over TCP.

pub mod cache;
pub mod catalog;
pub mod client;
pub mod decomp;
pub mod engine;
pub mod lru;
pub mod metrics;
pub mod net;
pub mod protocol;
mod queue;
pub mod result_cache;
pub mod server;

pub use cache::PlanCache;
pub use catalog::{
    fingerprint_db, Catalog, CatalogError, DbFingerprint, DbInfo, DbSnapshot, DbVersion, DEFAULT_DB,
};
pub use client::{Client, Pipeline, Ticket};
pub use decomp::{DecompCache, DecompKey};
pub use engine::{
    Engine, EngineConfig, EngineHandle, EngineStats, ExplainData, ExplainMode, Request, Response,
    SpanStats,
};
pub use lru::{Lru, LruStats};
pub use metrics::{render_slowlog, ServiceMetrics, DEFAULT_SLOWLOG_CAPACITY};
pub use net::{CloseReason, NetMetrics};
pub use result_cache::ResultCache;
pub use server::{ConnectionModel, Server, ServerBuilder, ServerConfig};

use ppr_relalg::RelalgError;

/// Errors surfaced by the serving layer, both embedded and over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control rejected the request: the bounded queue (or the
    /// in-flight cap) is full. Clients should back off and retry; the
    /// server sheds load instead of queueing unboundedly.
    Overloaded {
        /// Requests queued or executing when the request was rejected.
        inflight: usize,
        /// The in-flight cap that was hit.
        capacity: usize,
    },
    /// The engine is draining and no longer accepts new requests.
    ShuttingDown,
    /// The query text did not parse.
    Parse(String),
    /// The query referenced a relation the target database does not have
    /// (or with the wrong arity).
    MissingRelation(String),
    /// The request (or a `use` verb) named a database the catalog does
    /// not have.
    UnknownDatabase(String),
    /// A catalog mutation failed: the database already exists, a tuple's
    /// arity disagrees with the relation, or a `load` carried no tuples.
    Catalog(String),
    /// The wire protocol named an unknown method.
    UnknownMethod(String),
    /// Execution failed — budget exhaustion ([`RelalgError::BudgetExceeded`])
    /// or an invalid plan.
    Exec(RelalgError),
    /// A malformed protocol line.
    Protocol(String),
    /// Client-side transport failure.
    Io(String),
    /// A worker panicked while processing the request (caught and
    /// isolated; the worker survives and the in-flight slot is released).
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { inflight, capacity } => {
                write!(f, "overloaded: {inflight} in flight (cap {capacity})")
            }
            ServiceError::ShuttingDown => write!(f, "server is shutting down"),
            ServiceError::Parse(m) => write!(f, "parse error: {m}"),
            ServiceError::MissingRelation(m) => write!(f, "missing relation: {m}"),
            ServiceError::UnknownDatabase(m) => write!(f, "unknown database: {m}"),
            ServiceError::Catalog(m) => write!(f, "catalog error: {m}"),
            ServiceError::UnknownMethod(m) => write!(f, "unknown method: {m}"),
            ServiceError::Exec(e) => write!(f, "execution error: {e}"),
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServiceError::Io(m) => write!(f, "io error: {m}"),
            ServiceError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl ServiceError {
    /// Stable machine-readable kind, shared by the wire protocol's
    /// `err kind=…` encoding and the slow-query log's outcome column.
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::ShuttingDown => "shutting_down",
            ServiceError::Parse(_) => "parse",
            ServiceError::MissingRelation(_) => "missing_relation",
            ServiceError::UnknownDatabase(_) => "unknown_db",
            ServiceError::Catalog(_) => "catalog",
            ServiceError::UnknownMethod(_) => "unknown_method",
            ServiceError::Exec(e) => match e {
                RelalgError::BudgetExceeded { .. } => "budget",
                _ => "exec",
            },
            ServiceError::Protocol(_) => "protocol",
            ServiceError::Io(_) => "io",
            ServiceError::Internal(_) => "internal",
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e.to_string())
    }
}

impl From<CatalogError> for ServiceError {
    fn from(e: CatalogError) -> Self {
        match e {
            CatalogError::UnknownDatabase(name) => ServiceError::UnknownDatabase(name),
            other => ServiceError::Catalog(other.to_string()),
        }
    }
}
