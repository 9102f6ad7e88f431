//! `sya-serve`: the online knowledge-base serving layer.
//!
//! The batch pipeline constructs a [`sya_core::KnowledgeBase`] once;
//! this crate keeps it *live*: a dependency-free HTTP/1.1 server on
//! `std::net::TcpListener` with a fixed worker-thread pool, serving
//! point and batch marginal queries, absorbing evidence updates through
//! the paper's conclique-restricted incremental sampler (Fig. 13a), and
//! periodically snapshotting the refreshed marginals as `sya-ckpt`
//! checkpoints the next process can warm-start from.
//!
//! | endpoint                        | method | purpose                                  |
//! |---------------------------------|--------|------------------------------------------|
//! | `/v1/marginal/{relation}?args=` | GET    | point marginal lookup                    |
//! | `/v1/query`                     | POST   | batch marginal queries (JSON body)       |
//! | `/v1/evidence`                  | POST   | append evidence → incremental re-infer   |
//! | `/v1/rows`                      | POST   | insert/retract base rows → delta ground  |
//! | `/metrics`                      | GET    | Prometheus text exposition               |
//! | `/healthz`                      | GET    | readiness + KB epoch + checkpoint age    |
//!
//! Graceful shutdown and per-request deadlines reuse the `sya-runtime`
//! primitives ([`sya_runtime::CancellationToken`] /
//! [`sya_runtime::RunBudget`]); request counters, latency histograms,
//! and per-endpoint spans land in the server's [`sya_obs::Obs`] handle,
//! which `/metrics` renders.

pub mod admission;
mod http;
mod lazy;
mod rows;
mod server;
mod state;

pub use admission::{Admission, AdmissionConfig, InflightGuard, Shed, Ticket};
pub use http::{json_string, read_request, HttpError, Request, Response};
pub use lazy::{LazyConfig, LazyKb};
pub use rows::{RawRowUpdate, RowsOutcome};
pub use server::SyaServer;
pub use state::{EvidenceOutcome, EvidenceUpdate, MarginalAnswer, ServeState, ServingKb};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Server tunables, mirrored by the `sya serve` CLI flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// `host:port` to bind; port 0 picks an ephemeral port.
    pub listen: String,
    /// Fixed worker-thread pool size.
    pub workers: usize,
    /// Per-request deadline (socket timeouts + handler budget).
    pub request_timeout: Duration,
    /// Background checkpoint cadence; `None` disables the thread.
    pub checkpoint_refresh: Option<Duration>,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Bounded accept-queue depth; overflow is shed with
    /// `503 + Retry-After` before the body is read. `0` = auto
    /// (8 × workers).
    pub max_queue: usize,
    /// In-flight concurrency gate for expensive requests; `/healthz`
    /// and `/metrics` bypass it. `0` = auto (= workers, i.e. inert
    /// until lowered).
    pub max_inflight: usize,
}

impl ServeConfig {
    /// `max_queue` with the `0 = auto` default applied: eight waiting
    /// connections per worker keeps worst-case queue wait well under a
    /// typical request timeout while still absorbing bursts.
    pub fn resolved_max_queue(&self) -> usize {
        if self.max_queue == 0 { self.workers.max(1) * 8 } else { self.max_queue }
    }

    /// `max_inflight` with the `0 = auto` default applied: one slot per
    /// worker, so the gate only binds when explicitly tightened.
    pub fn resolved_max_inflight(&self) -> usize {
        if self.max_inflight == 0 { self.workers.max(1) } else { self.max_inflight }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:7171".into(),
            workers: 4,
            request_timeout: Duration::from_millis(10_000),
            checkpoint_refresh: None,
            max_body_bytes: 1024 * 1024,
            max_queue: 0,
            max_inflight: 0,
        }
    }
}

/// Serving-layer failures.
#[derive(Debug)]
pub enum ServeError {
    /// Could not bind or configure the listener.
    Bind(std::io::Error),
    /// The KB was built without the spatial sampler: no pyramid index,
    /// no incremental updates, nothing to serve.
    NotSpatial,
    /// An evidence batch failed schema validation (client error).
    BadEvidence(String),
    /// A `/v1/rows` batch failed decoding or validation (client error).
    BadRows(String),
    /// A validated row batch failed mid-apply (grounding or inference
    /// error) — a server-side 500, not a retryable condition.
    RowsFailed(String),
    /// Saving or opening the checkpoint store failed.
    Checkpoint(String),
    /// A lazy-mode demand grounding exhausted its per-request
    /// `RunBudget`: the query is answerable with a looser budget or a
    /// quieter server → 503 + Retry-After, counted on
    /// `serve.query.budget_exceeded_total`.
    QueryBudget(String),
    /// The lazy query path failed outright (grounding or inference
    /// error) — a server-side 500, not a retryable condition.
    QueryFailed(String),
    /// Threads still alive after the shutdown deadline — a leak.
    ShutdownTimeout { alive: Vec<String> },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "cannot bind listener: {e}"),
            ServeError::NotSpatial => write!(
                f,
                "serving requires the spatial engine: incremental re-inference \
                 needs the pyramid index"
            ),
            ServeError::BadEvidence(msg) => write!(f, "bad evidence: {msg}"),
            ServeError::BadRows(msg) => write!(f, "bad row batch: {msg}"),
            ServeError::RowsFailed(msg) => write!(f, "row apply failed: {msg}"),
            ServeError::Checkpoint(msg) => write!(f, "checkpoint failure: {msg}"),
            ServeError::QueryBudget(msg) => {
                write!(f, "query budget exhausted: {msg}; retry with a looser budget")
            }
            ServeError::QueryFailed(msg) => write!(f, "query failed: {msg}"),
            ServeError::ShutdownTimeout { alive } => write!(
                f,
                "shutdown deadline expired with {} thread(s) still alive: {}",
                alive.len(),
                alive.join(", ")
            ),
        }
    }
}

impl std::error::Error for ServeError {}

static TERMINATION: AtomicBool = AtomicBool::new(false);

extern "C" fn on_termination_signal(_signum: i32) {
    // Only async-signal-safe work here: set the flag, nothing else.
    TERMINATION.store(true, Ordering::SeqCst);
}

/// Installs a SIGTERM/SIGINT handler that flips the flag behind
/// [`termination_requested`]. The serve loop polls it and starts a
/// graceful shutdown — this is the `kill -TERM` path of process
/// managers and the CI smoke. No-op on non-Unix targets.
pub fn install_termination_handler() {
    #[cfg(unix)]
    {
        // libc's signal(2), declared directly: the container vendors no
        // libc crate, and the two constants are ABI-stable on Linux.
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(SIGTERM, on_termination_signal);
            signal(SIGINT, on_termination_signal);
        }
    }
}

/// Whether a termination signal arrived since
/// [`install_termination_handler`] was called.
pub fn termination_requested() -> bool {
    TERMINATION.load(Ordering::SeqCst)
}
