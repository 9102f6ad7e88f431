//! Governed sampler runs: outcome reporting and inference errors.
//!
//! Every run takes an [`ExecContext`](sya_runtime::ExecContext); the
//! driver honours deadlines and cancellation at epoch barriers,
//! isolates lane panics, and reports how the run ended instead of
//! aborting the process.

use crate::marginals::MarginalCounts;
use std::fmt;
use sya_obs::ConvergenceSeries;
use sya_runtime::RunOutcome;

/// The result of a governed sampler run: the counts plus how the run
/// ended and any degradation notes.
#[derive(Debug)]
pub struct SamplerRun {
    pub counts: MarginalCounts,
    /// `Completed` for a clean run; `Degraded` when workers were lost
    /// but the marginals are still usable; `TimedOut` / `Cancelled` when
    /// the run stopped early (the counts are partial but valid).
    pub outcome: RunOutcome,
    /// Human-readable notes about what degraded (dropped instances,
    /// re-sampled lanes, failed checkpoint saves).
    pub warnings: Vec<String>,
    /// Per-epoch convergence trajectory (flip rate, marginal delta,
    /// pseudo-log-likelihood at a fixed cadence). Multi-instance runs
    /// average the series over surviving instances.
    pub telemetry: ConvergenceSeries,
}

/// Inference failures that cannot be degraded around.
#[derive(Debug)]
pub enum InferError {
    /// Every parallel inference instance panicked; there are no counts
    /// to average.
    AllInstancesFailed {
        instances: usize,
        /// Panic message of the first failed instance.
        first_cause: String,
    },
    /// A resume state did not fit the run (wrong sampler kind, graph
    /// shape, or instance count). Callers are expected to validate
    /// recovered checkpoints first, so hitting this means the validation
    /// was skipped or the graph changed in between.
    BadResume {
        detail: String,
    },
    /// A shard's ownership class cuts through a sweep unit (a sweep
    /// level coarser than the partition level). Units are swept
    /// sequentially by one owner; clipping one would make the samples
    /// depend on the shard count, so the configuration is refused.
    SplitUnit {
        detail: String,
    },
    /// A multi-process cluster run could not be set up or supervised
    /// past the point of graceful degradation (e.g. the coordinator
    /// socket cannot bind, or every shard exhausted its restart
    /// budget before producing a single usable result), or a worker's
    /// halo hook ended its run.
    Cluster {
        detail: String,
    },
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::AllInstancesFailed { instances, first_cause } => write!(
                f,
                "all {instances} inference instance(s) failed; first cause: {first_cause}"
            ),
            InferError::BadResume { detail } => {
                write!(f, "resume state does not fit this run: {detail}")
            }
            InferError::SplitUnit { detail } => {
                write!(f, "shard plan splits a sweep unit: {detail}")
            }
            InferError::Cluster { detail } => write!(f, "cluster failure: {detail}"),
        }
    }
}

impl std::error::Error for InferError {}

/// Renders a panic payload (from `catch_unwind` / `JoinHandle::join`)
/// into a displayable message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
