//! # sya-core — the Sya pipeline
//!
//! The top-level API of the Sya reproduction, wiring the language,
//! grounding, and inference modules into the architecture of the paper's
//! Section II: a domain expert submits a spatial DDlog program plus input
//! and evidence data; the system grounds a spatial factor graph and
//! infers the factual score of every knowledge base relation.
//!
//! ```
//! use sya_core::{EngineMode, KnowledgeBase, SyaConfig, SyaSession};
//! use sya_data::{gwdb_dataset, GwdbConfig};
//!
//! let mut dataset = gwdb_dataset(&GwdbConfig { n_wells: 120, ..Default::default() });
//! let config = SyaConfig::sya().with_epochs(200);
//! let session = SyaSession::new(&dataset.program, dataset.constants.clone(),
//!                               dataset.metric, config).unwrap();
//! let evidence = dataset.evidence.clone();
//! let kb: KnowledgeBase = session
//!     .construct(&mut dataset.db, &move |_, vals| {
//!         vals.first()
//!             .and_then(sya_store::Value::as_int)
//!             .and_then(|id| evidence.get(&id).copied())
//!     })
//!     .unwrap();
//! let scores = kb.scores_by_id("IsSafe");
//! assert_eq!(scores.len(), 120);
//! ```
//!
//! Two engine modes share the pipeline:
//! * [`EngineMode::Sya`] — spatial factors + Spatial Gibbs Sampling;
//! * [`EngineMode::DeepDive`] — the comparator: spatial predicates as
//!   plain boolean conditions, no spatial factors, sequential Gibbs;
//!   optionally with step-function rule expansion (Section VI-B2).
//!
//! Construction runs are *governed*: [`SyaConfig`] carries a
//! [`RunBudget`] (deadline, factor/variable/memory caps), callers can
//! cancel via a [`CancellationToken`], and every [`KnowledgeBase`] is
//! tagged with a [`RunOutcome`] describing how its run ended.

pub mod config;
pub mod error;
pub mod pipeline;
pub mod query;
pub mod result;

pub use config::{CheckpointConfig, EngineMode, SamplerKind, SyaConfig};
pub use error::SyaError;
pub use sya_ckpt::{CheckpointStore, CkptError, Recovery};
pub use pipeline::SyaSession;
pub use query::{hull_of, to_geojson, KbFact, KbQuery};
pub use result::{KnowledgeBase, Timings};
pub use sya_obs::{ConvergenceSeries, MetricsSnapshot, Obs, TracerSnapshot};
pub use sya_runtime::{
    Backoff, BudgetExceeded, CancellationToken, ExecContext, FaultPlan, Phase, Resource,
    RunBudget, RunOutcome,
};
// The cluster surface (DESIGN.md §13), re-exported for the CLI's
// `shard-coordinator` / `shard-worker` subcommands.
pub use sya_shard::{
    ClusterConfig, StatusServer, WorkerHandle, WorkerLauncher, WorkerOptions, WorkerSpec,
};
