//! The in-process sharded run, and the types both sharded runs share.
//!
//! A shard is an owner table over the sweep schedule's units, not a
//! sampler of its own: [`run_in_process`] is the one driver
//! ([`sya_infer::run_gibbs`]) over the spatial schedule at one instance,
//! with the plan's owner table dealing every cell to its shard's view.
//! Draws come from per-`(seed, epoch, phase, variable)` streams and a
//! cell is swept by exactly one owner against the phase-start board, so
//! the counts are bit-identical for every shard count and to the
//! unsharded `spatial_gibbs_with` at `instances: 1`. A run checkpoints
//! into the flat `CheckpointState::Run` store every unsharded run uses,
//! so it resumes at any shard count.
//!
//! The cluster ([`crate::cluster`]) runs the same driver once per
//! worker process; what it shares with this module is the per-shard
//! checkpoint wiring and manifest, and the run report.

use crate::plan::ShardPlan;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use sya_fg::FactorGraph;
use sya_infer::{
    run_gibbs, ChainState, CheckpointOptions, InferConfig, InferError, MarginalCounts, Owners,
    PyramidIndex, SamplerRun, Schedule,
};
use sya_obs::{ConvergenceSeries, Obs};
use sya_runtime::{ExecContext, RunOutcome};

/// Checkpoint wiring of a cluster run.
#[derive(Debug, Clone, Default)]
pub struct ShardCkptOptions {
    /// Root checkpoint directory; per-shard stores go to
    /// `<dir>/shard-NN/`. `None` disables checkpointing.
    pub dir: Option<PathBuf>,
    /// Save every `every` epochs; `0` saves only the final barrier.
    pub every: usize,
    /// Attempt to resume from existing per-shard checkpoints.
    pub resume: bool,
}

/// The manifest tying a set of per-shard checkpoint stores together.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct ShardManifest {
    pub schema: String,
    pub shards: usize,
    pub partition_level: u8,
    pub fingerprint: u64,
    /// Store subdirectory names, in shard order.
    pub stores: Vec<String>,
}

/// File name of the manifest inside the checkpoint root.
pub const MANIFEST_FILE: &str = "shard-manifest.json";

pub const MANIFEST_SCHEMA: &str = "sya.shard.manifest.v1";

impl ShardManifest {
    pub fn new(plan: &ShardPlan, fingerprint: u64) -> Self {
        ShardManifest {
            schema: MANIFEST_SCHEMA.to_owned(),
            shards: plan.shards,
            partition_level: plan.partition_level,
            fingerprint,
            stores: (0..plan.shards).map(store_name).collect(),
        }
    }

    pub fn write(&self, dir: &Path) -> Result<(), String> {
        let text = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        std::fs::write(dir.join(MANIFEST_FILE), text).map_err(|e| e.to_string())
    }

    pub fn read(dir: &Path) -> Result<ShardManifest, String> {
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).map_err(|e| e.to_string())?;
        serde_json::from_str(&text).map_err(|e| e.to_string())
    }
}

/// Name of shard `shard`'s checkpoint store subdirectory.
pub fn store_name(shard: usize) -> String {
    format!("shard-{shard:02}")
}

/// Per-shard outcome of a cluster run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardStats {
    pub shard: usize,
    pub owned_vars: usize,
    pub halo_vars: usize,
    pub boundary_factors: usize,
    pub halo_bytes: usize,
    pub flips_total: u64,
    pub samples_total: u64,
}

impl ShardStats {
    /// The plan's interface sizes for `shard`, with no samples yet.
    pub fn of_plan(plan: &ShardPlan, shard: usize) -> Self {
        ShardStats {
            shard,
            owned_vars: plan.owned[shard].len(),
            halo_vars: plan.interface.halo[shard].len(),
            boundary_factors: plan.interface.boundary_per_shard[shard],
            halo_bytes: plan.interface.halo_bytes(shard),
            flips_total: 0,
            samples_total: 0,
        }
    }
}

/// Supervision health of one shard at the end of a run.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct ShardHealth {
    pub shard: usize,
    /// Worker restarts consumed.
    pub restarts: usize,
    /// The shard exhausted its restart budget; its last published halo
    /// state was frozen for the remainder of the run.
    pub lost: bool,
}

impl ShardHealth {
    /// Short human label used by healthz and run summaries.
    pub fn label(&self) -> &'static str {
        if self.lost {
            "lost"
        } else if self.restarts > 0 {
            "restarted"
        } else {
            "healthy"
        }
    }
}

/// Result of a cluster run: merged marginals plus the per-shard
/// breakdown.
#[derive(Debug)]
pub struct ShardRunReport {
    /// Marginal counts merged over all shards — shaped exactly like a
    /// single-sampler result.
    pub counts: MarginalCounts,
    pub outcome: RunOutcome,
    pub warnings: Vec<String>,
    /// Mean-merged convergence trajectory across shards.
    pub telemetry: ConvergenceSeries,
    pub per_shard: Vec<ShardStats>,
    /// Per-shard supervision health: restarts and lost shards.
    pub health: Vec<ShardHealth>,
    /// Each shard's own counts (zero rows outside its ownership class)
    /// — what the ownership tests assert on.
    pub per_shard_counts: Vec<MarginalCounts>,
    /// Epochs actually executed before the run ended (equals
    /// `cfg.epochs` unless the run was interrupted).
    pub epochs_run: usize,
}

pub(crate) fn publish_static_gauges(obs: &Obs, plan: &ShardPlan) {
    obs.gauge_set("shard.count", plan.shards as f64);
    for s in plan.summaries() {
        obs.gauge_set(&format!("shard.{}.vars", s.shard), s.owned_vars as f64);
        obs.gauge_set(
            &format!("shard.{}.boundary_factors", s.shard),
            s.boundary_factors as f64,
        );
        obs.gauge_set(&format!("shard.{}.halo_bytes", s.shard), s.halo_bytes as f64);
    }
}

/// Runs sharded Spatial Gibbs in this process: [`run_gibbs`] over the
/// spatial schedule at one instance, each cell dealt to the view of its
/// shard. `ckpt` and `resume` are the flat `CheckpointState::Run` store
/// of any run with one instance, whatever its shard count.
/// `Err(SplitUnit)` when the plan cuts through a sweep cell.
pub fn run_in_process(
    graph: &FactorGraph,
    pyramid: &PyramidIndex,
    plan: &ShardPlan,
    cfg: &InferConfig,
    ctx: &ExecContext,
    ckpt: CheckpointOptions<'_>,
    resume: Option<Vec<ChainState>>,
) -> Result<SamplerRun, InferError> {
    publish_static_gauges(ctx.obs(), plan);
    let cfg = InferConfig { instances: 1, ..cfg.clone() };
    let schedule = Schedule::spatial(graph, pyramid, &cfg);
    run_gibbs(graph, &schedule, &cfg, None, ctx, ckpt, resume, Owners::Plan(&plan.owner))
}
