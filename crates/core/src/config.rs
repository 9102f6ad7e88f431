//! Pipeline configuration: engine modes, sampler choice, and the knobs
//! the paper's experiments vary.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;
use sya_ground::{GroundConfig, StepFunctionSpec};
use sya_infer::InferConfig;
use sya_runtime::RunBudget;

/// Durability settings for a run (DESIGN.md §10). Disabled by default:
/// no checkpoint directory means the samplers never touch the disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory for checkpoint files and the persisted factor graph.
    /// `None` disables checkpointing entirely.
    pub dir: Option<PathBuf>,
    /// Save a checkpoint every `every` epochs (epoch barriers only).
    /// Ignored when `dir` is `None`; `0` saves only on interruption.
    pub every: usize,
    /// Resume from the newest valid checkpoint in `dir` instead of
    /// starting the chains fresh.
    pub resume: bool,
}

impl CheckpointConfig {
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }
}

/// Spatial sharding of the inference run (DESIGN.md §12). Disabled by
/// default (`shards == 0`): the classic samplers run unsharded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardingConfig {
    /// Number of shards the partitioner cuts the KB into. `0` disables
    /// sharding; `1` runs the sharded path with one shard (useful as the
    /// parity reference).
    pub shards: usize,
    /// Pyramid level of the cut (`2^l × 2^l` candidate cells).
    pub partition_level: u8,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        ShardingConfig { shards: 0, partition_level: 4 }
    }
}

impl ShardingConfig {
    pub fn is_enabled(&self) -> bool {
        self.shards >= 1
    }
}

/// Which system is being run.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineMode {
    /// Sya: automatic spatial factors + Spatial Gibbs Sampling.
    Sya,
    /// DeepDive comparator: spatial predicates evaluated as booleans, no
    /// spatial factors, standard sampling.
    DeepDive,
    /// DeepDive with step-function rule expansion (Section VI-B2): the
    /// distance-cutoff rules are replaced by `bands` fixed-weight
    /// distance-band rules.
    DeepDiveStepFn(StepFunctionSpec),
}

/// Which sampler estimates the marginals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// Spatial Gibbs Sampling (Algorithm 1) over the pyramid index.
    Spatial,
    /// DeepDive's sequential single-site Gibbs.
    Sequential,
    /// Random-partition parallel Gibbs with `k` buckets (the
    /// state-of-the-art baseline of Section V).
    ParallelRandom(usize),
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct SyaConfig {
    pub mode: EngineMode,
    pub sampler: SamplerKind,
    pub ground: GroundConfig,
    pub infer: InferConfig,
    /// Resource limits for the whole run (unlimited by default). The
    /// deadline stops the run gracefully with partial marginals; the
    /// count/memory limits abort grounding before a factor blow-up.
    pub budget: RunBudget,
    /// Checkpoint durability (disabled by default).
    pub checkpoint: CheckpointConfig,
    /// Spatial sharding of inference and serving (disabled by default).
    pub sharding: ShardingConfig,
}

impl SyaConfig {
    /// The Sya defaults of Section VI-A: 1000 epochs, exponential
    /// distance weighing, threshold `T = 0.5`, `L = 8`, locality level 8.
    pub fn sya() -> Self {
        SyaConfig {
            mode: EngineMode::Sya,
            sampler: SamplerKind::Spatial,
            ground: GroundConfig::default(),
            infer: InferConfig::default(),
            budget: RunBudget::unlimited(),
            checkpoint: CheckpointConfig::default(),
            sharding: ShardingConfig::default(),
        }
    }

    /// The DeepDive comparator: boolean spatial predicates, sequential
    /// Gibbs, same epoch budget.
    pub fn deepdive() -> Self {
        SyaConfig {
            mode: EngineMode::DeepDive,
            sampler: SamplerKind::Sequential,
            ground: GroundConfig { generate_spatial_factors: false, ..Default::default() },
            infer: InferConfig::default(),
            budget: RunBudget::unlimited(),
            checkpoint: CheckpointConfig::default(),
            sharding: ShardingConfig::default(),
        }
    }

    /// DeepDive with a step-function rule ladder of `bands` rules.
    pub fn deepdive_stepfn(bands: usize) -> Self {
        let mut c = Self::deepdive();
        c.mode = EngineMode::DeepDiveStepFn(StepFunctionSpec { bands, ..Default::default() });
        c
    }

    /// Step-function ladder whose band weights follow an exponential
    /// decay of the given bandwidth (the shape Sya's weighting uses).
    pub fn deepdive_stepfn_shaped(bands: usize, bandwidth: f64) -> Self {
        let mut c = Self::deepdive();
        c.mode = EngineMode::DeepDiveStepFn(StepFunctionSpec {
            bands,
            shape_bandwidth: Some(bandwidth),
            ..Default::default()
        });
        c
    }

    /// Sets the total epoch budget `E`.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.infer.epochs = epochs;
        self.infer.burn_in = (epochs / 10).max(1);
        self
    }

    /// Sets the RNG seed for grounding-independent reproducibility.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.infer.seed = seed;
        self
    }

    /// Sets the pruning threshold `T` (Section IV-C).
    pub fn with_pruning_threshold(mut self, t: f64) -> Self {
        self.ground.pruning_threshold = t;
        self
    }

    /// Declares categorical domains (relation → `h`) for the pruning
    /// experiment.
    pub fn with_domains(mut self, domains: HashMap<String, u32>) -> Self {
        self.ground.domains = domains;
        self
    }

    /// Sets the pyramid locality level (Fig. 13b).
    pub fn with_locality_level(mut self, l: u8) -> Self {
        self.infer.locality_level = l;
        self
    }

    /// Fixes the spatial weighting bandwidth (metric units) instead of
    /// deriving it from the data extent.
    pub fn with_bandwidth(mut self, bandwidth: f64) -> Self {
        self.ground.weighting_bandwidth = Some(bandwidth);
        self
    }

    /// Fixes the neighbour cutoff for spatial factor generation.
    pub fn with_spatial_radius(mut self, radius: f64) -> Self {
        self.ground.spatial_radius = Some(radius);
        self
    }

    /// Sets a wall-clock deadline for the whole run. When it fires the
    /// pipeline stops at the next checkpoint and returns partial
    /// marginals tagged [`RunOutcome::TimedOut`](sya_runtime::RunOutcome).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.budget.deadline = Some(deadline);
        self
    }

    /// Caps the number of ground factors; grounding fails fast with a
    /// budget error instead of materialising a factor blow-up.
    pub fn with_max_factors(mut self, n: u64) -> Self {
        self.budget.max_factors = Some(n);
        self
    }

    /// Caps the number of ground variables (atoms).
    pub fn with_max_variables(mut self, n: u64) -> Self {
        self.budget.max_variables = Some(n);
        self
    }

    /// Caps the estimated factor-graph memory, in bytes.
    pub fn with_max_memory_bytes(mut self, n: u64) -> Self {
        self.budget.max_memory_bytes = Some(n);
        self
    }

    /// Enables checkpointing into `dir`, saving every `every` epochs
    /// (plus always on interruption and at the final epoch).
    pub fn with_checkpoints(mut self, dir: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint.dir = Some(dir.into());
        self.checkpoint.every = every;
        self
    }

    /// Shards the inference run spatially into `n` partitions
    /// (DESIGN.md §12). Requires the spatial sampler; `0` disables.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.sharding.shards = n;
        self
    }

    /// Pyramid level the shard partitioner cuts at.
    pub fn with_partition_level(mut self, level: u8) -> Self {
        self.sharding.partition_level = level;
        self
    }

    /// Resumes from the newest valid checkpoint in the checkpoint
    /// directory (no-op when checkpointing is disabled or the directory
    /// holds no usable checkpoint — the run then starts fresh).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.checkpoint.resume = resume;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper_defaults() {
        let s = SyaConfig::sya();
        assert!(s.ground.generate_spatial_factors);
        assert_eq!(s.sampler, SamplerKind::Spatial);
        assert_eq!(s.infer.epochs, 1000);
        assert_eq!(s.ground.pruning_threshold, 0.5);
        assert_eq!(s.infer.levels, 8);
        assert_eq!(s.infer.locality_level, 8);

        let d = SyaConfig::deepdive();
        assert!(!d.ground.generate_spatial_factors);
        assert_eq!(d.sampler, SamplerKind::Sequential);
    }

    #[test]
    fn builders_update_knobs() {
        let c = SyaConfig::sya()
            .with_epochs(500)
            .with_seed(9)
            .with_pruning_threshold(0.7)
            .with_locality_level(5);
        assert_eq!(c.infer.epochs, 500);
        assert_eq!(c.infer.burn_in, 50);
        assert_eq!(c.infer.seed, 9);
        assert_eq!(c.ground.pruning_threshold, 0.7);
        assert_eq!(c.infer.locality_level, 5);
    }

    #[test]
    fn budget_builders_set_limits() {
        let c = SyaConfig::sya()
            .with_deadline(Duration::from_secs(5))
            .with_max_factors(1000)
            .with_max_variables(500)
            .with_max_memory_bytes(1 << 20);
        assert_eq!(c.budget.deadline, Some(Duration::from_secs(5)));
        assert_eq!(c.budget.max_factors, Some(1000));
        assert_eq!(c.budget.max_variables, Some(500));
        assert_eq!(c.budget.max_memory_bytes, Some(1 << 20));
        assert!(SyaConfig::sya().budget.is_unlimited());
    }

    #[test]
    fn checkpoint_builders_enable_durability() {
        let c = SyaConfig::sya();
        assert!(!c.checkpoint.is_enabled());
        let c = c.with_checkpoints("/tmp/ckpts", 25).with_resume(true);
        assert!(c.checkpoint.is_enabled());
        assert_eq!(c.checkpoint.dir.as_deref(), Some(std::path::Path::new("/tmp/ckpts")));
        assert_eq!(c.checkpoint.every, 25);
        assert!(c.checkpoint.resume);
    }

    #[test]
    fn sharding_builders_enable_the_shard_executor() {
        let c = SyaConfig::sya();
        assert!(!c.sharding.is_enabled());
        let c = c.with_shards(4).with_partition_level(3);
        assert!(c.sharding.is_enabled());
        assert_eq!(c.sharding.shards, 4);
        assert_eq!(c.sharding.partition_level, 3);
    }

    #[test]
    fn stepfn_preset_wraps_bands() {
        let c = SyaConfig::deepdive_stepfn(110);
        match c.mode {
            EngineMode::DeepDiveStepFn(spec) => assert_eq!(spec.bands, 110),
            other => panic!("{other:?}"),
        }
    }
}
