//! # sya-shard — the spatial sharding layer
//!
//! Scales Sya's inference out by cutting the knowledge base along
//! pyramid cells (DESIGN.md §12). A shard is an owner table over the
//! sweep schedule's units, not a sampler: every sharded run is the one
//! driver, [`sya_infer::run_gibbs`].
//!
//! * [`plan`] — the partitioner: the `2^l × 2^l` cells of the partition
//!   level, sorted spatially and split into `N` contiguous groups
//!   balanced by variable count; every factor is classified interior or
//!   *boundary* and every variable is, per shard, owned or a *halo*
//!   (read-only replica of a neighbour's variable);
//! * [`exec`] — [`run_in_process`]: the driver at one instance with the
//!   plan's owner table dealing each cell to its shard's view, plus the
//!   checkpoint wiring, manifest and report types the cluster shares;
//! * [`cluster`] and [`wire`] — the multi-process run (DESIGN.md §13): a
//!   worker is the driver holding its shard alone, with the coordinator
//!   socket as its halo hook.
//!
//! Draws use RNG streams derived from `(seed, epoch, phase, variable)`
//! and every cell is swept by exactly one owner against the phase-start
//! board, so the merged marginals are **bit-identical for every shard
//! count** — `sya run --shards 4` equals `--shards 1` equals the
//! unsharded single-instance run, in process or over the wire. A plan
//! that would split a sweep cell between owners is refused
//! (`InferError::SplitUnit`), never sampled differently.
//! The serving router that maps queries and evidence to owning shards
//! lives in `sya-serve`.

pub mod cluster;
pub mod exec;
pub mod plan;
pub mod wire;

pub use cluster::{
    render_status, run_cluster, run_worker, ClusterConfig, ClusterStatus, StatusServer,
    ThreadLauncher, WorkerHandle, WorkerLauncher, WorkerOptions, WorkerSpec,
};
pub use exec::{
    run_in_process, ShardCkptOptions, ShardHealth, ShardManifest, ShardRunReport, ShardStats,
    MANIFEST_FILE, MANIFEST_SCHEMA,
};
pub use plan::{ShardPlan, ShardSummary};
pub use wire::{Frame, WireError};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use sya_fg::{FactorGraph, SpatialFactor, VarId, Variable};
    use sya_geom::Point;
    use sya_ground::pyramid_cell_map;
    use sya_infer::{CheckpointOptions, InferConfig, MarginalCounts, PyramidIndex};
    use sya_runtime::{ExecContext, FaultPlan};

    fn grid(n: usize, evidence_at_origin: bool) -> FactorGraph {
        let mut g = FactorGraph::new();
        for r in 0..n {
            for c in 0..n {
                let mut v = Variable::binary(0, format!("v{r}_{c}"))
                    .at(Point::new(c as f64 + 0.5, r as f64 + 0.5));
                if evidence_at_origin && r == 0 && c == 0 {
                    v.evidence = Some(1);
                }
                g.add_variable(v);
            }
        }
        for r in 0..n {
            for c in 0..n {
                let i = (r * n + c) as VarId;
                if c + 1 < n {
                    g.add_spatial_factor(SpatialFactor::binary(i, i + 1, 0.8));
                }
                if r + 1 < n {
                    g.add_spatial_factor(SpatialFactor::binary(i, i + n as VarId, 0.8));
                }
            }
        }
        g
    }

    fn cfg(epochs: usize) -> InferConfig {
        InferConfig {
            epochs,
            burn_in: (epochs / 10).max(1),
            levels: 2,
            locality_level: 2,
            seed: 42,
            ..Default::default()
        }
    }

    fn plan(graph: &FactorGraph, shards: usize) -> ShardPlan {
        ShardPlan::build(graph, &pyramid_cell_map(graph, 1), shards, 1)
    }

    fn run(graph: &FactorGraph, cfg: &InferConfig, shards: usize) -> MarginalCounts {
        let pyramid = PyramidIndex::build(graph, cfg.levels, cfg.cell_capacity);
        let (ctx, ckpt) = (ExecContext::unbounded(), CheckpointOptions::none());
        run_in_process(graph, &pyramid, &plan(graph, shards), cfg, &ctx, ckpt, None)
            .unwrap()
            .counts
    }

    /// A cluster of worker threads speaking TCP to a coordinator.
    fn cluster(graph: &FactorGraph, cfg: &InferConfig, shards: usize) -> ShardRunReport {
        cluster_with(graph, cfg, shards, &ShardCkptOptions::default())
    }

    fn cluster_with(
        graph: &FactorGraph,
        cfg: &InferConfig,
        shards: usize,
        ckpt: &ShardCkptOptions,
    ) -> ShardRunReport {
        let plan = plan(graph, shards);
        let launcher = ThreadLauncher {
            graph: graph.clone(),
            plan: plan.clone(),
            cfg: cfg.clone(),
            ckpt: ckpt.clone(),
            faults: FaultPlan::none(),
            read_timeout: Duration::from_secs(10),
        };
        let ctx = ExecContext::unbounded();
        run_cluster(graph, &plan, cfg, ckpt, &ClusterConfig::default(), &launcher, None, &ctx)
            .unwrap()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sya_shard_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn syackpt_files(dir: &std::path::Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "syackpt"))
            .count()
    }

    /// A cluster stopped at epoch 60 leaves one store per shard and a
    /// manifest; a second cluster run resumes from them and lands on the
    /// uninterrupted counts.
    #[test]
    fn checkpoints_write_per_shard_stores_and_manifest_and_resume_matches() {
        let g = grid(4, true);
        let cfg = cfg(120);
        let reference = run(&g, &cfg, 2);
        let dir = tmp_dir("resume");

        let first_cfg = InferConfig { epochs: 60, ..cfg.clone() };
        let opts = ShardCkptOptions { dir: Some(dir.clone()), every: 10, resume: false };
        cluster_with(&g, &first_cfg, 2, &opts);

        let manifest = ShardManifest::read(&dir).unwrap();
        assert_eq!(manifest.schema, MANIFEST_SCHEMA);
        assert_eq!(manifest.shards, 2);
        for name in &manifest.stores {
            assert!(syackpt_files(&dir.join(name)) > 0, "store {name} has checkpoint files");
        }

        let opts = ShardCkptOptions { resume: true, ..opts };
        let resumed = cluster_with(&g, &cfg, 2, &opts);
        assert!(resumed.outcome.is_completed(), "{:?}", resumed.warnings);
        assert_eq!(resumed.telemetry.epochs, 60, "the fleet resumes from epoch 60");
        assert_eq!(
            resumed.counts, reference,
            "interrupted+resumed must equal the uninterrupted run exactly"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Stores written by a 2-shard cluster do not fit a 3-shard plan:
    /// the 3-shard run starts fresh, so a first leg run under another
    /// seed leaves no trace in its counts, and the manifest is rewritten.
    #[test]
    fn manifest_shard_count_mismatch_starts_fresh() {
        let g = grid(4, true);
        let cfg = cfg(40);
        let dir = tmp_dir("mismatch");

        let stale = InferConfig { seed: 7, ..cfg.clone() };
        let opts = ShardCkptOptions { dir: Some(dir.clone()), every: 5, resume: false };
        cluster_with(&g, &stale, 2, &opts);
        assert_eq!(ShardManifest::read(&dir).unwrap().shards, 2);

        let opts = ShardCkptOptions { resume: true, ..opts };
        let report = cluster_with(&g, &cfg, 3, &opts);
        assert!(report.outcome.is_completed(), "{:?}", report.warnings);
        assert_eq!(report.telemetry.epochs, 40, "the fleet samples every epoch again");
        assert_eq!(report.counts, run(&g, &cfg, 3), "a fresh start ignores the 2-shard stores");
        assert_eq!(ShardManifest::read(&dir).unwrap().shards, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merged_marginals_are_bit_identical_across_shard_counts() {
        let g = grid(4, true);
        let cfg = cfg(200);
        let reference = run(&g, &cfg, 1);
        for shards in [2, 3, 4] {
            assert_eq!(
                reference,
                run(&g, &cfg, shards),
                "shards={shards} must reproduce the single-shard counts exactly"
            );
        }
    }

    /// A variable whose factors all sit inside one shard is never
    /// resampled by any other worker: every foreign worker's counts have
    /// an all-zero row for it.
    #[test]
    fn interior_variable_is_never_resampled_by_a_foreign_shard() {
        let g = grid(4, false);
        let plan = plan(&g, 4);
        // Pick an interior variable: all its neighbours share its owner.
        let interior = (0..g.num_variables() as VarId)
            .find(|&v| {
                g.neighbours(v)
                    .iter()
                    .all(|&u| plan.owner[u as usize] == plan.owner[v as usize])
            })
            .expect("a 4×4 grid cut into quadrants has interior variables");
        let home = plan.owner_of(interior);

        let report = cluster(&g, &cfg(100), 4);
        for (s, counts) in report.per_shard_counts.iter().enumerate() {
            let row_total = counts.total_samples(interior);
            if s == home {
                assert!(row_total > 0, "owner must sample its interior variable");
            } else {
                assert_eq!(
                    row_total, 0,
                    "shard {s} recorded samples for variable {interior} owned by {home}"
                );
            }
        }
    }

    #[test]
    fn report_carries_per_shard_interface_stats() {
        let g = grid(4, true);
        let report = cluster(&g, &cfg(60), 2);
        assert_eq!(report.per_shard.len(), 2);
        let halo_total: usize = report.per_shard.iter().map(|s| s.halo_vars).sum();
        assert!(halo_total > 0, "a cut 4×4 grid has halo variables");
        for s in &report.per_shard {
            assert_eq!(s.halo_bytes, s.halo_vars * 4);
            assert!(s.owned_vars > 0);
            assert!(s.samples_total > 0);
        }
        assert_eq!(report.epochs_run, 60);
        assert!(report.outcome.is_completed());
    }

    #[test]
    fn a_plan_that_splits_a_sweep_cell_is_refused() {
        // Partition at level 2 (16 single-variable cells) but sweep at
        // level 1 (4 cells of 4): two shards would share a sweep cell.
        let g = grid(4, true);
        let cfg = InferConfig { levels: 1, locality_level: 1, ..cfg(20) };
        let pyramid = PyramidIndex::build(&g, cfg.levels, cfg.cell_capacity);
        let plan = ShardPlan::build(&g, &pyramid_cell_map(&g, 2), 3, 2);
        let (ctx, ckpt) = (ExecContext::unbounded(), CheckpointOptions::none());
        let err = run_in_process(&g, &pyramid, &plan, &cfg, &ctx, ckpt, None).unwrap_err();
        assert!(matches!(err, sya_infer::InferError::SplitUnit { .. }), "{err}");
    }
}
