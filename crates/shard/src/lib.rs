//! # sya-shard — the spatial sharding layer
//!
//! Scales Sya's inference out by cutting the knowledge base along
//! pyramid cells (DESIGN.md §12):
//!
//! * [`plan`] — the partitioner: the `2^l × 2^l` cells of the partition
//!   level, sorted spatially and split into `N` contiguous groups
//!   balanced by variable count; every factor is classified interior or
//!   *boundary* and every variable is, per shard, owned or a *halo*
//!   (read-only replica of a neighbour's variable);
//! * [`exec`] — per-shard [`Chain`](sya_infer::Chain)s (the phase-step
//!   API of the one Gibbs kernel) on their own threads, each over its
//!   own board copy, exchanging halo state at phase barriers, with
//!   per-shard
//!   `sya-ckpt` checkpoint stores tied together by a manifest, per-shard
//!   `sya-obs` gauges (`shard.N.vars`, `shard.N.boundary_factors`,
//!   `shard.N.halo_bytes`) and flip-rate series, and an optional
//!   convergence-based retirement policy that lets quiet shards stop
//!   sampling early.
//!
//! A shard is an ownership filter over the sweep schedule's units: the
//! draws use RNG streams derived from `(seed, epoch, phase, variable)`
//! and every cell is swept by exactly one owner against the phase-start
//! board, so without retirement the merged marginals are
//! **bit-identical for every shard count** — `sya run --shards 4`
//! equals `--shards 1` equals the unsharded single-instance run. A plan
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
    run_sharded, RetirePolicy, ShardCkptOptions, ShardHealth, ShardManifest, ShardRunReport,
    ShardStats, MANIFEST_FILE, MANIFEST_SCHEMA,
};
pub use plan::{ShardPlan, ShardSummary};
pub use wire::{Frame, WireError};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use sya_fg::{FactorGraph, SpatialFactor, VarId, Variable};
    use sya_geom::Point;
    use sya_ground::pyramid_cell_map;
    use sya_infer::{InferConfig, PyramidIndex};
    use sya_runtime::ExecContext;

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

    fn run(graph: &FactorGraph, cfg: &InferConfig, shards: usize) -> ShardRunReport {
        let pyramid = PyramidIndex::build(graph, cfg.levels, cfg.cell_capacity);
        let cells = pyramid_cell_map(graph, 1);
        let plan = ShardPlan::build(graph, &cells, shards, 1);
        run_sharded(
            graph,
            &pyramid,
            &plan,
            cfg,
            None,
            &ShardCkptOptions::default(),
            &ExecContext::unbounded(),
        )
        .unwrap()
    }

    #[test]
    fn merged_marginals_are_bit_identical_across_shard_counts() {
        let g = grid(4, true);
        let cfg = cfg(200);
        let reference = run(&g, &cfg, 1);
        for shards in [2, 3, 4] {
            let sharded = run(&g, &cfg, shards);
            assert_eq!(
                reference.counts, sharded.counts,
                "shards={shards} must reproduce the single-shard counts exactly"
            );
        }
    }

    /// A variable whose factors all sit inside one shard is never
    /// resampled by any other shard: every foreign shard's counts have
    /// an all-zero row for it.
    #[test]
    fn interior_variable_is_never_resampled_by_a_foreign_shard() {
        let g = grid(4, false);
        let cells = pyramid_cell_map(&g, 1);
        let plan = ShardPlan::build(&g, &cells, 4, 1);
        // Pick an interior variable: all its neighbours share its owner.
        let interior = (0..g.num_variables() as VarId)
            .find(|&v| {
                g.neighbours(v)
                    .iter()
                    .all(|&u| plan.owner[u as usize] == plan.owner[v as usize])
            })
            .expect("a 4×4 grid cut into quadrants has interior variables");
        let home = plan.owner_of(interior);

        let cfg = cfg(100);
        let report = run(&g, &cfg, 4);
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
        let report = run(&g, &cfg(60), 2);
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
    fn retirement_ends_the_run_early_and_reports_it() {
        // Strong evidence coupling + generous tolerance: every shard
        // retires long before the epoch budget.
        let g = grid(4, true);
        let cfg = cfg(4000);
        let pyramid = PyramidIndex::build(&g, cfg.levels, cfg.cell_capacity);
        let cells = pyramid_cell_map(&g, 1);
        let plan = ShardPlan::build(&g, &cells, 2, 1);
        let policy = RetirePolicy { tol: 0.05, window: 4, min_epoch: 0, strict: false };
        let report = run_sharded(
            &g,
            &pyramid,
            &plan,
            &cfg,
            Some(policy),
            &ShardCkptOptions::default(),
            &ExecContext::unbounded(),
        )
        .unwrap();
        assert!(
            report.epochs_run < 4000,
            "all shards should retire early, ran {}",
            report.epochs_run
        );
        for s in &report.per_shard {
            assert!(s.retired_at.is_some(), "shard {} never retired", s.shard);
            assert!(s.epochs_sampled < 4000);
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sya_shard_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoints_write_per_shard_stores_and_manifest_and_resume_matches() {
        let g = grid(4, true);
        let cfg = cfg(120);
        let pyramid = PyramidIndex::build(&g, cfg.levels, cfg.cell_capacity);
        let cells = pyramid_cell_map(&g, 1);
        let plan = ShardPlan::build(&g, &cells, 2, 1);
        let dir = tmp_dir("resume");

        // Uninterrupted reference.
        let reference = run_sharded(
            &g,
            &pyramid,
            &plan,
            &cfg,
            None,
            &ShardCkptOptions::default(),
            &ExecContext::unbounded(),
        )
        .unwrap();

        // First leg: stop early via a tiny epoch budget, checkpointing.
        let mut first_cfg = cfg.clone();
        first_cfg.epochs = 60;
        first_cfg.burn_in = cfg.burn_in;
        let opts = ShardCkptOptions { dir: Some(dir.clone()), every: 10, resume: false };
        run_sharded(&g, &pyramid, &plan, &first_cfg, None, &opts, &ExecContext::unbounded())
            .unwrap();

        let manifest = ShardManifest::read(&dir).unwrap();
        assert_eq!(manifest.schema, MANIFEST_SCHEMA);
        assert_eq!(manifest.shards, 2);
        for name in &manifest.stores {
            let files: Vec<_> = std::fs::read_dir(dir.join(name))
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|e| e == "syackpt"))
                .collect();
            assert!(!files.is_empty(), "store {name} has checkpoint files");
        }

        // Second leg: resume and run to the full budget.
        let opts = ShardCkptOptions { dir: Some(dir.clone()), every: 10, resume: true };
        let resumed =
            run_sharded(&g, &pyramid, &plan, &cfg, None, &opts, &ExecContext::unbounded())
                .unwrap();
        assert!(
            resumed.warnings.iter().any(|w| w.contains("resumed all 2 shards from epoch 60")),
            "warnings: {:?}",
            resumed.warnings
        );
        assert_eq!(
            resumed.counts, reference.counts,
            "interrupted+resumed must equal the uninterrupted run exactly"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_shard_count_mismatch_starts_fresh() {
        let g = grid(4, true);
        let cfg = cfg(40);
        let pyramid = PyramidIndex::build(&g, cfg.levels, cfg.cell_capacity);
        let cells = pyramid_cell_map(&g, 1);
        let dir = tmp_dir("mismatch");

        let plan2 = ShardPlan::build(&g, &cells, 2, 1);
        let opts = ShardCkptOptions { dir: Some(dir.clone()), every: 5, resume: false };
        run_sharded(&g, &pyramid, &plan2, &cfg, None, &opts, &ExecContext::unbounded()).unwrap();

        let plan3 = ShardPlan::build(&g, &cells, 3, 1);
        let opts = ShardCkptOptions { dir: Some(dir.clone()), every: 5, resume: true };
        let report =
            run_sharded(&g, &pyramid, &plan3, &cfg, None, &opts, &ExecContext::unbounded())
                .unwrap();
        assert!(
            report.warnings.iter().any(|w| w.contains("starting fresh")),
            "warnings: {:?}",
            report.warnings
        );
        assert_eq!(ShardManifest::read(&dir).unwrap().shards, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_plan_that_splits_a_sweep_cell_is_refused() {
        // Partition at level 2 (16 single-variable cells) but sweep at
        // level 1 (4 cells of 4): two shards would share a sweep cell.
        let g = grid(4, true);
        let cfg = InferConfig { levels: 1, locality_level: 1, ..cfg(20) };
        let pyramid = PyramidIndex::build(&g, cfg.levels, cfg.cell_capacity);
        let plan = ShardPlan::build(&g, &pyramid_cell_map(&g, 2), 3, 2);
        let err = run_sharded(
            &g,
            &pyramid,
            &plan,
            &cfg,
            None,
            &ShardCkptOptions::default(),
            &ExecContext::unbounded(),
        )
        .unwrap_err();
        assert!(matches!(err, sya_infer::InferError::SplitUnit { .. }), "{err}");
    }
}
