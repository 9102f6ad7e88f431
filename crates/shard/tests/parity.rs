//! Property tests for the sharding layer (vendored `proptest`).
//!
//! Bitwise guarantees over randomized small knowledge bases, across
//! shard counts and partition levels:
//!
//! 1. `run_in_process` at any shard count reproduces the 1-shard counts
//!    exactly — the determinism the `--shards` flag advertises.
//! 2. `run_in_process` reproduces the unsharded single-instance
//!    `spatial_gibbs_with` exactly — a shard is an ownership filter over
//!    the same kernel and schedule, so whatever the exact-oracle suite
//!    (`crates/infer/tests/oracle.rs`) establishes for the unsharded
//!    sampler holds for every shard count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sya_fg::{Factor, FactorGraph, FactorKind, SpatialFactor, VarId, Variable};
use sya_geom::Point;
use sya_ground::pyramid_cell_map;
use sya_infer::{spatial_gibbs_with, CheckpointOptions, InferConfig, PyramidIndex, SamplerRun};
use sya_runtime::ExecContext;
use sya_shard::{run_in_process, ShardPlan};

/// A small random KB: mostly-located binary atoms on a chain of spatial
/// factors plus a few random logical couplings; sometimes evidence.
fn random_kb(seed: u64, n: usize) -> FactorGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = FactorGraph::new();
    for i in 0..n {
        let mut v = Variable::binary(0, format!("a{i}"));
        if rng.gen_bool(0.85) {
            v = v.at(Point::new(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0)));
        }
        if i == 0 && rng.gen_bool(0.5) {
            v = v.with_evidence(1);
        }
        g.add_variable(v);
    }
    for i in 0..n - 1 {
        g.add_spatial_factor(SpatialFactor::binary(
            i as VarId,
            (i + 1) as VarId,
            rng.gen_range(0.1..1.0),
        ));
    }
    for _ in 0..n / 2 {
        let a = rng.gen_range(0..n as VarId);
        let b = rng.gen_range(0..n as VarId);
        if a != b {
            g.add_factor(Factor::new(
                FactorKind::Imply,
                vec![a.min(b), a.max(b)],
                rng.gen_range(0.1..0.8),
            ));
        }
    }
    g
}

fn infer_cfg(epochs: usize, seed: u64) -> InferConfig {
    InferConfig {
        epochs,
        burn_in: (epochs / 10).max(1),
        instances: 1,
        levels: 3,
        locality_level: 3,
        seed,
        ..Default::default()
    }
}

fn run(g: &FactorGraph, cfg: &InferConfig, shards: usize, level: u8) -> SamplerRun {
    let pyramid = PyramidIndex::build(g, cfg.levels, cfg.cell_capacity);
    let cells = pyramid_cell_map(g, level);
    let plan = ShardPlan::build(g, &cells, shards, level);
    let (ctx, ckpt) = (ExecContext::unbounded(), CheckpointOptions::none());
    run_in_process(g, &pyramid, &plan, cfg, &ctx, ckpt, None).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_counts_match_single_shard_bitwise(
        seed in 0u64..10_000,
        n in 4usize..11,
        shards in prop::sample::select(vec![2usize, 3, 4, 5]),
        level in prop::sample::select(vec![1u8, 2, 3]),
    ) {
        let g = random_kb(seed, n);
        let cfg = infer_cfg(300, seed ^ 0xABCD);
        let reference = run(&g, &cfg, 1, level);
        let sharded = run(&g, &cfg, shards, level);
        prop_assert_eq!(
            &reference.counts,
            &sharded.counts,
            "shards={} level={} seed={} diverged from the 1-shard run",
            shards, level, seed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_counts_match_unsharded_spatial_gibbs_bitwise(
        seed in 0u64..10_000,
        n in 4usize..10,
        shards in prop::sample::select(vec![2usize, 3, 4]),
        level in prop::sample::select(vec![1u8, 2]),
    ) {
        let g = random_kb(seed, n);
        let cfg = infer_cfg(400, seed ^ 0x5EED);
        let sharded = run(&g, &cfg, shards, level);
        let pyramid = PyramidIndex::build(&g, cfg.levels, cfg.cell_capacity);
        let classic = spatial_gibbs_with(&g, &pyramid, &cfg, &ExecContext::unbounded()).unwrap();
        prop_assert_eq!(
            &sharded.counts,
            &classic.counts,
            "shards={} level={} seed={} diverged from the unsharded sampler",
            shards, level, seed
        );
    }
}
