//! Exact-oracle suite: every chain the crate can run must target the
//! distribution the factor graph defines.
//!
//! The oracle is [`exact_marginals`] (joint enumeration, binary and
//! categorical). A chain is run as `REPLICAS` independent replicas
//! (different seeds); the mean of the replica estimates must land within
//! `Z` standard errors of the exact marginal, the standard error being
//! *measured* across the replicas (floored at the i.i.d. binomial
//! error, so a value the chain never visits is still compared fairly).
//! No fixed tolerance appears anywhere.
//!
//! Algorithm 1 is exact when no factor is shared by two units of one
//! phase; every oracle graph is checked for that condition. The last
//! test violates it on purpose and reports the bias it measures.

use std::collections::HashSet;
use sya_fg::{Factor, FactorGraph, FactorKind, SpatialFactor, VarId, Variable};
use sya_geom::Point;
use sya_infer::{
    exact_marginals, incremental_spatial_gibbs, run_gibbs, spatial_gibbs_with, CheckpointOptions,
    InferConfig, MarginalCounts, Owners, PyramidIndex, Schedule,
};
use sya_obs::Obs;
use sya_runtime::ExecContext;

const REPLICAS: usize = 32;
const EPOCHS: usize = 1200;
const BURN_IN: usize = 200;
/// Two-sided bound in standard errors. With 31 degrees of freedom a
/// deviation beyond 5 SE has probability ≈ 2·10⁻⁵ per comparison; the
/// suite makes a few hundred.
const Z: f64 = 5.0;

fn cfg(seed: u64) -> InferConfig {
    InferConfig {
        epochs: EPOCHS,
        burn_in: BURN_IN,
        instances: 1,
        levels: 2,
        locality_level: 2,
        seed,
        ..Default::default()
    }
}

/// `cols × rows` unit grid; `card(i)` gives variable `i`'s cardinality
/// (2 = binary). 4-neighbours share a spatial factor: binary pairs the
/// Eq. 2 factor, any other pair one Eq. 4 factor per agreeing value.
fn grid(cols: usize, rows: usize, w: f64, card: impl Fn(usize) -> u32) -> FactorGraph {
    let mut g = FactorGraph::new();
    for r in 0..rows {
        for c in 0..cols {
            let p = Point::new(c as f64 + 0.5, r as f64 + 0.5);
            let name = format!("v{r}_{c}");
            g.add_variable(match card(r * cols + c) {
                2 => Variable::binary(0, name).at(p),
                h => Variable::categorical(0, h, name).at(p),
            });
        }
    }
    let link = |g: &mut FactorGraph, a: VarId, b: VarId| {
        let (ha, hb) = (card(a as usize), card(b as usize));
        if ha == 2 && hb == 2 {
            g.add_spatial_factor(SpatialFactor::binary(a, b, w));
        } else {
            for t in 0..ha.min(hb) {
                g.add_spatial_factor(SpatialFactor::categorical(a, b, w, t, t));
            }
            g.add_spatial_factor(SpatialFactor::categorical(a, b, w / 2.0, 0, 1));
        }
    };
    for r in 0..rows {
        for c in 0..cols {
            let i = (r * cols + c) as VarId;
            if c + 1 < cols {
                link(&mut g, i, i + 1);
            }
            if r + 1 < rows {
                link(&mut g, i, i + cols as VarId);
            }
        }
    }
    g
}

/// 8×2 binary grid (two variables per level-2 cell, two cells per
/// conclique), corner evidence, logical factors inside a cell and
/// across adjacent cells, plus one unlocated variable tied to the grid.
fn binary_graph() -> FactorGraph {
    let mut g = grid(8, 2, 0.4, |_| 2);
    g.variable_mut(0).evidence = Some(1);
    g.add_factor(Factor::new(FactorKind::Imply, vec![2, 3], 0.9)); // inside a cell
    g.add_factor(Factor::new(FactorKind::Imply, vec![5, 6], 0.7)); // adjacent cells
    g.add_factor(Factor::new(FactorKind::IsTrue, vec![12], -0.8));
    let floating = g.add_variable(Variable::binary(0, "floating"));
    g.add_factor(Factor::new(FactorKind::IsTrue, vec![floating], 0.6));
    g.add_factor(Factor::new(FactorKind::Imply, vec![floating, 9], 1.1));
    g
}

/// 8×1 line of mixed cardinalities (2, 3 and 4) with categorical
/// evidence at one end and a logical factor over categorical truth.
fn categorical_graph() -> FactorGraph {
    let cards = [3, 3, 2, 3, 2, 4, 3, 2];
    let mut g = grid(8, 1, 0.5, |i| cards[i]);
    g.variable_mut(0).evidence = Some(2);
    g.add_factor(Factor::new(FactorKind::Imply, vec![2, 3], 0.8));
    g.add_factor(Factor::new(FactorKind::IsTrue, vec![5], -0.5));
    g
}

/// The condition under which Algorithm 1 is exact: within a phase, no
/// factor touches two different units.
fn no_factor_spans_two_units(graph: &FactorGraph, schedule: &Schedule) -> bool {
    schedule.phases.iter().all(|phase| {
        let mut unit_of = vec![usize::MAX; graph.num_variables()];
        for (u, unit) in phase.units.iter().enumerate() {
            for &v in unit {
                unit_of[v as usize] = u;
            }
        }
        let one_unit = |vars: &[VarId]| {
            let units: HashSet<usize> =
                vars.iter().map(|&v| unit_of[v as usize]).filter(|&u| u != usize::MAX).collect();
            units.len() <= 1
        };
        graph.factors().iter().all(|f| one_unit(&f.vars))
            && graph.spatial_factors().iter().all(|s| one_unit(&[s.a, s.b]))
    })
}

/// Mean and standard error of `P(v = x)` over replicas of `chain`.
fn estimate(
    graph: &FactorGraph,
    chain: impl Fn(u64) -> MarginalCounts,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let shape = |fill: f64| -> Vec<Vec<f64>> {
        graph.variables().iter().map(|v| vec![fill; v.domain.cardinality() as usize]).collect()
    };
    let (mut sum, mut sum_sq) = (shape(0.0), shape(0.0));
    for replica in 0..REPLICAS {
        let counts = chain(0x5EED + 7919 * replica as u64);
        for (v, row) in sum.iter_mut().enumerate() {
            for (x, slot) in row.iter_mut().enumerate() {
                let p = counts.marginal(v as VarId, x as u32);
                *slot += p;
                sum_sq[v][x] += p * p;
            }
        }
    }
    let n = REPLICAS as f64;
    let mut se = shape(0.0);
    for (v, row) in sum.iter_mut().enumerate() {
        for (x, slot) in row.iter_mut().enumerate() {
            let mean = *slot / n;
            let var = ((sum_sq[v][x] / n - mean * mean) * n / (n - 1.0)).max(0.0);
            se[v][x] = (var / n).sqrt();
            *slot = mean;
        }
    }
    (sum, se)
}

/// Asserts that `chain` converges to `exact` on `vars`; returns the
/// largest deviation in standard errors, for the test log.
fn assert_converges(
    what: &str,
    graph: &FactorGraph,
    exact: &[Vec<f64>],
    vars: &[VarId],
    chain: impl Fn(u64) -> MarginalCounts,
) {
    let (mean, se) = estimate(graph, chain);
    let recorded = (REPLICAS * (EPOCHS - BURN_IN)) as f64;
    let mut worst: f64 = 0.0;
    for &v in vars {
        for (x, &p) in exact[v as usize].iter().enumerate() {
            let floor = (p * (1.0 - p) / recorded).sqrt();
            let bound = Z * se[v as usize][x].max(floor);
            let dev = (mean[v as usize][x] - p).abs();
            assert!(
                dev <= bound,
                "{what}: P(v{v} = {x}) estimated {:.5}, exact {p:.5}: off by {dev:.5}, \
                 bound {bound:.5} ({Z} standard errors)",
                mean[v as usize][x]
            );
            if bound > 0.0 {
                worst = worst.max(dev / bound * Z);
            }
        }
    }
    println!("{what}: worst deviation {worst:.2} standard errors over {} variables", vars.len());
}

/// Runs `schedule` with its units dealt to `owners` owners by an owner
/// table — the in-process sharded run.
fn sharded_counts(
    graph: &FactorGraph,
    schedule: &Schedule,
    seed: u64,
    owners: usize,
) -> MarginalCounts {
    // Deal whole units to owners; evidence stays with owner 0.
    let mut owner = vec![0u32; graph.num_variables()];
    for (u, unit) in schedule.units().enumerate() {
        unit.iter().for_each(|&v| owner[v as usize] = (u % owners) as u32);
    }
    let (ctx, ckpt) = (ExecContext::unbounded(), CheckpointOptions::none());
    run_gibbs(graph, schedule, &cfg(seed), None, &ctx, ckpt, None, Owners::Plan(&owner))
        .unwrap()
        .counts
}

fn check_all_schedules(name: &str, graph: &FactorGraph) {
    let exact = exact_marginals(graph);
    let free = graph.query_variables();
    assert!(free.len() <= 16);
    let ctx = ExecContext::unbounded();
    let pyramid = PyramidIndex::build(graph, 2, 64);
    let spatial = Schedule::spatial(graph, &pyramid, &cfg(0));
    assert!(spatial.phases.iter().any(|p| p.units.len() > 1), "{name}: no multi-unit phase");
    assert!(spatial.units().any(|u| u.len() > 1), "{name}: no multi-variable unit");
    assert!(no_factor_spans_two_units(graph, &spatial), "{name}: exactness condition violated");

    let sequential = Schedule::sequential(graph);
    assert_converges(&format!("{name}/sequential"), graph, &exact, &free, |seed| {
        let ckpt = CheckpointOptions::none();
        run_gibbs(graph, &sequential, &cfg(seed), None, &ctx, ckpt, None, Owners::RoundRobin)
            .unwrap()
            .counts
    });

    // Spatial at 1, 2 and 4 lanes: lane 1 against the oracle, the
    // others bit-identical to it (so the oracle result transfers).
    assert_converges(&format!("{name}/spatial"), graph, &exact, &free, |seed| {
        let run = |workers| {
            let cfg = InferConfig { workers: Some(workers), ..cfg(seed) };
            spatial_gibbs_with(graph, &pyramid, &cfg, &ctx).unwrap().counts
        };
        let one = run(1);
        assert_eq!(one, run(2), "{name}: 2 lanes diverged from 1");
        assert_eq!(one, run(4), "{name}: 4 lanes diverged from 1");
        one
    });

    for owners in 1..=4 {
        assert_converges(&format!("{name}/sharded×{owners}"), graph, &exact, &free, |seed| {
            sharded_counts(graph, &spatial, seed, owners)
        });
    }
}

#[test]
fn binary_graph_every_schedule_converges_to_the_exact_marginals() {
    check_all_schedules("binary", &binary_graph());
}

#[test]
fn categorical_graph_every_schedule_converges_to_the_exact_marginals() {
    check_all_schedules("categorical", &categorical_graph());
}

/// The restricted warm re-sample targets the conditional distribution
/// of the affected cells given the frozen surroundings at their warm
/// values: the oracle is the same graph with the surroundings clamped.
#[test]
fn restricted_warm_resample_converges_to_the_exact_conditional() {
    let graph = binary_graph();
    let pyramid = PyramidIndex::build(&graph, 2, 64);
    let init: Vec<u32> = (0..graph.num_variables() as u32).map(|v| (v / 3) % 2).collect();
    let changed = [5];
    let (_, resampled) = incremental_spatial_gibbs(
        &graph,
        &pyramid,
        &changed,
        &cfg(1),
        Some(&init),
        &Obs::disabled(),
    );
    assert!(resampled.len() > 2 && resampled.len() < graph.query_variables().len());

    let mut clamped = graph.clone();
    for v in graph.query_variables() {
        if !resampled.contains(&v) {
            clamped.set_evidence(v, Some(init[v as usize]));
        }
    }
    let restricted = Schedule::spatial_where(&clamped, &pyramid, &cfg(0), |_| true);
    assert!(no_factor_spans_two_units(&clamped, &restricted));
    let exact = exact_marginals(&clamped);
    let mut vars: Vec<VarId> = resampled.into_iter().collect();
    vars.sort_unstable();
    assert_converges("binary/restricted-warm", &graph, &exact, &vars, |seed| {
        incremental_spatial_gibbs(
            &graph,
            &pyramid,
            &changed,
            &cfg(seed),
            Some(&init),
            &Obs::disabled(),
        )
        .0
    });
}

/// Where Algorithm 1 is *not* exact: two cells of one conclique joined
/// by a logical factor are swept against each other's stale values (a
/// synchronous update). The bias is measured and reported, not hidden
/// behind a tolerance; DESIGN.md §5 quotes the number printed here.
#[test]
fn a_factor_across_same_conclique_cells_biases_the_marginals_measurably() {
    // 4×4 grid, one variable per level-2 cell. Cells (1,1) and (3,1)
    // share conclique 3 and are not adjacent.
    let mut graph = grid(4, 4, 0.3, |_| 2);
    let (a, b) = (5, 7);
    graph.add_factor(Factor::new(FactorKind::Equal, vec![a, b], 2.5));
    graph.add_factor(Factor::new(FactorKind::IsTrue, vec![a], 1.5));
    graph.variable_mut(0).evidence = Some(1);
    let pyramid = PyramidIndex::build(&graph, 2, 64);
    let schedule = Schedule::spatial(&graph, &pyramid, &cfg(0));
    assert!(!no_factor_spans_two_units(&graph, &schedule), "the case must violate exactness");

    let exact = exact_marginals(&graph);
    let ctx = ExecContext::unbounded();
    // The stale pair mixes slowly; longer replicas keep the standard
    // error well under the bias.
    let long = |seed| InferConfig { epochs: 4 * EPOCHS, ..cfg(seed) };
    let (mean, se) = estimate(&graph, |seed| {
        spatial_gibbs_with(&graph, &pyramid, &long(seed), &ctx).unwrap().counts
    });
    for v in [a, b] {
        let (p, est, se) = (exact[v as usize][1], mean[v as usize][1], se[v as usize][1]);
        let bias = est - p;
        println!(
            "same-conclique factor: P(v{v} = 1) exact {p:.4}, spatial schedule {est:.4} \
             (bias {bias:+.4}, standard error {se:.4}, {REPLICAS} replicas × {} epochs)",
            4 * EPOCHS - BURN_IN
        );
        assert!(
            bias.abs() > Z * se,
            "expected a measurable bias on v{v}, got {bias:+.5} ± {se:.5}"
        );
    }
    // Sequential Gibbs on the same graph is exact.
    let sequential = Schedule::sequential(&graph);
    assert_converges("same-conclique/sequential", &graph, &exact, &[a, b], |seed| {
        let ckpt = CheckpointOptions::none();
        run_gibbs(&graph, &sequential, &cfg(seed), None, &ctx, ckpt, None, Owners::RoundRobin)
            .unwrap()
            .counts
    });
}
