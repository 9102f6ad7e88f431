//! Property tests for the per-variable energy walk.
//!
//! Gibbs samplers never evaluate the global energy: they walk the
//! factors adjacent to one variable (`local_energy_with`) and turn the
//! differences into a conditional. On random small graphs — binary and
//! categorical variables, every logical factor kind, binary and
//! categorical spatial factors, evidence and tombstoned factors — the
//! walk must agree with the global `log_prob_unnormalized`, and the
//! binary fast path with the general conditional.

use proptest::prelude::*;
use sya_fg::{
    binary_conditional_true, conditional_distribution, local_energy, log_prob_unnormalized,
    Factor, FactorGraph, FactorKind, SpatialFactor, VarId, Variable,
};

const KINDS: [FactorKind; 5] = [
    FactorKind::Imply,
    FactorKind::And,
    FactorKind::Or,
    FactorKind::Equal,
    FactorKind::IsTrue,
];

/// `(domain kind, evidence selector)`: kind 0 is binary, 1 and 2 are
/// categorical with 3 and 4 values; a selector below 4 observes the
/// value `selector % cardinality`.
type VarSpec = (u32, u32);
/// `(kind index, scope, weight, removed when 0)`.
type LogicalSpec = (usize, Vec<u32>, f64, u32);
/// `(a, b, weight, categorical when 1, (t_a, t_b), removed when 0)`.
type SpatialSpec = (u32, u32, f64, u32, (u32, u32), u32);

fn build(vars: &[VarSpec], logical: &[LogicalSpec], spatial: &[SpatialSpec]) -> FactorGraph {
    let mut g = FactorGraph::new();
    for (i, &(kind, selector)) in vars.iter().enumerate() {
        let mut v = match kind {
            0 => Variable::binary(0, format!("v{i}")),
            k => Variable::categorical(0, k + 2, format!("v{i}")),
        };
        if selector < 4 {
            let h = v.domain.cardinality();
            v = v.with_evidence(selector % h);
        }
        g.add_variable(v);
    }
    let n = vars.len() as u32;
    let mut dead_logical = Vec::new();
    for (kind, scope, weight, removed) in logical {
        // A scope names each variable once: a repeated variable would
        // appear twice in its adjacency list.
        let mut vars: Vec<VarId> = Vec::new();
        for &v in scope {
            if !vars.contains(&(v % n)) {
                vars.push(v % n);
            }
        }
        if KINDS[*kind] == FactorKind::IsTrue {
            vars.truncate(1);
        }
        let idx = g.add_factor(Factor::new(KINDS[*kind], vars, *weight));
        if *removed == 0 {
            dead_logical.push(idx);
        }
    }
    let mut dead_spatial = Vec::new();
    for &(a, b, weight, categorical, (ta, tb), removed) in spatial {
        let (a, b) = (a % n, b % n);
        let f = if categorical == 1 {
            let ha = g.variable(a).domain.cardinality();
            let hb = g.variable(b).domain.cardinality();
            SpatialFactor::categorical(a, b, weight, ta % ha, tb % hb)
        } else {
            SpatialFactor::binary(a, b, weight)
        };
        let idx = g.add_spatial_factor(f);
        if removed == 0 {
            dead_spatial.push(idx);
        }
    }
    for idx in dead_logical {
        g.remove_factor(idx);
    }
    for idx in dead_spatial {
        g.remove_spatial_factor(idx);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn local_energy_walk_matches_global_energy(
        vars in prop::collection::vec((0u32..3, 0u32..8), 1..7),
        logical in prop::collection::vec(
            (0usize..5, prop::collection::vec(0u32..6, 1..4), -2.0f64..2.0, 0u32..4),
            0..10,
        ),
        spatial in prop::collection::vec(
            (0u32..6, 0u32..6, -2.0f64..2.0, 0u32..2, (0u32..4, 0u32..4), 0u32..4),
            0..8,
        ),
        values in prop::collection::vec(0u32..12, 6..7),
    ) {
        let g = build(&vars, &logical, &spatial);
        let assignment: Vec<u32> = g
            .variables()
            .iter()
            .map(|v| values[v.id as usize] % v.domain.cardinality())
            .collect();
        for v in 0..g.num_variables() as VarId {
            let h = g.variable(v).domain.cardinality();
            let with = |x: u32| {
                let mut a = assignment.clone();
                a[v as usize] = x;
                a
            };
            for x in 0..h {
                for y in 0..h {
                    let local =
                        local_energy(&g, &assignment, v, x) - local_energy(&g, &assignment, v, y);
                    let global =
                        log_prob_unnormalized(&g, &with(x)) - log_prob_unnormalized(&g, &with(y));
                    prop_assert!(
                        (local - global).abs() < 1e-9,
                        "var {} values {}/{}: local {} vs global {}", v, x, y, local, global
                    );
                }
            }
            if h == 2 {
                let fast = binary_conditional_true(&g, &|u| assignment[u as usize], v);
                let general = conditional_distribution(&g, &assignment, v)[1];
                prop_assert!(
                    (fast - general).abs() < 1e-9,
                    "var {}: fast {} vs general {}", v, fast, general
                );
            }
        }
    }
}
