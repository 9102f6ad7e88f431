//! Property tests for the per-variable energy walk and the sweep plan.
//!
//! Gibbs samplers never evaluate the global energy: they sum the factors
//! adjacent to one variable and turn the differences into a conditional.
//! On random small graphs — binary and categorical variables, every
//! logical factor kind (n-ary `Imply` included), binary, categorical and
//! self-loop spatial factors, evidence, tombstoned factors and scopes that
//! name one variable twice — the reference walk (`local_energy`) must
//! agree with the global `log_prob_unnormalized`, and the `SweepPlan`
//! the sampler draws from must reproduce the reference conditionals bit
//! for bit.

use proptest::prelude::*;
use sya_fg::{
    conditional_distribution, local_energy, log_prob_unnormalized, Factor, FactorGraph,
    FactorKind, SpatialFactor, SweepPlan, VarId, Variable,
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
        let mut vars: Vec<VarId> = scope.iter().map(|&v| v % n).collect();
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
        }
    }

    #[test]
    fn sweep_plan_conditionals_equal_the_reference_bit_for_bit(
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
        subset in prop::collection::vec(0u32..2, 6..7),
    ) {
        let g = build(&vars, &logical, &spatial);
        let assignment: Vec<u32> = g
            .variables()
            .iter()
            .map(|v| values[v.id as usize] % v.domain.cardinality())
            .collect();
        let all = g.num_variables() as VarId;
        let plan = SweepPlan::build(&g, 0..all);
        let mut probs = Vec::new();
        for v in 0..all {
            plan.conditional_into(&assignment, v, &mut probs);
            let want = conditional_distribution(&g, &assignment, v);
            prop_assert_eq!(bits(&probs), bits(&want), "var {} vector", v);
            if g.variable(v).domain.cardinality() == 2 {
                let delta =
                    local_energy(&g, &assignment, v, 1) - local_energy(&g, &assignment, v, 0);
                let want = 1.0 / (1.0 + (-delta).exp());
                prop_assert_eq!(plan.p_true(&assignment, v).to_bits(), want.to_bits(), "var {}", v);
            }
        }

        // A plan for a strict subset (variable 0 is never in it) holds
        // rows for exactly the binary variables in it, and draws them as
        // the full plan does.
        let chosen: Vec<VarId> = (1..all).filter(|&v| subset[v as usize] == 1).collect();
        let part = SweepPlan::build(&g, chosen.iter().copied());
        let degree = |v: VarId| g.factors_of(v).len() + g.spatial_factors_of(v).len();
        let mut rows = 0;
        for v in 0..all {
            let binary = g.variable(v).domain.cardinality() == 2;
            let want = if binary && chosen.contains(&v) { degree(v) } else { 0 };
            prop_assert_eq!(part.rows_of(v), want, "var {}", v);
            rows += want;
            if want > 0 {
                let (got, full) = (part.p_true(&assignment, v), plan.p_true(&assignment, v));
                prop_assert_eq!(got.to_bits(), full.to_bits(), "var {}", v);
            }
        }
        prop_assert_eq!(part.num_rows(), rows);
    }
}

fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|x| x.to_bits()).collect()
}
