//! Energy (unnormalized log-probability) computations — Equations 1 and 3
//! of the paper — and the local conditionals driving Gibbs sampling.

use crate::graph::{Assignment, FactorGraph};
use crate::variable::VarId;

/// Unnormalized log-probability of a complete assignment (Eq. 3):
/// `Σ_f w_f·1[f satisfied] + Σ_ρ ±w_d`.
pub fn log_prob_unnormalized(graph: &FactorGraph, assignment: &Assignment) -> f64 {
    debug_assert_eq!(assignment.len(), graph.num_variables());
    let value_of = |v: VarId| assignment[v as usize];
    let logical: f64 = graph.factors().iter().map(|f| f.energy(&value_of)).sum();
    let spatial: f64 = graph
        .spatial_factors()
        .iter()
        .map(|s| s.energy(assignment[s.a as usize], assignment[s.b as usize]))
        .sum();
    logical + spatial
}

/// Local energy of variable `v` taking `value`, with the other values
/// supplied by an arbitrary source (a plain assignment slice, or an
/// atomic view during lock-free parallel sampling).
pub fn local_energy_with(
    graph: &FactorGraph,
    value_source: &dyn Fn(VarId) -> u32,
    v: VarId,
    value: u32,
) -> f64 {
    let value_of = |u: VarId| if u == v { value } else { value_source(u) };
    let mut e = 0.0;
    for &fi in graph.factors_of(v) {
        e += graph.factor(fi).energy(&value_of);
    }
    for &si in graph.spatial_factors_of(v) {
        let s = graph.spatial_factor(si);
        e += s.energy(value_of(s.a), value_of(s.b));
    }
    e
}

/// Local energy of variable `v` taking `value`, holding the rest of the
/// assignment fixed: the sum over factors touching `v` only. Differences
/// of this function across values give the Gibbs conditional.
pub fn local_energy(graph: &FactorGraph, assignment: &Assignment, v: VarId, value: u32) -> f64 {
    local_energy_with(graph, &|u| assignment[u as usize], v, value)
}

/// Gibbs conditional with an arbitrary value source (see
/// [`local_energy_with`]).
pub fn conditional_with(
    graph: &FactorGraph,
    value_source: &dyn Fn(VarId) -> u32,
    v: VarId,
) -> Vec<f64> {
    let h = graph.variable(v).domain.cardinality();
    let energies: Vec<f64> = (0..h)
        .map(|x| local_energy_with(graph, value_source, v, x))
        .collect();
    // Log-sum-exp normalization.
    let max = energies.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut probs: Vec<f64> = energies.iter().map(|e| (e - max).exp()).collect();
    let z: f64 = probs.iter().sum();
    for p in &mut probs {
        *p /= z;
    }
    probs
}

/// `P(v = 1 | rest)` for a *binary* variable — the allocation-free fast
/// path used in samplers' hot loops (`conditional_with` allocates a
/// probability vector per call).
pub fn binary_conditional_true(
    graph: &FactorGraph,
    value_source: &dyn Fn(VarId) -> u32,
    v: VarId,
) -> f64 {
    debug_assert_eq!(graph.variable(v).domain.cardinality(), 2);
    let delta = local_energy_with(graph, value_source, v, 1)
        - local_energy_with(graph, value_source, v, 0);
    1.0 / (1.0 + (-delta).exp())
}

/// The full Gibbs conditional `P(v = x | rest)` over the variable's
/// domain, as a normalized probability vector.
pub fn conditional_distribution(
    graph: &FactorGraph,
    assignment: &Assignment,
    v: VarId,
) -> Vec<f64> {
    conditional_with(graph, &|u| assignment[u as usize], v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{Factor, FactorKind};
    use crate::spatial_factor::SpatialFactor;
    use crate::variable::Variable;

    /// Two binary vars with an Imply factor and a spatial factor.
    fn two_var_graph(w_imply: f64, w_spatial: f64) -> FactorGraph {
        let mut g = FactorGraph::new();
        let a = g.add_variable(Variable::binary(0, "a"));
        let b = g.add_variable(Variable::binary(0, "b"));
        if w_imply != 0.0 {
            g.add_factor(Factor::new(FactorKind::Imply, vec![a, b], w_imply));
        }
        if w_spatial != 0.0 {
            g.add_spatial_factor(SpatialFactor::binary(a, b, w_spatial));
        }
        g
    }

    #[test]
    fn log_prob_matches_manual_sum() {
        let g = two_var_graph(2.0, 0.5);
        // a=1, b=0: imply unsatisfied (0), spatial disagree (-0.5)
        assert_eq!(log_prob_unnormalized(&g, &vec![1, 0]), -0.5);
        // a=1, b=1: imply satisfied (2.0), spatial agree (+0.5)
        assert_eq!(log_prob_unnormalized(&g, &vec![1, 1]), 2.5);
    }

    #[test]
    fn local_energy_consistent_with_global_difference() {
        let g = two_var_graph(1.3, 0.7);
        let assignment = vec![1u32, 0u32];
        // ΔE from flipping b must match global log-prob difference,
        // because all factors touching b are counted in local_energy.
        let global_diff = log_prob_unnormalized(&g, &vec![1, 1])
            - log_prob_unnormalized(&g, &vec![1, 0]);
        let local_diff = local_energy(&g, &assignment, 1, 1) - local_energy(&g, &assignment, 1, 0);
        assert!((global_diff - local_diff).abs() < 1e-12);
    }

    #[test]
    fn conditional_matches_exact_enumeration() {
        let g = two_var_graph(1.0, 0.4);
        // P(b=1 | a=1) by exact enumeration over b.
        let assignment = vec![1u32, 0u32];
        let probs = conditional_distribution(&g, &assignment, 1);
        let e0 = log_prob_unnormalized(&g, &vec![1, 0]);
        let e1 = log_prob_unnormalized(&g, &vec![1, 1]);
        let want1 = e1.exp() / (e0.exp() + e1.exp());
        assert!((probs[1] - want1).abs() < 1e-12);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conditional_over_categorical_domain() {
        let mut g = FactorGraph::new();
        let a = g.add_variable(Variable::categorical(0, 4, "a"));
        let b = g.add_variable(Variable::categorical(0, 4, "b").with_evidence(2));
        g.add_spatial_factor(SpatialFactor::categorical(a, b, 1.0, 2, 2));
        let assignment = g.initial_assignment();
        let probs = conditional_distribution(&g, &assignment, a);
        assert_eq!(probs.len(), 4);
        // Value 2 activates the agreeing factor: highest probability.
        let best = probs
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 2);
        // All other values have identical probability.
        assert!((probs[0] - probs[1]).abs() < 1e-12);
        assert!((probs[1] - probs[3]).abs() < 1e-12);
    }

    #[test]
    fn spatial_only_graph_prefers_agreement() {
        let g = two_var_graph(0.0, 2.0);
        let probs = conditional_distribution(&g, &vec![1, 0], 1);
        assert!(probs[1] > 0.9, "strong spatial factor should pull b to 1: {probs:?}");
    }

    #[test]
    fn binary_fast_path_matches_general_conditional() {
        let g = two_var_graph(1.1, 0.6);
        for a in [0u32, 1] {
            let assignment = vec![a, 0];
            let probs = conditional_distribution(&g, &assignment, 1);
            let fast = binary_conditional_true(&g, &|u| assignment[u as usize], 1);
            assert!((probs[1] - fast).abs() < 1e-12, "a={a}: {} vs {fast}", probs[1]);
        }
    }

    #[test]
    fn large_energies_do_not_overflow() {
        let g = two_var_graph(800.0, 500.0);
        let probs = conditional_distribution(&g, &vec![1, 0], 1);
        assert!(probs.iter().all(|p| p.is_finite()));
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
