//! Energy (unnormalized log-probability) computations — Equations 1 and 3
//! of the paper — and the reference local conditionals.
//!
//! [`local_energy`] and [`conditional_distribution`] walk a variable's
//! adjacency in the graph's own order, once per domain value. They are
//! the definition the sampler is held to, not its hot path: Gibbs updates
//! draw from a [`SweepPlan`](crate::SweepPlan), which compiles the same
//! walk into flat rows and must agree with these functions bit for bit.

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

/// Local energy of variable `v` taking `value`, holding the rest of the
/// assignment fixed: the sum over factors touching `v` only, logical
/// factors first, then spatial, each list in adjacency order.
/// Differences of this function across values give the Gibbs
/// conditional.
///
/// This walk is the reference the sampler is pinned to: a
/// [`SweepPlan`](crate::SweepPlan) makes the same additions in the same
/// order, so its conditionals equal the ones built from this function bit
/// for bit (`tests/energy_props.rs`).
pub fn local_energy(graph: &FactorGraph, assignment: &Assignment, v: VarId, value: u32) -> f64 {
    let value_of = |u: VarId| if u == v { value } else { assignment[u as usize] };
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

/// The full Gibbs conditional `P(v = x | rest)` over the variable's
/// domain, as a normalized probability vector: one [`local_energy`] walk
/// per domain value.
pub fn conditional_distribution(
    graph: &FactorGraph,
    assignment: &Assignment,
    v: VarId,
) -> Vec<f64> {
    let h = graph.variable(v).domain.cardinality();
    let mut probs: Vec<f64> = (0..h).map(|x| local_energy(graph, assignment, v, x)).collect();
    normalize(&mut probs);
    probs
}

/// Turns local energies into probabilities in place (log-sum-exp).
pub(crate) fn normalize(energies: &mut [f64]) {
    let max = energies.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for e in energies.iter_mut() {
        *e = (*e - max).exp();
    }
    let z: f64 = energies.iter().sum();
    for p in energies {
        *p /= z;
    }
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
    fn a_repeated_scope_counts_its_factor_once() {
        // `And [x, x]` binds one atom twice. It is one factor of weight
        // 2, so P(x = 1) = e²/(1 + e²), not the double-counted e⁴/(1 + e⁴).
        let mut g = FactorGraph::new();
        let x = g.add_variable(Variable::binary(0, "x"));
        g.add_factor(Factor::new(FactorKind::And, vec![x, x], 2.0));
        assert_eq!(g.factors_of(x), &[0]);
        let p = conditional_distribution(&g, &vec![0], x)[1];
        let want = 2f64.exp() / (1.0 + 2f64.exp());
        assert!((p - want).abs() < 1e-12, "{p} vs {want}");
        assert!((p - 0.8808).abs() < 1e-4);
        // A reused slot follows the same rule.
        g.remove_factor(0);
        g.add_factor(Factor::new(FactorKind::Imply, vec![x, x, x], 1.0));
        assert_eq!(g.factors_of(x), &[0]);
    }

    #[test]
    fn large_energies_do_not_overflow() {
        let g = two_var_graph(800.0, 500.0);
        let probs = conditional_distribution(&g, &vec![1, 0], 1);
        assert!(probs.iter().all(|p| p.is_finite()));
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
