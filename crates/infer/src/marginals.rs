//! Sample counters, marginal extraction, the exact-enumeration oracle,
//! and the KL-divergence quality metric of Fig. 14.

use sya_fg::{log_prob_unnormalized, FactorGraph, VarId};

/// Per-variable, per-value sample counts with per-variable totals.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalCounts {
    /// `counts[v][x]` — times variable `v` was sampled at value `x`.
    counts: Vec<Vec<u64>>,
    totals: Vec<u64>,
}

impl MarginalCounts {
    /// Zeroed counters shaped after the graph's domains.
    pub fn new(graph: &FactorGraph) -> Self {
        let counts: Vec<Vec<u64>> = graph
            .variables()
            .iter()
            .map(|v| vec![0u64; v.domain.cardinality() as usize])
            .collect();
        let totals = vec![0u64; counts.len()];
        MarginalCounts { counts, totals }
    }

    /// Records one sample of `v` at `value`.
    #[inline]
    pub fn record(&mut self, v: VarId, value: u32) {
        self.counts[v as usize][value as usize] += 1;
        self.totals[v as usize] += 1;
    }

    /// Merges another counter (e.g. a parallel instance) into this one.
    pub fn merge(&mut self, other: &MarginalCounts) {
        for (c, oc) in self.counts.iter_mut().zip(&other.counts) {
            for (a, b) in c.iter_mut().zip(oc) {
                *a += *b;
            }
        }
        for (t, ot) in self.totals.iter_mut().zip(&other.totals) {
            *t += *ot;
        }
    }

    /// `P(v = value)` from the recorded samples; 0 when unsampled.
    pub fn marginal(&self, v: VarId, value: u32) -> f64 {
        let t = self.totals[v as usize];
        if t == 0 {
            return 0.0;
        }
        self.counts[v as usize][value as usize] as f64 / t as f64
    }

    /// For a binary variable: `P(v = 1)` — the *factual score*.
    pub fn factual_score(&self, v: VarId) -> f64 {
        self.marginal(v, 1)
    }

    /// Factual scores for all variables (binary convention: `P(v = 1)`;
    /// categorical: probability of the most likely non-zero value).
    pub fn factual_scores(&self, graph: &FactorGraph) -> Vec<f64> {
        graph
            .variables()
            .iter()
            .map(|v| match v.domain.cardinality() {
                2 => self.marginal(v.id, 1),
                h => (1..h)
                    .map(|x| self.marginal(v.id, x))
                    .fold(0.0, f64::max),
            })
            .collect()
    }

    /// Grows the counters to cover variables added to the graph after
    /// this counter was created (incremental grounding); existing rows
    /// are untouched.
    pub fn extend_for(&mut self, graph: &FactorGraph) {
        for v in self.counts.len()..graph.num_variables() {
            let h = graph.variables()[v].domain.cardinality() as usize;
            self.counts.push(vec![0; h]);
            self.totals.push(0);
        }
    }

    /// Merges an incremental re-run into the full counters — the
    /// incremental-inference contract (paper Fig. 13a): the rows of the
    /// `affected` variables are *replaced* by `fresh`'s rows, because the
    /// update that triggered the re-run invalidated their old statistics;
    /// every other variable keeps its previous (now possibly stale)
    /// counts untouched.
    ///
    /// `affected` must be exactly the set the incremental run re-sampled:
    /// a superset would zero out marginals the run never touched, a
    /// subset would leave contradicted history in place.
    pub fn merge_affected(
        &mut self,
        fresh: &MarginalCounts,
        affected: impl IntoIterator<Item = VarId>,
    ) {
        for v in affected {
            let i = v as usize;
            self.counts[i].clone_from(&fresh.counts[i]);
            self.totals[i] = fresh.totals[i];
        }
    }

    /// Rebuilds the counters after a graph compaction: `remap[old]` gives
    /// the new id (or `None` for removed variables).
    pub fn remap(&self, remap: &[Option<VarId>], new_graph: &FactorGraph) -> MarginalCounts {
        let mut out = MarginalCounts::new(new_graph);
        for (old, new) in remap.iter().enumerate() {
            if let Some(new) = new {
                out.counts[*new as usize].clone_from(&self.counts[old]);
                out.totals[*new as usize] = self.totals[old];
            }
        }
        out
    }

    /// Raw per-variable count rows (`rows[v][x]`), for checkpoint
    /// serialization. Totals are derived, not exported: recomputing them
    /// on restore doubles as a consistency check.
    pub fn to_rows(&self) -> Vec<Vec<u64>> {
        self.counts.clone()
    }

    /// Rebuilds a counter from checkpointed rows, validating the shape
    /// against the graph (row per variable, slot per domain value).
    /// Returns `Err` with a description when the rows do not fit — the
    /// caller treats that as a corrupt/mismatched checkpoint.
    pub fn from_rows(graph: &FactorGraph, rows: Vec<Vec<u64>>) -> Result<Self, String> {
        if rows.len() != graph.num_variables() {
            return Err(format!(
                "count rows cover {} variables, graph has {}",
                rows.len(),
                graph.num_variables()
            ));
        }
        for (v, row) in rows.iter().enumerate() {
            let want = graph.variables()[v].domain.cardinality() as usize;
            if row.len() != want {
                return Err(format!(
                    "variable {v}: {} count slots, domain cardinality {want}",
                    row.len()
                ));
            }
        }
        let totals = rows.iter().map(|r| r.iter().sum()).collect();
        Ok(MarginalCounts { counts: rows, totals })
    }

    pub fn total_samples(&self, v: VarId) -> u64 {
        self.totals[v as usize]
    }

    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// Exact marginals `P(v = x)` by enumerating every joint state of the
/// free variables — the oracle the samplers are tested against (binary
/// and categorical domains; evidence rows are the observed indicator).
///
/// # Panics
/// Panics when the graph has more than 2^20 joint states: this is a
/// test oracle for graphs of about 16 free variables, not an inference
/// method.
pub fn exact_marginals(graph: &FactorGraph) -> Vec<Vec<f64>> {
    let free = graph.query_variables();
    let cards: Vec<u32> = free.iter().map(|&v| graph.variable(v).domain.cardinality()).collect();
    let states = cards.iter().try_fold(1u64, |n, &h| n.checked_mul(h as u64));
    assert!(states.is_some_and(|n| n <= 1 << 20), "too many joint states to enumerate");
    let mut mass: Vec<Vec<f64>> = graph
        .variables()
        .iter()
        .map(|v| vec![0.0; v.domain.cardinality() as usize])
        .collect();
    let mut assignment = graph.initial_assignment();
    let mut z = 0.0;
    loop {
        let w = log_prob_unnormalized(graph, &assignment).exp();
        z += w;
        for (row, &x) in mass.iter_mut().zip(&assignment) {
            row[x as usize] += w;
        }
        // Mixed-radix increment over the free variables.
        let mut i = 0;
        while i < free.len() {
            let slot = &mut assignment[free[i] as usize];
            *slot += 1;
            if *slot < cards[i] {
                break;
            }
            *slot = 0;
            i += 1;
        }
        if i == free.len() {
            break;
        }
    }
    mass.iter_mut().flatten().for_each(|m| *m /= z);
    mass
}

/// Average Bernoulli KL divergence `KL(true || estimated)` over the
/// given variables (Fig. 14's quality measure). Probabilities are
/// clamped away from 0/1 to keep the divergence finite.
pub fn average_kl_divergence(true_probs: &[f64], estimated: &[f64]) -> f64 {
    assert_eq!(true_probs.len(), estimated.len());
    if true_probs.is_empty() {
        return 0.0;
    }
    let eps = 1e-6;
    let kl = |p: f64, q: f64| -> f64 {
        let p = p.clamp(eps, 1.0 - eps);
        let q = q.clamp(eps, 1.0 - eps);
        p * (p / q).ln() + (1.0 - p) * ((1.0 - p) / (1.0 - q)).ln()
    };
    let sum: f64 = true_probs
        .iter()
        .zip(estimated)
        .map(|(&p, &q)| kl(p, q))
        .sum();
    sum / true_probs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sya_fg::Variable;

    fn graph() -> FactorGraph {
        let mut g = FactorGraph::new();
        g.add_variable(Variable::binary(0, "a"));
        g.add_variable(Variable::categorical(0, 4, "b"));
        g
    }

    #[test]
    fn record_and_marginal() {
        let g = graph();
        let mut m = MarginalCounts::new(&g);
        for _ in 0..3 {
            m.record(0, 1);
        }
        m.record(0, 0);
        assert_eq!(m.marginal(0, 1), 0.75);
        assert_eq!(m.factual_score(0), 0.75);
        assert_eq!(m.total_samples(0), 4);
        assert_eq!(m.marginal(1, 2), 0.0); // unsampled
    }

    #[test]
    fn merge_adds_counts() {
        let g = graph();
        let mut a = MarginalCounts::new(&g);
        let mut b = MarginalCounts::new(&g);
        a.record(0, 1);
        b.record(0, 0);
        b.record(0, 1);
        a.merge(&b);
        assert_eq!(a.total_samples(0), 3);
        assert!((a.marginal(0, 1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_affected_replaces_only_the_affected_rows() {
        let g = graph();
        let mut stale = MarginalCounts::new(&g);
        stale.record(0, 0);
        stale.record(0, 0);
        stale.record(1, 3);
        // A fresh incremental run that only re-sampled variable 0.
        let mut fresh = MarginalCounts::new(&g);
        fresh.record(0, 1);
        stale.merge_affected(&fresh, [0]);
        // Affected row replaced, not summed: the stale history is gone.
        assert_eq!(stale.total_samples(0), 1);
        assert_eq!(stale.marginal(0, 1), 1.0);
        // Unaffected variable keeps its stale statistics, even though
        // `fresh` holds an (empty) row for it.
        assert_eq!(stale.total_samples(1), 1);
        assert_eq!(stale.marginal(1, 3), 1.0);
    }

    #[test]
    fn factual_scores_categorical_takes_max_nonzero() {
        let g = graph();
        let mut m = MarginalCounts::new(&g);
        m.record(1, 0);
        m.record(1, 2);
        m.record(1, 2);
        m.record(1, 3);
        let scores = m.factual_scores(&g);
        assert_eq!(scores[1], 0.5); // value 2 has 2/4
    }

    #[test]
    fn remap_preserves_surviving_counts() {
        let g = graph();
        let mut m = MarginalCounts::new(&g);
        m.record(0, 1);
        m.record(1, 2);
        // Remove var 0; var 1 compacts to 0.
        let mut g2 = FactorGraph::new();
        g2.add_variable(Variable::categorical(0, 4, "b"));
        let remapped = m.remap(&[None, Some(0)], &g2);
        assert_eq!(remapped.total_samples(0), 1);
        assert_eq!(remapped.marginal(0, 2), 1.0);
    }

    #[test]
    fn exact_marginals_match_hand_computed_values() {
        use sya_fg::{Factor, FactorKind, SpatialFactor};
        // One binary variable with a unary factor: P(1) = σ(w).
        let mut g = FactorGraph::new();
        let a = g.add_variable(Variable::binary(0, "a"));
        g.add_factor(Factor::new(FactorKind::IsTrue, vec![a], 2.0));
        let exact = exact_marginals(&g);
        let want = 2.0f64.exp() / (1.0 + 2.0f64.exp());
        assert!((exact[0][1] - want).abs() < 1e-12);
        // Categorical variable tied to categorical evidence: rows are
        // normalized, the agreeing value carries the most mass, and the
        // evidence row is the observed indicator.
        let mut g = FactorGraph::new();
        let a = g.add_variable(Variable::categorical(0, 4, "a"));
        let b = g.add_variable(Variable::categorical(0, 4, "b").with_evidence(2));
        g.add_spatial_factor(SpatialFactor::categorical(a, b, 1.0, 2, 2));
        let exact = exact_marginals(&g);
        assert!((exact[0].iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(exact[0][2] > exact[0][0]);
        assert_eq!(exact[1], vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn kl_divergence_zero_for_identical() {
        let p = vec![0.2, 0.5, 0.9];
        assert!(average_kl_divergence(&p, &p) < 1e-12);
    }

    #[test]
    fn kl_divergence_positive_and_finite() {
        let p = vec![0.1, 0.9];
        let q = vec![0.9, 0.1];
        let d = average_kl_divergence(&p, &q);
        assert!(d > 0.5 && d.is_finite());
        // Extreme estimates stay finite thanks to clamping.
        let d2 = average_kl_divergence(&[0.5], &[0.0]);
        assert!(d2.is_finite());
    }

    #[test]
    fn kl_decreases_as_estimate_approaches_truth() {
        let truth = vec![0.7];
        let far = average_kl_divergence(&truth, &[0.2]);
        let near = average_kl_divergence(&truth, &[0.6]);
        assert!(near < far);
    }
}
