//! The constructed knowledge base: factual scores plus the artifacts the
//! experiments inspect (graph, pyramid, timings).

use crate::config::SyaConfig;
use std::collections::HashSet;
use std::time::Duration;
use sya_fg::VarId;
use sya_ground::Grounding;
use sya_infer::{incremental_spatial_gibbs, MarginalCounts, PyramidIndex};
use sya_obs::Obs;
use sya_runtime::RunOutcome;
use sya_store::Value;

/// Wall-clock timings of the two phases (Fig. 9b, 10b, 11b, 12b).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timings {
    pub grounding: Duration,
    pub inference: Duration,
}

/// A constructed probabilistic knowledge base. `Clone` duplicates the
/// whole graph and counts — the shard router uses it to give each
/// serving shard an independently lockable replica.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    pub grounding: Grounding,
    pub counts: MarginalCounts,
    /// Present when the spatial sampler was used (needed for incremental
    /// inference).
    pub pyramid: Option<PyramidIndex>,
    pub timings: Timings,
    pub config: SyaConfig,
    /// How the construction run ended. `Completed` is a clean run;
    /// `Degraded` means some workers were lost but the marginals are
    /// usable; `TimedOut`/`Cancelled` mean the run stopped early and the
    /// marginals are partial (fewer samples, still valid ratios).
    pub outcome: RunOutcome,
    /// Degradation notes accumulated across grounding and inference.
    pub warnings: Vec<String>,
    /// Per-epoch convergence trajectory of the inference run (flip rate,
    /// marginal delta, pseudo-log-likelihood when observed).
    pub telemetry: sya_obs::ConvergenceSeries,
}

impl KnowledgeBase {
    /// Factual score of one relation atom, or `None` if it was never
    /// grounded.
    pub fn factual_score(&self, relation: &str, values: &[Value]) -> Option<f64> {
        let v = self.grounding.atom_id(relation, values)?;
        Some(self.score_of(v))
    }

    /// Factual score of a ground atom by variable id (evidence atoms
    /// report their observed value). Binary variables report `P(v = 1)`;
    /// categorical variables encode graded levels, so the score is the
    /// probability mass on the upper half of the domain (levels
    /// `>= h/2`), matching the generators' quantized encoding.
    pub fn score_of(&self, v: VarId) -> f64 {
        let var = self.grounding.graph.variable(v);
        match (var.evidence, var.domain.cardinality()) {
            (Some(e), 2) => e as f64,
            (Some(e), h) => f64::from(e >= h / 2),
            (None, 2) => self.counts.factual_score(v),
            (None, h) => (h / 2..h).map(|x| self.counts.marginal(v, x)).sum(),
        }
    }

    /// `(entity id, factual score)` for every atom of a relation, keyed
    /// by the first (id) column, sorted by id.
    pub fn scores_by_id(&self, relation: &str) -> Vec<(i64, f64)> {
        let mut out: Vec<(i64, f64)> = self
            .grounding
            .atoms_of(relation)
            .iter()
            .filter_map(|&v| {
                let (_, values) = &self.grounding.atom_meta[v as usize];
                values.first().and_then(Value::as_int).map(|id| (id, self.score_of(v)))
            })
            .collect();
        out.sort_by_key(|&(id, _)| id);
        out
    }

    /// Query-only variant of [`Self::scores_by_id`] (evidence atoms
    /// excluded) — what the quality metrics evaluate.
    pub fn query_scores_by_id(&self, relation: &str) -> Vec<(i64, f64)> {
        let mut out: Vec<(i64, f64)> = self
            .grounding
            .atoms_of(relation)
            .iter()
            .filter(|&&v| !self.grounding.graph.variable(v).is_evidence())
            .filter_map(|&v| {
                let (_, values) = &self.grounding.atom_meta[v as usize];
                values.first().and_then(Value::as_int).map(|id| (id, self.score_of(v)))
            })
            .collect();
        out.sort_by_key(|&(id, _)| id);
        out
    }

    /// The maximum-marginal assignment: each evidence variable at its
    /// observed value, each query variable at the argmax of its counts.
    /// This is the warm-start state for incremental re-inference and the
    /// per-chain assignment of serve-time checkpoint synthesis.
    pub fn map_assignment(&self) -> Vec<u32> {
        let rows = self.counts.to_rows();
        self.grounding
            .graph
            .variables()
            .iter()
            .enumerate()
            .map(|(i, var)| match var.evidence {
                Some(e) => e,
                None => rows[i]
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &n)| n)
                    .map(|(x, _)| x as u32)
                    .unwrap_or(0),
            })
            .collect()
    }

    /// Retracts ground atoms (the bulk-deletion half of the paper's
    /// update path): removes them with every touching factor, compacts
    /// the graph, remaps the sample counters, and rebuilds the pyramid
    /// index. Returns the number of atoms actually removed.
    pub fn retract_atoms(&mut self, vars: &[VarId]) -> usize {
        let remove: HashSet<VarId> = vars
            .iter()
            .copied()
            .filter(|&v| (v as usize) < self.grounding.graph.num_variables())
            .collect();
        if remove.is_empty() {
            return 0;
        }
        let remap = self.grounding.remove_atoms(&remove);
        self.counts = self.counts.remap(&remap, &self.grounding.graph);
        if self.pyramid.is_some() {
            self.pyramid = Some(PyramidIndex::build(
                &self.grounding.graph,
                self.config.infer.levels,
                self.config.infer.cell_capacity,
            ));
        }
        remove.len()
    }

    /// Applies evidence updates and re-runs inference incrementally over
    /// the affected concliques only (Fig. 13a). Returns the wall-clock
    /// time and the number of re-sampled variables.
    ///
    /// Falls back to a no-op error-free zero result when the knowledge
    /// base was built without the spatial sampler (no pyramid).
    pub fn update_evidence_incremental(
        &mut self,
        changes: &[(VarId, Option<u32>)],
    ) -> (Duration, usize) {
        self.update_evidence_incremental_observed(changes, &Obs::disabled())
    }

    /// [`update_evidence_incremental`](Self::update_evidence_incremental)
    /// under an observability handle: the conclique-restricted re-run
    /// records the `infer.incremental.*` counters and an
    /// `infer.incremental` span on `obs`.
    pub fn update_evidence_incremental_observed(
        &mut self,
        changes: &[(VarId, Option<u32>)],
        obs: &Obs,
    ) -> (Duration, usize) {
        if self.pyramid.is_none() {
            return (Duration::ZERO, 0);
        };
        // Warm start from the pre-update marginals: the restricted sweep
        // conditions on the frozen surroundings, which must sit at their
        // converged values, not at random draws. Computed before the
        // evidence lands so retractions still see the old argmax.
        let init = self.map_assignment();
        for &(v, value) in changes {
            self.grounding.graph.set_evidence(v, value);
        }
        let pyramid = self.pyramid.as_ref().expect("checked above");
        let changed: Vec<VarId> = changes.iter().map(|&(v, _)| v).collect();
        let start = std::time::Instant::now();
        let (fresh, resampled): (MarginalCounts, HashSet<VarId>) =
            incremental_spatial_gibbs(
                &self.grounding.graph,
                pyramid,
                &changed,
                &self.config.infer,
                Some(&init),
                obs,
            );
        let elapsed = start.elapsed();
        self.counts.merge_affected(&fresh, resampled.iter().copied());
        (elapsed, resampled.len())
    }
}

#[cfg(test)]
mod tests {
    // KnowledgeBase is exercised end-to-end in pipeline.rs tests and the
    // integration suite; unit tests here would need a full pipeline run.
}
