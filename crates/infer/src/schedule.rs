//! Sweep schedules: *what* one epoch samples, and in which order.
//!
//! Algorithm 1 is one sweep — levels serially, concliques serially,
//! cells of a conclique independently, plain Gibbs inside a cell. A
//! [`Schedule`] states that as data: a list of [`Phase`]s run one after
//! the other, each a list of **units** (cells, random buckets, or
//! "everything"), each unit a list of variables. The kernel
//! ([`crate::kernel`]) sweeps a unit sequentially and treats every other
//! unit of the phase as frozen at the phase start, so every sampler the
//! repo offers is a schedule constructor:
//!
//! | sampler | schedule |
//! |---|---|
//! | sequential Gibbs | 1 phase × 1 unit |
//! | random-partition baseline | 1 phase × `k` bucket units |
//! | Spatial Gibbs | `(level, conclique)` phases × cell units, then the unlocated variables as one unit |
//! | conclique-restricted re-sample | the spatial schedule filtered to the affected cells |

use crate::conclique::min_conclique_cover;
use crate::pyramid::PyramidIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sya_fg::{FactorGraph, VarId};

/// How an epoch walks the pyramid. Algorithm 1 stores a partial graph
/// per level; two faithful readings exist and both are provided:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// One pass over the leaf cells at the locality level (every atom
    /// sampled exactly once per epoch) — the fast default used by the
    /// headline experiments.
    #[default]
    LeafOnly,
    /// One pass per level `2..=locality` (atoms indexed at several levels
    /// are sampled several times per epoch — the multi-sampling the paper
    /// explicitly allows). Used by the locality-level experiment.
    AllLevels,
}

/// Configuration of the inference module.
#[derive(Debug, Clone)]
pub struct InferConfig {
    /// Total number of inference epochs `E` (paper default: 1000),
    /// split over the instances: each runs `⌊E/K⌋`, the first `E mod K`
    /// one more.
    pub epochs: usize,
    /// Number of inference instances `K` (independent chains whose
    /// counts are averaged).
    pub instances: usize,
    /// Pyramid height `L` (paper default: 8).
    pub levels: u8,
    /// Locality level `l` — the deepest pyramid level swept
    /// (paper default: the lowest level, i.e. `levels`).
    pub locality_level: u8,
    /// Pyramid cell capacity for incremental splits.
    pub cell_capacity: usize,
    /// Epochs (of the per-instance share) discarded before counting.
    pub burn_in: usize,
    /// RNG seed; every draw uses a stream derived from it.
    pub seed: u64,
    /// Pyramid walk per epoch (see [`SweepMode`]).
    pub sweep_mode: SweepMode,
    /// Thread cap. `None` (the default) uses the machine's available
    /// parallelism (at most 4) and runs small phases inline; `Some(n)`
    /// uses up to `n` threads regardless of phase size. Never changes
    /// the sampled values.
    pub workers: Option<usize>,
}

impl Default for InferConfig {
    fn default() -> Self {
        InferConfig {
            epochs: 1000,
            instances: 4,
            levels: 8,
            locality_level: 8,
            cell_capacity: 64,
            burn_in: 50,
            seed: 0xC0FFEE,
            sweep_mode: SweepMode::default(),
            workers: None,
        }
    }
}

impl InferConfig {
    /// The levels an epoch visits on a pyramid of `pyramid_levels`:
    /// the locality level alone in leaf-only mode; `2..=locality_level`
    /// (Algorithm 1 line 10) in all-levels mode, where a locality level
    /// below 2 sweeps just that single level.
    pub fn active_sweep_levels(&self, pyramid_levels: u8) -> Vec<u8> {
        let top = self.locality_level.clamp(1, pyramid_levels);
        match self.sweep_mode {
            SweepMode::AllLevels if top >= 2 => (2..=top).collect(),
            _ => vec![top],
        }
    }
}

/// One phase of an epoch: units that are swept independently against
/// the board as it stood when the phase began.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Conclique of the minimum cover the phase's cells belong to
    /// (`None` for non-conclique phases).
    pub conclique: Option<u8>,
    /// Free variables per unit, in sweep order. Units of one phase are
    /// disjoint.
    pub units: Vec<Vec<VarId>>,
}

/// The phase list of one epoch — identical for every lane, instance and
/// shard of a run, so all of them cross the same barriers in the same
/// order.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Sampler tag: names the telemetry family (`infer.<kind>`) and the
    /// checkpoints this schedule writes and accepts.
    pub kind: &'static str,
    pub phases: Vec<Phase>,
}

impl Schedule {
    /// DeepDive's sequential Gibbs: one sweep over all query variables
    /// in id order.
    pub fn sequential(graph: &FactorGraph) -> Self {
        let phases = vec![Phase { conclique: None, units: vec![graph.query_variables()] }];
        Schedule { kind: "sequential", phases }.without_empty()
    }

    /// The random-partition baseline the paper argues against (§V):
    /// query variables shuffled into `k` buckets that are swept against
    /// each other's *stale* values, so spatially dependent variables
    /// land in different buckets and update independently.
    pub fn random_buckets(graph: &FactorGraph, k: usize, seed: u64) -> Self {
        let k = k.max(1);
        let mut query = graph.query_variables();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..query.len()).rev() {
            query.swap(i, rng.gen_range(0..=i));
        }
        let units = (0..k).map(|b| query.iter().copied().skip(b).step_by(k).collect()).collect();
        Schedule { kind: "parallel", phases: vec![Phase { conclique: None, units }] }
            .without_empty()
    }

    /// Spatial Gibbs (Algorithm 1): per active level, the concliques of
    /// the minimum cover serially, one unit per cell; then the unlocated
    /// variables as a single unit so no variable is starved.
    pub fn spatial(graph: &FactorGraph, pyramid: &PyramidIndex, cfg: &InferConfig) -> Self {
        Self::spatial_where(graph, pyramid, cfg, |_| true)
    }

    /// [`spatial`](Self::spatial) restricted to the cells for which
    /// `keep` holds; `keep` sees every atom of the cell, evidence
    /// included (and the free unlocated variables for the last unit).
    pub fn spatial_where(
        graph: &FactorGraph,
        pyramid: &PyramidIndex,
        cfg: &InferConfig,
        mut keep: impl FnMut(&[VarId]) -> bool,
    ) -> Self {
        let mut phases = Vec::new();
        for level in cfg.active_sweep_levels(pyramid.levels()) {
            for (conclique, cells) in min_conclique_cover(&pyramid.sampling_cells(level)) {
                let units = cells
                    .iter()
                    .map(|c| pyramid.atoms_in(c))
                    .filter(|atoms| keep(atoms))
                    .map(|atoms| {
                        let free = atoms.iter().copied();
                        free.filter(|&v| !graph.variable(v).is_evidence()).collect()
                    })
                    .collect();
                phases.push(Phase { conclique: Some(conclique.0), units });
            }
        }
        let unlocated: Vec<VarId> = graph
            .query_variables()
            .into_iter()
            .filter(|&v| graph.variable(v).location.is_none())
            .collect();
        if keep(&unlocated) {
            phases.push(Phase { conclique: None, units: vec![unlocated] });
        }
        Schedule { kind: "spatial", phases }.without_empty()
    }

    /// Drops empty units and the phases left without any.
    fn without_empty(mut self) -> Self {
        for phase in &mut self.phases {
            phase.units.retain(|u| !u.is_empty());
        }
        self.phases.retain(|p| !p.units.is_empty());
        self
    }

    /// Every unit of the schedule, phase by phase.
    pub fn units(&self) -> impl Iterator<Item = &[VarId]> {
        self.phases.iter().flat_map(|p| p.units.iter().map(Vec::as_slice))
    }

    pub fn len(&self) -> usize {
        self.phases.len()
    }

    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::grid_graph;
    use sya_fg::Variable;

    #[test]
    fn sweep_levels_follow_algorithm_1() {
        let all = |locality_level| InferConfig {
            locality_level,
            sweep_mode: SweepMode::AllLevels,
            ..Default::default()
        };
        assert_eq!(all(8).active_sweep_levels(8), vec![2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(all(1).active_sweep_levels(8), vec![1]);
        assert_eq!(all(8).active_sweep_levels(3), vec![2, 3], "clamped to the pyramid");
        let leaf = InferConfig { locality_level: 8, ..Default::default() };
        assert_eq!(leaf.active_sweep_levels(3), vec![3]);
    }

    #[test]
    fn spatial_schedule_covers_every_free_variable_exactly_once_leaf_mode() {
        let mut g = grid_graph(4, 0.8);
        let floating = g.add_variable(Variable::binary(0, "floating"));
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let cfg = InferConfig { levels: 2, locality_level: 2, ..Default::default() };
        let schedule = Schedule::spatial(&g, &pyramid, &cfg);
        let mut seen: Vec<VarId> = schedule.units().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, g.query_variables());
        // The unlocated phase is last, one unit, no conclique.
        let last = schedule.phases.last().unwrap();
        assert_eq!(last.conclique, None);
        assert_eq!(last.units, vec![vec![floating]]);
    }

    #[test]
    fn random_buckets_partition_the_query_variables() {
        let g = grid_graph(4, 0.8);
        let schedule = Schedule::random_buckets(&g, 3, 7);
        assert_eq!(schedule.len(), 1);
        assert_eq!(schedule.phases[0].units.len(), 3);
        let mut seen: Vec<VarId> = schedule.units().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, g.query_variables());
        let again = Schedule::random_buckets(&g, 3, 7);
        assert_eq!(schedule.phases[0].units, again.phases[0].units, "seeded shuffle");
    }

    #[test]
    fn restricted_schedule_keeps_only_matching_cells() {
        let g = grid_graph(4, 0.8);
        let pyramid = PyramidIndex::build(&g, 1, 64);
        let cfg = InferConfig { levels: 1, locality_level: 1, ..Default::default() };
        // Variable 0 is evidence: the predicate still sees it, the unit
        // holds only its free cell-mates.
        let schedule = Schedule::spatial_where(&g, &pyramid, &cfg, |atoms| atoms.contains(&0));
        let units: Vec<&[VarId]> = schedule.units().collect();
        assert_eq!(units, vec![&[1, 4, 5][..]]);
        let none = Schedule::spatial_where(&g, &pyramid, &cfg, |_| false);
        assert!(none.is_empty());
    }
}
