//! The one Gibbs kernel.
//!
//! A `View` is a private, consistent copy of the assignment board.
//! `View::sweep` runs plain sequential Gibbs over one unit of a
//! [`Phase`](crate::Phase): the unit sees its own writes at once, while
//! every other unit of the phase stays frozen at the phase start — the
//! writes are logged, rolled back out of the view when the unit ends,
//! and only land on the board(s) when the caller publishes them at the
//! phase barrier. Every draw comes from a stream derived from `(seed,
//! epoch, phase, variable)`, never from a live generator.
//!
//! Two consequences the rest of the repo builds on:
//!
//! * **determinism is structural** — what a variable draws depends on
//!   the board at the phase start and on nothing else, so the counts are
//!   bit-identical however units are dealt to threads, processes or
//!   shards, and a resumed run needs no RNG position;
//! * **inside a unit the update is exact Gibbs**; across the units of a
//!   phase it is exact whenever no factor spans two of them (concliques
//!   guarantee that for spatial factors of adjacent cells) and a
//!   synchronous approximation otherwise.
//!
//! Each draw's conditional comes from the run's one [`SweepPlan`]: a
//! binary variable's `P(v = 1)` is one pass over its flat edge rows, a
//! categorical variable's vector one adjacency walk into the view's
//! scratch buffer. The plan reproduces `sya_fg::conditional_distribution`
//! bit for bit, so it changes how fast a draw is made, never its value.
//!
//! The driver ([`crate::driver`]) is the only caller: it holds each
//! board as one view per owner and sweeps the views on its lanes, for a
//! plain run, an in-process sharded run and a cluster worker alike, all
//! against the one plan it built for the run.

use crate::schedule::Schedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sya_fg::{FactorGraph, SweepPlan, VarId};

/// Tag mixed into the per-variable stream that draws initial values, so
/// the init draw never collides with an epoch stream.
const INIT_EPOCH_TAG: u64 = u64::MAX;

/// The derived RNG stream for one `(seed, epoch, variable)` draw.
#[inline]
pub fn var_epoch_rng(seed: u64, epoch: u64, v: VarId) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ epoch.wrapping_mul(0x2545_F491_4F6C_DD1D)
            ^ (v as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// The stream index of phase `phase` in `epoch`: a variable swept in
/// several phases of one epoch (all-levels mode) draws from a fresh
/// stream each time.
#[inline]
pub(crate) fn tick(schedule: &Schedule, epoch: usize, phase: usize) -> u64 {
    (epoch as u64).wrapping_mul(schedule.len() as u64).wrapping_add(phase as u64)
}

/// The starting board: evidence clamped; free variables at `init` when
/// given (clamped into the domain in case it shrank since), else at a
/// per-variable derived draw.
pub(crate) fn init_board(graph: &FactorGraph, seed: u64, init: Option<&[u32]>) -> Vec<u32> {
    graph
        .variables()
        .iter()
        .enumerate()
        .map(|(i, v)| match (v.evidence, init) {
            (Some(e), _) => e,
            (None, Some(a)) => a.get(i).copied().unwrap_or(0).min(v.domain.cardinality() - 1),
            (None, None) => {
                var_epoch_rng(seed, INIT_EPOCH_TAG, v.id).gen_range(0..v.domain.cardinality())
            }
        })
        .collect()
}

/// Draws an index from a normalized probability vector.
fn sample_index(rng: &mut StdRng, probs: &[f64]) -> u32 {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i as u32;
        }
    }
    (probs.len() - 1) as u32
}

/// Draws a value for `v` from its Gibbs conditional: binary variables
/// take the plan's one pass over their rows, categorical ones its
/// normalized vector, written into `probs`.
#[inline]
fn sample_conditional(
    plan: &SweepPlan<'_>,
    values: &[u32],
    v: VarId,
    rng: &mut StdRng,
    probs: &mut Vec<f64>,
) -> u32 {
    let prof = sya_obs::profile::start();
    let x = if plan.graph().variable(v).domain.cardinality() == 2 {
        u32::from(rng.gen::<f64>() < plan.p_true(values, v))
    } else {
        plan.conditional_into(values, v, probs);
        sample_index(rng, probs)
    };
    sya_obs::profile::stop(sya_obs::profile::Site::DeltaEnergy, prof);
    x
}

/// Convergence-telemetry indicator over the current chain state: true
/// when the variable holds a non-default value (for binary variables
/// exactly `x == 1`, the factual-score convention).
#[inline]
pub(crate) fn telemetry_indicator(x: u32) -> bool {
    x != 0
}

/// A private copy of the board plus the write log of the phase in
/// flight.
#[derive(Debug, Clone)]
pub(crate) struct View {
    values: Vec<u32>,
    /// `(variable, new value)` of every draw since the last publish.
    writes: Vec<(VarId, u32)>,
    /// Pre-sweep values of the unit in flight (empty between units).
    undo: Vec<u32>,
    /// Scratch for categorical conditionals, so no update allocates.
    probs: Vec<f64>,
}

impl View {
    pub(crate) fn new(values: Vec<u32>) -> Self {
        View { values, writes: Vec::new(), undo: Vec::new(), probs: Vec::new() }
    }

    /// The board as of the last publish.
    pub(crate) fn values(&self) -> &[u32] {
        &self.values
    }

    /// Sweeps `unit` sequentially against this view: each draw
    /// conditions on the unit's earlier draws and on the frozen rest.
    /// The draws are appended to the write log and rolled back out of
    /// the view, so the next unit of the phase sees the frozen board.
    pub(crate) fn sweep(&mut self, plan: &SweepPlan<'_>, seed: u64, tick: u64, unit: &[VarId]) {
        for &v in unit {
            let mut rng = var_epoch_rng(seed, tick, v);
            let x = sample_conditional(plan, &self.values, v, &mut rng, &mut self.probs);
            self.undo.push(std::mem::replace(&mut self.values[v as usize], x));
            self.writes.push((v, x));
        }
        self.rollback_unit();
    }

    /// Restores the unit in flight to its pre-sweep values.
    fn rollback_unit(&mut self) {
        let start = self.writes.len() - self.undo.len();
        for (&(v, _), &old) in self.writes[start..].iter().zip(&self.undo) {
            self.values[v as usize] = old;
        }
        self.undo.clear();
    }

    /// Discards everything since the last publish — the recovery step
    /// after a sweep died half-way through a unit.
    pub(crate) fn reset(&mut self) {
        self.rollback_unit();
        self.writes.clear();
    }

    /// Publishes draws (this view's own or another view's) onto the
    /// view.
    pub(crate) fn apply(&mut self, writes: &[(VarId, u32)]) {
        for &(v, x) in writes {
            self.values[v as usize] = x;
        }
    }

    /// Takes the write log, leaving it empty (the allocation moves with
    /// it; hand it back through [`recycle`](Self::recycle)).
    pub(crate) fn take_writes(&mut self) -> Vec<(VarId, u32)> {
        std::mem::take(&mut self.writes)
    }

    /// Returns a drained write log's allocation for reuse.
    pub(crate) fn recycle(&mut self, mut writes: Vec<(VarId, u32)>) {
        writes.clear();
        self.writes = writes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::CheckpointOptions;
    use crate::driver::{run_gibbs, Owners};
    use crate::marginals::MarginalCounts;
    use crate::pyramid::PyramidIndex;
    use crate::run::InferError;
    use crate::schedule::InferConfig;
    use crate::testutil::grid_graph;
    use sya_runtime::ExecContext;

    fn cfg() -> InferConfig {
        InferConfig {
            epochs: 40,
            burn_in: 5,
            instances: 1,
            levels: 2,
            locality_level: 2,
            seed: 11,
            ..Default::default()
        }
    }

    /// Runs `schedule` with the units dealt by the per-variable `owner`
    /// table (`None`: round-robin).
    fn run(
        g: &FactorGraph,
        schedule: &Schedule,
        cfg: &InferConfig,
        owner: Option<&[u32]>,
    ) -> Result<MarginalCounts, InferError> {
        let owners = owner.map_or(Owners::RoundRobin, Owners::Plan);
        let ctx = ExecContext::unbounded();
        run_gibbs(g, schedule, cfg, None, &ctx, CheckpointOptions::none(), None, owners)
            .map(|run| run.counts)
    }

    #[test]
    fn sweep_sees_own_unit_writes_and_leaves_the_view_frozen() {
        let g = grid_graph(2, 0.8);
        let board = init_board(&g, 3, None);
        let plan = SweepPlan::build(&g, [1, 2, 3]);
        let mut view = View::new(board.clone());
        view.sweep(&plan, 3, 0, &[1, 2, 3]);
        assert_eq!(view.values(), &board[..], "draws are rolled back out of the view");
        assert_eq!(view.writes.len(), 3);
        // Variable 3's draw conditioned on the draws of 1 and 2, not on
        // their frozen values: replaying it against a board that already
        // holds those draws reproduces it.
        let mut replay = View::new(board.clone());
        replay.apply(&view.writes[..2]);
        replay.sweep(&plan, 3, 0, &[3]);
        assert_eq!(replay.writes[0], view.writes[2]);
        let writes = view.take_writes();
        view.apply(&writes);
        assert!(writes.iter().all(|&(v, x)| view.values()[v as usize] == x));
    }

    #[test]
    fn reset_recovers_a_view_abandoned_mid_unit() {
        let g = grid_graph(2, 0.8);
        let board = init_board(&g, 3, None);
        let mut view = View::new(board.clone());
        // A sweep that died after one draw: value written, undo pending.
        view.undo.push(std::mem::replace(&mut view.values[1], 1 - board[1]));
        view.writes.push((1, 1 - board[1]));
        view.reset();
        assert_eq!(view.values(), &board[..]);
        assert!(view.writes.is_empty());
    }

    #[test]
    fn init_board_is_seed_deterministic_warm_startable_and_clamps_evidence() {
        let g = grid_graph(3, 0.8);
        assert_eq!(init_board(&g, 7, None), init_board(&g, 7, None));
        assert_ne!(init_board(&g, 7, None), init_board(&g, 8, None));
        let warm = init_board(&g, 7, Some(&[0, 1, 9]));
        assert_eq!(&warm[..3], &[1, 1, 1], "evidence wins, stale values clamp into the domain");
        assert_eq!(warm[3], 0, "a short warm start pads with 0");
    }

    /// The parity property sharding builds on: dealing the units to
    /// owners by any table changes nothing about the samples.
    #[test]
    fn ownership_splits_reproduce_the_single_chain_exactly() {
        let g = grid_graph(4, 0.8);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let cfg = cfg();
        let schedule = Schedule::spatial(&g, &pyramid, &cfg);
        let single = run(&g, &schedule, &cfg, None).unwrap();
        // Level-2 cells of the 4×4 grid are single variables, so any
        // split keeps units whole.
        let halves: Vec<u32> = (0..g.num_variables()).map(|v| u32::from(v >= 7)).collect();
        assert_eq!(single, run(&g, &schedule, &cfg, Some(&halves)).unwrap());
        let scattered: Vec<u32> = (0..g.num_variables() as u32).map(|v| v % 3).collect();
        assert_eq!(single, run(&g, &schedule, &cfg, Some(&scattered)).unwrap());
    }

    #[test]
    fn an_ownership_that_splits_a_unit_is_rejected() {
        let g = grid_graph(4, 0.8);
        // Level 1: four cells of four variables each.
        let pyramid = PyramidIndex::build(&g, 1, 64);
        let cfg = InferConfig { levels: 1, locality_level: 1, ..cfg() };
        let schedule = Schedule::spatial(&g, &pyramid, &cfg);
        let owner: Vec<u32> = (0..g.num_variables()).map(|v| u32::from(v >= 3)).collect();
        let err = run(&g, &schedule, &cfg, Some(&owner)).unwrap_err();
        assert!(matches!(err, InferError::SplitUnit { .. }), "{err}");
    }
}
