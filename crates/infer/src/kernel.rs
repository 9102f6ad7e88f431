//! The one Gibbs kernel and its phase-step API.
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
//! The driver ([`crate::driver`]) steps `K` boards through views on its
//! own lanes. Executors that own their epoch loop — the in-process
//! sharded run and the cluster worker of `sya-shard` — step a [`Chain`]:
//! one view plus the units its shard owns, the shard's counts and its
//! convergence trajectory.

use crate::ckpt::ChainState;
use crate::marginals::MarginalCounts;
use crate::run::InferError;
use crate::schedule::Schedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sya_fg::{binary_conditional_true, conditional_with, FactorGraph, VarId};
use sya_obs::{ConvergenceSeries, EpochTelemetry};

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
pub fn init_board(graph: &FactorGraph, seed: u64, init: Option<&[u32]>) -> Vec<u32> {
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
/// take the allocation-free sigmoid path, categorical ones the general
/// normalized-vector path.
#[inline]
fn sample_conditional(graph: &FactorGraph, values: &[u32], v: VarId, rng: &mut StdRng) -> u32 {
    let prof = sya_obs::profile::start();
    let source = |u: VarId| values[u as usize];
    let x = if graph.variable(v).domain.cardinality() == 2 {
        u32::from(rng.gen::<f64>() < binary_conditional_true(graph, &source, v))
    } else {
        sample_index(rng, &conditional_with(graph, &source, v))
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
}

impl View {
    pub(crate) fn new(values: Vec<u32>) -> Self {
        View { values, writes: Vec::new(), undo: Vec::new() }
    }

    /// The board as of the last publish.
    pub(crate) fn values(&self) -> &[u32] {
        &self.values
    }

    /// Draws logged since the last [`apply`](Self::apply) of them.
    pub(crate) fn writes(&self) -> &[(VarId, u32)] {
        &self.writes
    }

    /// Sweeps `unit` sequentially against this view: each draw
    /// conditions on the unit's earlier draws and on the frozen rest.
    /// The draws are appended to the write log and rolled back out of
    /// the view, so the next unit of the phase sees the frozen board.
    pub(crate) fn sweep(&mut self, graph: &FactorGraph, seed: u64, tick: u64, unit: &[VarId]) {
        for &v in unit {
            let x = sample_conditional(graph, &self.values, v, &mut var_epoch_rng(seed, tick, v));
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

/// One shard's sampler state, stepped phase by phase by an executor
/// that owns the epoch loop: its view of the board, the units it owns,
/// its counts, and its convergence trajectory over owned variables.
///
/// Per phase: [`sample_phase`](Self::sample_phase), ship
/// [`pending_writes`](Self::pending_writes) to the other shards,
/// [`apply_halo`](Self::apply_halo) theirs, then
/// [`publish`](Self::publish). Per epoch: [`end_epoch`](Self::end_epoch).
pub struct Chain<'g> {
    graph: &'g FactorGraph,
    schedule: &'g Schedule,
    seed: u64,
    view: View,
    /// All variables this shard owns (evidence included), sorted.
    owned: Vec<VarId>,
    /// Per phase: indices of the units this shard owns.
    phase_units: Vec<Vec<usize>>,
    /// Owned evidence variables with their clamped values.
    evidence_owned: Vec<(VarId, u32)>,
    counts: MarginalCounts,
    recorded: bool,
    /// Indices (into `owned`) of boundary-exposed variables — owned
    /// variables some other shard reads as halo.
    boundary: Vec<usize>,
    /// Running-marginal snapshot of the boundary variables; the drift
    /// since then is the retirement staleness signal.
    boundary_ref: Vec<f64>,
    telemetry: EpochTelemetry,
    epoch_flips: u64,
    epoch_samples: u64,
}

impl<'g> Chain<'g> {
    /// `owned` is the shard's full ownership class (evidence included);
    /// `board` the starting assignment ([`init_board`] or a checkpoint).
    /// A unit is the atom of sequential sweeping, so it must have one
    /// owner: a schedule whose units the ownership splits — a sweep
    /// level coarser than the partition level — is rejected rather than
    /// silently sampled differently per shard count.
    pub fn new(
        graph: &'g FactorGraph,
        schedule: &'g Schedule,
        seed: u64,
        mut owned: Vec<VarId>,
        board: Vec<u32>,
    ) -> Result<Self, InferError> {
        owned.sort_unstable();
        owned.dedup();
        let mut is_owned = vec![false; graph.num_variables()];
        for &v in &owned {
            is_owned[v as usize] = true;
        }
        let mut phase_units = Vec::with_capacity(schedule.len());
        for (p, phase) in schedule.phases.iter().enumerate() {
            let mut mine = Vec::new();
            for (u, unit) in phase.units.iter().enumerate() {
                let n_owned = unit.iter().filter(|&&v| is_owned[v as usize]).count();
                if n_owned == unit.len() {
                    mine.push(u);
                } else if n_owned > 0 {
                    return Err(InferError::SplitUnit {
                        detail: format!(
                            "unit {u} of phase {p} holds {} variables but this shard owns only \
                             {n_owned} of them; sweep cells must nest inside partition cells \
                             (partition level <= locality level, and all-levels sweeps start at \
                             level 2)",
                            unit.len()
                        ),
                    });
                }
            }
            phase_units.push(mine);
        }
        let evidence_owned =
            owned.iter().filter_map(|&v| graph.variable(v).evidence.map(|e| (v, e))).collect();
        Ok(Chain {
            graph,
            schedule,
            seed,
            view: View::new(board),
            telemetry: EpochTelemetry::new(owned.len()),
            owned,
            phase_units,
            evidence_owned,
            counts: MarginalCounts::new(graph),
            recorded: false,
            boundary: Vec::new(),
            boundary_ref: Vec::new(),
            epoch_flips: 0,
            epoch_samples: 0,
        })
    }

    /// The full board as this shard sees it (owned + halo replicas).
    pub fn board(&self) -> &[u32] {
        self.view.values()
    }

    /// Declares which variables are boundary-exposed (owned here, read
    /// as halo by some other shard). Enables the boundary-staleness
    /// signal retirement gating uses; foreign variables are ignored.
    pub fn set_boundary(&mut self, vars: &[VarId]) {
        self.boundary = vars.iter().filter_map(|v| self.owned.binary_search(v).ok()).collect();
        self.boundary.sort_unstable();
        self.boundary.dedup();
        self.boundary_ref = Vec::new();
    }

    /// Snapshots the boundary variables' running marginals. Call at the
    /// start of a retirement quiet streak.
    pub fn snapshot_boundary(&mut self) {
        self.boundary_ref = self.boundary.iter().map(|&i| self.telemetry.running_mean(i)).collect();
    }

    /// `max |p_now − p_snapshot|` over boundary-exposed variables — how
    /// much the values the *neighbour* shards condition on have drifted
    /// since the snapshot. `0.0` with no boundary or no snapshot.
    pub fn boundary_delta(&self) -> f64 {
        self.boundary
            .iter()
            .zip(&self.boundary_ref)
            .map(|(&i, &p0)| (self.telemetry.running_mean(i) - p0).abs())
            .fold(0.0, f64::max)
    }

    /// Sweeps the shard's units of one phase, logging the draws.
    pub fn sample_phase(&mut self, phase: usize, epoch: usize) {
        let prof = sya_obs::profile::start();
        let tick = tick(self.schedule, epoch, phase);
        for &u in &self.phase_units[phase] {
            self.view.sweep(self.graph, self.seed, tick, &self.schedule.phases[phase].units[u]);
        }
        let drawn = self.view.writes().len() as u64;
        self.epoch_samples += drawn;
        if let Some(c) = self.schedule.phases[phase].conclique {
            self.telemetry.add_conclique_samples(c as usize, drawn);
        }
        sya_obs::profile::stop(sya_obs::profile::Site::ConcliqueSweep, prof);
    }

    /// The draws of the phase in flight, in sweep order — what the
    /// other shards must [`apply_halo`](Self::apply_halo).
    pub fn pending_writes(&self) -> &[(VarId, u32)] {
        self.view.writes()
    }

    /// Lands another shard's published draws on this shard's board.
    pub fn apply_halo(&mut self, writes: &[(VarId, u32)]) {
        let prof = sya_obs::profile::start();
        self.view.apply(writes);
        sya_obs::profile::stop(sya_obs::profile::Site::HaloApply, prof);
    }

    /// Lands this shard's own draws on its board and, when `record`,
    /// in its counts.
    pub fn publish(&mut self, record: bool) {
        let prof = sya_obs::profile::start();
        let writes = self.view.take_writes();
        for &(v, x) in &writes {
            self.epoch_flips += u64::from(self.view.values()[v as usize] != x);
            if record {
                self.counts.record(v, x);
            }
        }
        self.view.apply(&writes);
        self.view.recycle(writes);
        sya_obs::profile::stop(sya_obs::profile::Site::HaloPublish, prof);
    }

    /// Total samples drawn and value flips so far (closed epochs plus
    /// the one in flight) — what the cluster worker ships per epoch in
    /// its `Telemetry` frame.
    pub fn progress(&self) -> (u64, u64) {
        let (samples, flips) = self.telemetry.totals();
        (samples + self.epoch_samples, flips + self.epoch_flips)
    }

    /// Closes an epoch: records owned evidence rows, folds the board
    /// into the shard's running marginals, and returns the epoch's
    /// `max |p_t − p_{t−1}|` over owned variables (the retirement
    /// signal).
    pub fn end_epoch(&mut self, record: bool) -> f64 {
        if record {
            self.recorded = true;
            for &(v, e) in &self.evidence_owned {
                self.counts.record(v, e);
            }
        }
        let values = self.view.values();
        let indicators = self.owned.iter().map(|&v| telemetry_indicator(values[v as usize]));
        let delta = self.telemetry.end_epoch(self.epoch_flips, self.epoch_samples, indicators);
        self.epoch_flips = 0;
        self.epoch_samples = 0;
        delta
    }

    /// Records a pseudo-log-likelihood observation (the executor samples
    /// it on one shard over the full board).
    pub fn record_pll(&mut self, epoch: usize, value: f64) {
        self.telemetry.record_pll(epoch, value);
    }

    /// Packages the shard's durable state at the barrier entering
    /// `next_epoch`: the full board plus this shard's counts.
    pub fn chain_state(&self, next_epoch: usize) -> ChainState {
        ChainState {
            epoch: next_epoch as u64,
            assignment: self.view.values().to_vec(),
            counts: self.counts.to_rows(),
            recorded: self.recorded,
        }
    }

    /// Restores counts and the recorded flag from a resumed chain (the
    /// board went into [`new`](Self::new)).
    pub fn resume_counts(&mut self, counts: MarginalCounts, recorded: bool) {
        self.counts = counts;
        self.recorded = recorded;
    }

    /// Fallback for runs stopped before burn-in: when no epoch recorded
    /// samples, records one snapshot of the board restricted to owned
    /// variables and returns `true`.
    pub fn snapshot_if_unrecorded(&mut self) -> bool {
        if !self.recorded {
            for &v in &self.owned {
                self.counts.record(v, self.view.values()[v as usize]);
            }
        }
        !self.recorded
    }

    /// Consumes the chain into its counts and convergence series.
    pub fn finish(self) -> (MarginalCounts, ConvergenceSeries) {
        (self.counts, self.telemetry.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pyramid::PyramidIndex;
    use crate::schedule::InferConfig;
    use crate::testutil::grid_graph;

    fn cfg() -> InferConfig {
        InferConfig { levels: 2, locality_level: 2, seed: 11, ..Default::default() }
    }

    /// Steps `chains` (one per ownership class) in lockstep, exchanging
    /// halos the way the shard executors do.
    fn run_chains(chains: &mut [Chain], schedule: &Schedule, epochs: usize, burn: usize) {
        for epoch in 0..epochs {
            let record = epoch >= burn;
            for phase in 0..schedule.len() {
                for chain in chains.iter_mut() {
                    chain.sample_phase(phase, epoch);
                }
                let logs: Vec<Vec<(VarId, u32)>> =
                    chains.iter().map(|c| c.pending_writes().to_vec()).collect();
                for (i, chain) in chains.iter_mut().enumerate() {
                    for (j, log) in logs.iter().enumerate() {
                        if i != j {
                            chain.apply_halo(log);
                        }
                    }
                    chain.publish(record);
                }
            }
            for chain in chains.iter_mut() {
                chain.end_epoch(record);
            }
        }
    }

    #[test]
    fn sweep_sees_own_unit_writes_and_leaves_the_view_frozen() {
        let g = grid_graph(2, 0.8);
        let board = init_board(&g, 3, None);
        let mut view = View::new(board.clone());
        view.sweep(&g, 3, 0, &[1, 2, 3]);
        assert_eq!(view.values(), &board[..], "draws are rolled back out of the view");
        assert_eq!(view.writes().len(), 3);
        // Variable 3's draw conditioned on the draws of 1 and 2, not on
        // their frozen values: replaying it against a board that already
        // holds those draws reproduces it.
        let mut replay = View::new(board.clone());
        replay.apply(&view.writes()[..2]);
        replay.sweep(&g, 3, 0, &[3]);
        assert_eq!(replay.writes()[0], view.writes()[2]);
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
        assert!(view.writes().is_empty());
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

    /// The parity property the sharded executors build on: splitting
    /// the ownership across chains changes nothing about the samples.
    #[test]
    fn ownership_splits_reproduce_the_single_chain_exactly() {
        let g = grid_graph(4, 0.8);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let cfg = cfg();
        let schedule = Schedule::spatial(&g, &pyramid, &cfg);
        let run = |ownerships: Vec<Vec<VarId>>| -> MarginalCounts {
            let mut chains: Vec<Chain> = ownerships
                .into_iter()
                .map(|o| {
                    Chain::new(&g, &schedule, cfg.seed, o, init_board(&g, cfg.seed, None)).unwrap()
                })
                .collect();
            run_chains(&mut chains, &schedule, 40, 5);
            let mut total = MarginalCounts::new(&g);
            for chain in chains {
                total.merge(&chain.finish().0);
            }
            total
        };
        let all: Vec<VarId> = (0..g.num_variables() as VarId).collect();
        let single = run(vec![all.clone()]);
        // Level-2 cells of the 4×4 grid are single variables, so any
        // split keeps units whole.
        let (left, right) = all.split_at(7);
        assert_eq!(single, run(vec![left.to_vec(), right.to_vec()]));
    }

    #[test]
    fn an_ownership_that_splits_a_unit_is_rejected() {
        let g = grid_graph(4, 0.8);
        // Level 1: four cells of four variables each.
        let pyramid = PyramidIndex::build(&g, 1, 64);
        let cfg = InferConfig { levels: 1, locality_level: 1, seed: 11, ..Default::default() };
        let schedule = Schedule::spatial(&g, &pyramid, &cfg);
        let board = init_board(&g, cfg.seed, None);
        let err = Chain::new(&g, &schedule, cfg.seed, vec![0, 1, 2], board).err().unwrap();
        assert!(matches!(err, InferError::SplitUnit { .. }), "{err}");
    }

    #[test]
    fn boundary_tracking_measures_drift_since_the_snapshot() {
        // A weakly coupled grid: at 0.8 the chain saturates at all-ones
        // under the corner evidence and every running marginal freezes.
        let g = grid_graph(3, 0.05);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let cfg = cfg();
        let schedule = Schedule::spatial(&g, &pyramid, &cfg);
        let all: Vec<VarId> = (0..g.num_variables() as VarId).collect();
        let mut chains =
            [Chain::new(&g, &schedule, cfg.seed, all, init_board(&g, cfg.seed, None)).unwrap()];
        // Variables 1 and 4 are boundary-exposed; 99 is foreign and ignored.
        chains[0].set_boundary(&[1, 4, 99]);
        assert_eq!(chains[0].boundary_delta(), 0.0, "no snapshot yet");
        run_chains(&mut chains, &schedule, 1, 0);
        chains[0].snapshot_boundary();
        assert_eq!(chains[0].boundary_delta(), 0.0, "snapshot epoch has zero drift");
        // `run_chains` restarts at epoch 0; the telemetry keeps counting.
        run_chains(&mut chains, &schedule, 4, 0);
        let drift = chains[0].boundary_delta();
        assert!(drift > 0.0 && drift <= 1.0, "drift {drift}");
    }

    #[test]
    fn retirement_signal_shrinks_over_epochs() {
        let g = grid_graph(3, 0.8);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let cfg = cfg();
        let schedule = Schedule::spatial(&g, &pyramid, &cfg);
        let all: Vec<VarId> = (0..g.num_variables() as VarId).collect();
        let mut chain =
            Chain::new(&g, &schedule, cfg.seed, all, init_board(&g, cfg.seed, None)).unwrap();
        let mut deltas = Vec::new();
        for epoch in 0..100 {
            for phase in 0..schedule.len() {
                chain.sample_phase(phase, epoch);
                chain.publish(true);
            }
            deltas.push(chain.end_epoch(true));
        }
        assert!(deltas[99] < deltas[0], "running-marginal delta must shrink: {deltas:?}");
        let (_, series) = chain.finish();
        assert_eq!(series.epochs, 100);
        assert_eq!(series.marginal_delta, deltas);
    }
}
