//! The one Gibbs driver: every sampler is a [`Schedule`] run by
//! [`run_gibbs`].
//!
//! The driver owns the only epoch loop in the repo. It steps `K`
//! boards (the paper's inference instances) through the schedule in
//! lockstep — phase by phase, publishing each phase's draws at its
//! barrier — and handles everything around the sweep: interruption at
//! epoch barriers, the fault-plan hooks, re-sampling after a lane died,
//! checkpoint and resume, per-epoch telemetry and pseudo-log-likelihood,
//! and the snapshot fallback for runs stopped before burn-in.
//!
//! Parallelism is an execution detail. Each board is held as one view
//! per **owner**, and the [`Owners`] table deals every unit of a phase
//! to one owner: round-robin for a plain run, a shard plan's cells for a
//! sharded one. Views are swept on **lanes** — threads opened once per
//! run — and phases too small to pay for a barrier run inline. Because
//! the kernel's draws depend only on the board at the phase start (see
//! [`crate::kernel`]), the counts are bit-identical for every lane and
//! owner count, including after a lane panic: the re-sample redraws
//! exactly what the dead lane would have drawn.
//!
//! A process that holds only some owners (a cluster worker) passes a
//! [`Halo`] hook: at every phase barrier it trades this process's draws
//! for the other owners', and at every epoch end it learns whether the
//! run goes on. Such a process records counts, evidence and telemetry
//! only for the variables it owns, so the processes' counts sum to the
//! single-process run.

use crate::ckpt::{ChainState, CheckpointOptions, CheckpointSink, CheckpointState};
use crate::kernel::{init_board, telemetry_indicator, tick, View};
use crate::learn::pseudo_log_likelihood;
use crate::marginals::MarginalCounts;
use crate::pyramid::PyramidIndex;
use crate::run::{panic_message, InferError, SamplerRun};
use crate::schedule::{InferConfig, Schedule};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use sya_fg::{FactorGraph, SweepPlan, VarId};
use sya_obs::{pll_stride, ConvergenceSeries, EpochTelemetry, Obs};
use sya_runtime::{ExecContext, Phase, RunOutcome};

/// Variable draws a phase must hold (over all boards) before waking the
/// lanes pays for its two barrier crossings.
const MIN_PARALLEL_WORK: usize = 256;

/// How [`run_gibbs`] deals the units of each phase to the views of a
/// board, and which of them this process samples.
pub enum Owners<'a> {
    /// View `j` sweeps units `j, j + views, …` of every phase, `views`
    /// sized to the lanes. The plain, unsharded run.
    RoundRobin,
    /// A shard plan's owner table (`owner[v]` for every variable): a unit
    /// goes to the view of the owner of its variables, and every owner
    /// is sampled here.
    Plan(&'a [u32]),
    /// The same table, but this process holds owner `held` alone and
    /// runs one instance (`cfg.instances` is not consulted); every other
    /// owner's draws arrive through `halo`.
    Held { owner: &'a [u32], held: u32, halo: &'a mut dyn Halo },
}

/// The transport of a process that holds only some owners.
pub trait Halo {
    /// Trades this process's draws of one phase for every other owner's
    /// draws of it. An `Err` ends the run.
    fn exchange(
        &mut self,
        epoch: usize,
        phase: usize,
        own: &[(VarId, u32)],
    ) -> Result<Vec<(VarId, u32)>, String>;

    /// Closes `epoch` with this process's running totals and the epoch's
    /// marginal delta over its variables. `Some(outcome)` stops the run
    /// after this epoch; an `Err` ends it at once.
    fn end_epoch(
        &mut self,
        epoch: usize,
        samples: u64,
        flips: u64,
        max_delta: f64,
    ) -> Result<Option<RunOutcome>, String>;
}

/// Per phase, per view of a board: the indices of the units that view
/// sweeps, in order.
type Deal = Vec<Vec<Vec<usize>>>;

/// The owner of `unit` under a per-variable owner table. A unit is the
/// atom of sequential sweeping, so it must have one owner: a table that
/// cuts through it (a sweep level coarser than the partition level) is
/// refused rather than sampled differently per owner count.
fn unit_owner(owner: &[u32], phase: usize, u: usize, unit: &[VarId]) -> Result<u32, InferError> {
    let first = unit.first().map_or(0, |&v| owner[v as usize]);
    match unit.iter().map(|&v| owner[v as usize]).find(|&o| o != first) {
        None => Ok(first),
        Some(other) => Err(InferError::SplitUnit {
            detail: format!(
                "unit {u} of phase {phase} holds variables of owners {first} and {other}; \
                 sweep cells must nest inside partition cells (partition level <= locality \
                 level, and all-levels sweeps start at level 2)"
            ),
        }),
    }
}

/// Deals every unit of `schedule` to the view that sweeps it and
/// returns the views per board with the deal. `views` is the width for
/// [`Owners::RoundRobin`]; an owner table brings its own.
fn deal(
    schedule: &Schedule,
    table: Option<&[u32]>,
    held: Option<u32>,
    views: usize,
) -> Result<(usize, Deal), InferError> {
    let views = match (table, held) {
        (_, Some(_)) => 1,
        (Some(owner), None) => owner.iter().max().map_or(1, |&m| m as usize + 1),
        (None, None) => views,
    };
    let mut deal = vec![vec![Vec::new(); views]; schedule.len()];
    for (p, phase) in schedule.phases.iter().enumerate() {
        for (u, unit) in phase.units.iter().enumerate() {
            let view = match (table, held) {
                (None, _) => Some(u % views),
                (Some(owner), None) => Some(unit_owner(owner, p, u, unit)? as usize),
                (Some(owner), Some(me)) => (unit_owner(owner, p, u, unit)? == me).then_some(0),
            };
            if let Some(view) = view {
                deal[p][view].push(u);
            }
        }
    }
    Ok((views, deal))
}

/// What one inference instance has accumulated. The assignment itself
/// lives in the instance's views.
struct Board {
    counts: MarginalCounts,
    recorded: bool,
    telemetry: EpochTelemetry,
    epoch_flips: u64,
    epoch_samples: u64,
}

/// The shared state of a run's lanes. Board `k` is held as `vpb`
/// identical views (`k * vpb ..`); view `j` of a board sweeps the units
/// `deal[phase][j]` of each phase, and lane `l` serves the views `l,
/// l + lanes, …`.
struct Lanes<'a> {
    plan: SweepPlan<'a>,
    schedule: &'a Schedule,
    ctx: &'a ExecContext,
    views: Vec<Mutex<View>>,
    vpb: usize,
    deal: Deal,
    /// Per board: stream seed, epoch share, dropped flag.
    seeds: Vec<u64>,
    epochs: Vec<usize>,
    dead: Vec<AtomicBool>,
    lanes: usize,
    barrier: Barrier,
    /// The step the lanes run after the next barrier; `None` stops them.
    step: Mutex<Option<(usize, usize)>>,
    /// `(view, panic message)` of every sweep that died this step.
    failed: Mutex<Vec<(usize, String)>>,
}

impl Lanes<'_> {
    /// A view's guard. A sweep that panicked poisoned the mutex while
    /// the view was mid-unit; every path that recovers from that calls
    /// `View::reset` first, which restores a valid view.
    fn view(&self, i: usize) -> MutexGuard<'_, View> {
        self.views[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn active(&self, board: usize, epoch: usize) -> bool {
        epoch < self.epochs[board] && !self.dead[board].load(Ordering::Relaxed)
    }

    /// Sweeps view `i`'s units of one phase. Panics on an injected (or
    /// real) fault; callers isolate it.
    fn sample_view(&self, i: usize, epoch: usize, phase: usize) {
        let (board, j) = (i / self.vpb, i % self.vpb);
        if j == 0 {
            if phase == 0 && self.ctx.should_panic_instance(board, epoch) {
                panic!("injected fault: instance {board} panicked at epoch {epoch}");
            }
            if self.ctx.take_worker_panic(board, epoch) {
                panic!("injected fault: lane of instance {board} panicked at epoch {epoch}");
            }
        }
        let tick = tick(self.schedule, epoch, phase);
        let units = &self.schedule.phases[phase].units;
        let mut view = self.view(i);
        for &u in &self.deal[phase][j] {
            view.sweep(&self.plan, self.seeds[board], tick, &units[u]);
        }
    }

    /// Sweeps every `stride`-th view from `lane` on, recording the
    /// sweeps that died instead of unwinding through the barrier.
    fn run_lane(&self, lane: usize, stride: usize, epoch: usize, phase: usize) {
        for i in (lane..self.views.len()).step_by(stride) {
            if !self.active(i / self.vpb, epoch) {
                continue;
            }
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| self.sample_view(i, epoch, phase))) {
                let mut failed = self.failed.lock().unwrap_or_else(PoisonError::into_inner);
                failed.push((i, panic_message(p)));
            }
        }
    }

    fn set_step(&self, step: Option<(usize, usize)>) {
        *self.step.lock().unwrap_or_else(PoisonError::into_inner) = step;
    }

    /// Body of lanes `1..`: wait for a step, run it, meet the driver at
    /// the closing barrier.
    fn worker(&self, lane: usize) {
        loop {
            self.barrier.wait();
            let step = *self.step.lock().unwrap_or_else(PoisonError::into_inner);
            let Some((epoch, phase)) = step else { return };
            self.run_lane(lane, self.lanes, epoch, phase);
            self.barrier.wait();
        }
    }

    /// Driver side of one phase: on all lanes when `parallel`, else
    /// inline. Returns the sweeps that died, in view order.
    fn sample_phase(&self, epoch: usize, phase: usize, parallel: bool) -> Vec<(usize, String)> {
        if parallel {
            self.set_step(Some((epoch, phase)));
            self.barrier.wait();
            self.run_lane(0, self.lanes, epoch, phase);
            self.barrier.wait();
        } else {
            self.run_lane(0, 1, epoch, phase);
        }
        let mut failed =
            std::mem::take(&mut *self.failed.lock().unwrap_or_else(PoisonError::into_inner));
        failed.sort();
        failed
    }
}

/// Releases the lanes when the driver leaves the scope — by returning
/// or by unwinding (a panicking checkpoint sink must not leave the
/// lanes parked on the barrier, or the scope would never join them).
struct StopLanes<'a, 'b>(&'a Lanes<'b>);

impl Drop for StopLanes<'_, '_> {
    fn drop(&mut self) {
        if self.0.lanes > 1 {
            self.0.set_step(None);
            self.0.barrier.wait();
        }
    }
}

/// Hands a completed barrier state to the sink, honouring the injected
/// `fail_checkpoint_saves` fault. A failed save never aborts the run: it
/// degrades the outcome and leaves a warning, because losing durability
/// is strictly better than losing the samples already drawn.
fn save_checkpoint(
    ctx: &ExecContext,
    sink: &dyn CheckpointSink,
    state: &CheckpointState,
    warnings: &mut Vec<String>,
    outcome: &mut RunOutcome,
) {
    let prof = sya_obs::profile::start();
    let res = if ctx.take_checkpoint_save_failure() {
        Err("injected fault: checkpoint save failed".to_owned())
    } else {
        sink.save(state)
    };
    sya_obs::profile::stop(sya_obs::profile::Site::CkptWrite, prof);
    if let Err(e) = res {
        warnings.push(format!(
            "checkpoint at epoch {} could not be saved ({e}); the run continues \
             without durability for this barrier",
            state.epoch()
        ));
        *outcome = outcome.combine(RunOutcome::Degraded);
    }
}

/// Conclique-structure gauges: how many concliques the schedule sweeps
/// and how many cells the largest phase holds — the available
/// parallelism.
fn publish_schedule_gauges(obs: &Obs, schedule: &Schedule, k: usize, share: usize) {
    let concliques: HashSet<u8> = schedule.phases.iter().filter_map(|p| p.conclique).collect();
    let widest = schedule.phases.iter().filter(|p| p.conclique.is_some()).map(|p| p.units.len());
    obs.gauge_set("infer.concliques", concliques.len() as f64);
    obs.gauge_set("infer.conclique_max_size", widest.max().unwrap_or(0) as f64);
    obs.gauge_set("infer.instances", k as f64);
    obs.gauge_set("infer.epochs_per_instance", share as f64);
}

/// Sweep-plan gauges: the rows the run's conditionals read, how many of
/// them fall back to a factor's own energy function, their size, and
/// how long the one build took.
fn publish_plan_gauges(obs: &Obs, plan: &SweepPlan<'_>, build: Duration) {
    obs.gauge_set("infer.plan.rows", plan.num_rows() as f64);
    obs.gauge_set("infer.plan.general_rows", plan.num_general_rows() as f64);
    obs.gauge_set("infer.plan.bytes", plan.approx_bytes() as f64);
    obs.gauge_set("infer.plan.build_ms", build.as_secs_f64() * 1e3);
}

/// Runs `schedule` over `graph`: `cfg.instances` boards sharing
/// `cfg.epochs` epochs, counts merged (Algorithm 1 line 16 — marginals
/// are count ratios, so summing is averaging).
///
/// * `init` warm-starts every board (evidence still wins); without it
///   each free variable starts at a derived draw. A restricted schedule
///   conditions on the *frozen* variables' starting values, so callers
///   holding converged marginals pass their argmax here.
/// * With a checkpoint sink, the chain states are saved at the periodic
///   cadence, at the barrier where an interruption stops the run, and
///   at completion. `resume` must carry exactly `cfg.instances` chains
///   of one barrier; the resumed run reproduces the uninterrupted one
///   bit for bit.
/// * A lane that panics has its units re-sampled by the driver
///   (outcome `Degraded`, same counts); an instance that keeps failing
///   is dropped and the marginals average over the survivors. `Err`
///   when none survive or the resume state does not fit.
/// * `owners` deals the units to views ([`Owners`]); `Err(SplitUnit)`
///   when an owner table cuts through a unit. With [`Owners::Held`] the
///   halo hook, not `ctx`, decides when the run stops, and a hook error
///   ends the run with `Err(Cluster)` and no final checkpoint.
#[allow(clippy::too_many_arguments)]
pub fn run_gibbs(
    graph: &FactorGraph,
    schedule: &Schedule,
    cfg: &InferConfig,
    init: Option<&[u32]>,
    ctx: &ExecContext,
    ckpt: CheckpointOptions<'_>,
    resume: Option<Vec<ChainState>>,
    owners: Owners<'_>,
) -> Result<SamplerRun, InferError> {
    let (table, held, mut halo) = match owners {
        Owners::RoundRobin => (None, None, None),
        Owners::Plan(owner) => (Some(owner), None, None),
        Owners::Held { owner, held, halo } => (Some(owner), Some(held), Some(halo)),
    };
    let owns = |v: usize| match (table, held) {
        (Some(owner), Some(me)) => owner[v] == me,
        _ => true,
    };
    // Telemetry folds the variables this process owns; `None` is all.
    let owned: Option<Vec<VarId>> =
        held.map(|_| (0..graph.num_variables()).filter(|&v| owns(v)).map(|v| v as VarId).collect());
    let obs = ctx.obs();
    let k = if held.is_some() { 1 } else { cfg.instances.max(1) };
    let share = (cfg.epochs / k).max(1);
    let burn = cfg.burn_in.min(share - 1);
    let remainder = if cfg.epochs >= k { cfg.epochs % k } else { 0 };
    if obs.is_enabled() {
        publish_schedule_gauges(obs, schedule, k, share);
    }

    let restored = resume
        .map(|chains| {
            if chains.len() != k {
                return Err(format!(
                    "checkpoint has {} instance chains, run configures {k}",
                    chains.len()
                ));
            }
            let chains: Vec<_> =
                chains.into_iter().map(|c| c.restore(graph)).collect::<Result<_, _>>()?;
            if chains.iter().any(|c| c.0 != chains[0].0) {
                return Err("instance chains stopped at different epochs".to_owned());
            }
            Ok(chains)
        })
        .transpose()
        .map_err(|detail| InferError::BadResume { detail })?;
    let start_epoch = restored.as_ref().map_or(0, |chains| chains[0].0);

    let seeds: Vec<u64> =
        (0..k).map(|i| cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let starts: Vec<(Vec<u32>, MarginalCounts, bool)> = match restored {
        Some(chains) => chains.into_iter().map(|(_, a, c, rec)| (a, c, rec)).collect(),
        None => seeds
            .iter()
            .map(|&s| (init_board(graph, s, init), MarginalCounts::new(graph), false))
            .collect(),
    };

    // Lane sizing. None of it can change a count.
    let phase_work: Vec<usize> =
        schedule.phases.iter().map(|p| k * p.units.iter().map(Vec::len).sum::<usize>()).collect();
    let heaviest = phase_work.iter().copied().max().unwrap_or(0);
    let cap = match cfg.workers {
        Some(n) => n.max(1),
        None if heaviest < MIN_PARALLEL_WORK => 1,
        None => std::thread::available_parallelism().map_or(1, |n| n.get().min(4)),
    };
    let widest = schedule.phases.iter().map(|p| p.units.len()).max().unwrap_or(1);
    let (vpb, deal) = deal(schedule, table, held, cap.div_ceil(k).min(widest).max(1))?;
    let lanes = cap.min(k * vpb);
    let wake_lanes: Vec<bool> = phase_work
        .iter()
        .map(|&w| lanes > 1 && (cfg.workers.is_some() || w >= MIN_PARALLEL_WORK))
        .collect();

    let mut boards = Vec::with_capacity(k);
    let mut views = Vec::with_capacity(k * vpb);
    for (assignment, counts, recorded) in starts {
        boards.push(Board {
            counts,
            recorded,
            telemetry: EpochTelemetry::new(owned.as_ref().map_or(graph.num_variables(), Vec::len)),
            epoch_flips: 0,
            epoch_samples: 0,
        });
        views.extend((0..vpb).map(|_| Mutex::new(View::new(assignment.clone()))));
    }
    // One plan for the run, shared by every lane and instance: rows for
    // exactly the variables this process sweeps.
    let built = Instant::now();
    let swept = schedule.units().flatten().copied().filter(|&v| owns(v as usize));
    let plan = SweepPlan::build(graph, swept);
    if obs.is_enabled() {
        publish_plan_gauges(obs, &plan, built.elapsed());
    }
    let pool = Lanes {
        plan,
        schedule,
        ctx,
        views,
        vpb,
        deal,
        seeds,
        epochs: (0..k).map(|i| share + usize::from(i < remainder)).collect(),
        dead: (0..k).map(|_| AtomicBool::new(false)).collect(),
        lanes,
        barrier: Barrier::new(lanes),
        step: Mutex::new(None),
        failed: Mutex::new(Vec::new()),
    };

    let evidence: Vec<(VarId, u32)> = graph
        .variables()
        .iter()
        .filter(|v| owns(v.id as usize))
        .filter_map(|v| v.evidence.map(|e| (v.id, e)))
        .collect();
    let halo_err = |detail| InferError::Cluster { detail };
    let total_epochs = pool.epochs.iter().copied().max().unwrap_or(0);
    let stride = pll_stride(total_epochs);
    let mut outcome = RunOutcome::Completed;
    let mut warnings = Vec::new();
    let mut causes: Vec<Option<String>> = vec![None; k];
    let chain_states = |boards: &[Board], next_epoch: usize| CheckpointState::Run {
        sampler: schedule.kind.to_owned(),
        chains: boards
            .iter()
            .enumerate()
            .map(|(b, board)| ChainState {
                epoch: next_epoch as u64,
                assignment: pool.view(b * vpb).values().to_vec(),
                counts: board.counts.to_rows(),
                recorded: board.recorded,
            })
            .collect(),
    };

    let next_epoch = std::thread::scope(|scope| {
        for lane in 1..lanes {
            let pool = &pool;
            scope.spawn(move || pool.worker(lane));
        }
        let _stop = StopLanes(&pool);
        let mut epoch = start_epoch.min(total_epochs);
        while epoch < total_epochs {
            // Epoch barrier: checked from the second epoch on, so an
            // interrupted run still carries at least one full sweep. A
            // halo hook decided at the end of the last epoch instead.
            if epoch > start_epoch && halo.is_none() {
                if let Some(stop) = ctx.interrupted() {
                    outcome = outcome.combine(stop);
                    break;
                }
            }
            ctx.maybe_slow(Phase::Inference);
            let record = epoch >= burn;
            let epoch_start = obs.is_enabled().then(std::time::Instant::now);
            for (phase, &parallel) in wake_lanes.iter().enumerate() {
                let prof = sya_obs::profile::start();
                let failed = pool.sample_phase(epoch, phase, parallel);
                sya_obs::profile::stop(sya_obs::profile::Site::ConcliqueSweep, prof);
                for (i, msg) in failed {
                    let b = i / vpb;
                    if causes[b].is_some() {
                        continue;
                    }
                    // Redraw the dead sweep here. Streams are derived,
                    // so this reproduces its draws exactly; a sweep that
                    // dies twice takes its instance with it.
                    pool.view(i).reset();
                    outcome = outcome.combine(RunOutcome::Degraded);
                    let retry = AssertUnwindSafe(|| pool.sample_view(i, epoch, phase));
                    if catch_unwind(retry).is_ok() {
                        warnings.push(format!(
                            "a lane sweeping instance {b} panicked at epoch {epoch} ({msg}); \
                             its units were re-sampled sequentially"
                        ));
                    } else {
                        pool.dead[b].store(true, Ordering::Relaxed);
                        warnings.push(format!(
                            "inference instance {b} panicked and was dropped ({msg}); \
                             marginals are averaged over the surviving instances"
                        ));
                        causes[b] = Some(msg);
                    }
                }
                // Phase barrier: land every draw on every view of its
                // board, and this process's own draws in its counts.
                let prof = sya_obs::profile::start();
                for (b, board) in boards.iter_mut().enumerate() {
                    if !pool.active(b, epoch) {
                        continue;
                    }
                    let mut guards: Vec<_> =
                        (b * vpb..(b + 1) * vpb).map(|i| pool.view(i)).collect();
                    let logs: Vec<_> = guards.iter_mut().map(|g| g.take_writes()).collect();
                    let frozen = guards[0].values();
                    let drawn: usize = logs.iter().map(Vec::len).sum();
                    for &(v, x) in logs.iter().flatten() {
                        board.epoch_flips += u64::from(frozen[v as usize] != x);
                        if record {
                            board.counts.record(v, x);
                        }
                    }
                    board.epoch_samples += drawn as u64;
                    if let Some(c) = schedule.phases[phase].conclique {
                        board.telemetry.add_conclique_samples(c as usize, drawn as u64);
                    }
                    for guard in &mut guards {
                        logs.iter().for_each(|log| guard.apply(log));
                    }
                    // A held owner has one view, so `logs[0]` is all of
                    // this process's draws.
                    if let Some(h) = halo.as_mut() {
                        let foreign = h.exchange(epoch, phase, &logs[0]).map_err(halo_err)?;
                        let prof = sya_obs::profile::start();
                        guards[0].apply(&foreign);
                        sya_obs::profile::stop(sya_obs::profile::Site::HaloApply, prof);
                    }
                    for (guard, log) in guards.iter_mut().zip(logs) {
                        guard.recycle(log);
                    }
                }
                sya_obs::profile::stop(sya_obs::profile::Site::HaloPublish, prof);
            }
            let mut stop = None;
            for (b, board) in boards.iter_mut().enumerate() {
                if !pool.active(b, epoch) {
                    continue;
                }
                if record {
                    board.recorded = true;
                    for &(v, e) in &evidence {
                        board.counts.record(v, e);
                    }
                }
                let view = pool.view(b * vpb);
                let (flips, samples) = (board.epoch_flips, board.epoch_samples);
                (board.epoch_flips, board.epoch_samples) = (0, 0);
                let values = view.values();
                let delta = match &owned {
                    None => board.telemetry.end_epoch(
                        flips,
                        samples,
                        values.iter().map(|&x| telemetry_indicator(x)),
                    ),
                    Some(owned) => board.telemetry.end_epoch(
                        flips,
                        samples,
                        owned.iter().map(|&v| telemetry_indicator(values[v as usize])),
                    ),
                };
                // Pseudo-log-likelihood costs about one sweep per
                // evaluation: sampled at a fixed cadence, and only when
                // someone is watching.
                if obs.is_enabled() && epoch.is_multiple_of(stride) {
                    let pll = pseudo_log_likelihood(graph, &values.to_vec());
                    board.telemetry.record_pll(epoch, pll);
                }
                if let Some(h) = halo.as_mut() {
                    let (samples, flips) = board.telemetry.totals();
                    stop = h.end_epoch(epoch, samples, flips, delta).map_err(halo_err)?;
                }
            }
            if let Some(t0) = epoch_start {
                obs.histogram_record("infer.epoch_seconds", t0.elapsed().as_secs_f64());
            }
            epoch += 1;
            if let (Some(sink), true) = (ckpt.sink, ckpt.due(epoch, total_epochs)) {
                // A dropped instance has no state worth resuming.
                if causes.iter().all(Option::is_none) {
                    let state = chain_states(&boards, epoch);
                    save_checkpoint(ctx, sink, &state, &mut warnings, &mut outcome);
                }
            }
            if let Some(stop) = stop {
                outcome = outcome.combine(stop);
                break;
            }
        }
        Ok(epoch)
    })?;

    // Final barrier — completion and interruption both land here: a
    // budget trip or cancellation must not cost the epochs already
    // sampled, and a finished run resumes as a cheap no-op replay.
    if let (Some(sink), true) = (ckpt.sink, causes.iter().all(Option::is_none)) {
        let state = chain_states(&boards, next_epoch);
        save_checkpoint(ctx, sink, &state, &mut warnings, &mut outcome);
    }

    let mut total = MarginalCounts::new(graph);
    let mut series = Vec::new();
    for (b, mut board) in boards.into_iter().enumerate() {
        if causes[b].is_some() {
            continue;
        }
        if !board.recorded {
            // Stopped before any post-burn-in epoch ran: fall back to a
            // single snapshot of the current chain state so callers
            // still receive finite, non-empty marginals.
            for (v, &x) in pool.view(b * vpb).values().iter().enumerate() {
                if owns(v) {
                    board.counts.record(v as VarId, x);
                }
            }
            warnings.push(format!(
                "instance {b} stopped before burn-in finished; its marginals fall back \
                 to a single-state snapshot"
            ));
        }
        total.merge(&board.counts);
        series.push(board.telemetry.finish());
    }
    if series.is_empty() {
        return Err(InferError::AllInstancesFailed {
            instances: k,
            first_cause: causes.into_iter().flatten().next().unwrap_or_else(|| "unknown".into()),
        });
    }
    // Average the per-epoch trajectories over surviving instances,
    // mirroring how the marginal counts themselves are merged.
    let telemetry = ConvergenceSeries::merge_mean(&series);
    telemetry.publish(obs, &format!("infer.{}", schedule.kind));
    Ok(SamplerRun { counts: total, outcome, warnings, telemetry })
}

/// Sequential (single-site) Gibbs sampling — the sampler inside
/// DeepDive: one epoch = one sweep over all query variables in order.
/// Samples before `burn_in` epochs are discarded.
pub fn sequential_gibbs_with(
    graph: &FactorGraph,
    epochs: usize,
    burn_in: usize,
    seed: u64,
    ctx: &ExecContext,
) -> SamplerRun {
    let cfg = InferConfig { epochs, burn_in, seed, instances: 1, ..Default::default() };
    let schedule = Schedule::sequential(graph);
    let ckpt = CheckpointOptions::none();
    run_gibbs(graph, &schedule, &cfg, None, ctx, ckpt, None, Owners::RoundRobin)
        // Without a resume state only a sweep that panics twice can
        // fail the run — a bug that should surface loudly here.
        .unwrap_or_else(|e| panic!("sequential gibbs failed: {e}"))
}

/// Spatial Gibbs Sampling (Algorithm 1) over the whole graph.
pub fn spatial_gibbs_with(
    graph: &FactorGraph,
    pyramid: &PyramidIndex,
    cfg: &InferConfig,
    ctx: &ExecContext,
) -> Result<SamplerRun, InferError> {
    let schedule = Schedule::spatial(graph, pyramid, cfg);
    let ckpt = CheckpointOptions::none();
    run_gibbs(graph, &schedule, cfg, None, ctx, ckpt, None, Owners::RoundRobin)
}

/// Runs a restricted schedule from `init` and reports which variables
/// it re-sampled. Merge the counts into the full counters with
/// [`MarginalCounts::merge_affected`], passing the returned set.
fn resample(
    graph: &FactorGraph,
    schedule: &Schedule,
    cfg: &InferConfig,
    init: Option<&[u32]>,
) -> (MarginalCounts, HashSet<VarId>) {
    let ctx = ExecContext::unbounded();
    let ckpt = CheckpointOptions::none();
    let run = run_gibbs(graph, schedule, cfg, init, &ctx, ckpt, None, Owners::RoundRobin)
        .unwrap_or_else(|e| panic!("restricted gibbs failed under an unbounded context: {e}"));
    (run.counts, schedule.units().flatten().copied().collect())
}

/// Incremental inference (paper §II / Fig. 13a): after updates to the
/// `changed` variables, re-runs Spatial Gibbs restricted to the pyramid
/// cells that contain them or their Markov-blanket neighbours, at
/// exactly the levels the sweep mode visits.
///
/// `init` is the warm starting assignment (one value per variable, e.g.
/// the current marginal argmax). The restricted sweep conditions on the
/// values of every variable *outside* the affected cells, so callers
/// that hold converged marginals should always pass them: random
/// surroundings bias the affected region toward states the converged
/// chain never visits. The run executes inside an `infer.incremental`
/// span on `obs` and bumps `infer.incremental.{resampled_vars,
/// cells_touched}`.
pub fn incremental_spatial_gibbs(
    graph: &FactorGraph,
    pyramid: &PyramidIndex,
    changed: &[VarId],
    cfg: &InferConfig,
    init: Option<&[u32]>,
    obs: &Obs,
) -> (MarginalCounts, HashSet<VarId>) {
    let mut span = obs.span("infer.incremental");
    let mut affected: HashSet<VarId> = changed.iter().copied().collect();
    for &v in changed {
        affected.extend(graph.neighbours(v));
    }
    let schedule = Schedule::spatial_where(graph, pyramid, cfg, |atoms| {
        atoms.iter().any(|v| affected.contains(v))
    });
    let (counts, resampled) = resample(graph, &schedule, cfg, init);
    let cells = schedule.units().count();
    span.set_attr("changed", changed.len());
    span.set_attr("cells", cells);
    span.set_attr("resampled", resampled.len());
    obs.counter_add("infer.incremental.cells_touched", cells as u64);
    obs.counter_add("infer.incremental.resampled_vars", resampled.len() as u64);
    (counts, resampled)
}

/// The DeepDive-style incremental comparator: without a spatial index
/// there is no principled way to bound how far an update propagates, so
/// the affected set is the *transitive closure* of factor adjacency from
/// the changed variables, re-sampled as one sequential unit. Sya's
/// pyramid/conclique restriction is exactly what avoids this blow-up
/// (paper Fig. 13a).
pub fn incremental_sequential_gibbs(
    graph: &FactorGraph,
    changed: &[VarId],
    epochs: usize,
    burn_in: usize,
    seed: u64,
) -> (MarginalCounts, HashSet<VarId>) {
    let mut affected: HashSet<VarId> = changed.iter().copied().collect();
    let mut frontier: Vec<VarId> = changed.to_vec();
    while let Some(v) = frontier.pop() {
        for u in graph.neighbours(v) {
            if affected.insert(u) {
                frontier.push(u);
            }
        }
    }
    let unit = graph.query_variables().into_iter().filter(|v| affected.contains(v)).collect();
    let phases = vec![crate::schedule::Phase { conclique: None, units: vec![unit] }];
    let schedule = Schedule { kind: "sequential", phases };
    let cfg = InferConfig { epochs, burn_in, seed, instances: 1, ..Default::default() };
    resample(graph, &schedule, &cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{chain_graph, grid_graph, line_graph};
    use sya_fg::{Factor, FactorKind, Variable};
    use sya_runtime::{FaultPlan, RunBudget};

    fn unbounded() -> ExecContext {
        ExecContext::unbounded()
    }

    fn spatial(g: &FactorGraph, levels: u8, cfg: &InferConfig, ctx: &ExecContext) -> SamplerRun {
        let pyramid = PyramidIndex::build(g, levels, 64);
        spatial_gibbs_with(g, &pyramid, cfg, ctx).unwrap()
    }

    fn cfg(epochs: usize, instances: usize, levels: u8) -> InferConfig {
        InferConfig {
            epochs,
            instances,
            levels,
            locality_level: levels,
            burn_in: 0,
            seed: 11,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_given_seed_and_sensitive_to_it() {
        let g = chain_graph();
        let a = sequential_gibbs_with(&g, 200, 20, 9, &unbounded());
        let b = sequential_gibbs_with(&g, 200, 20, 9, &unbounded());
        assert_eq!(a.outcome, RunOutcome::Completed);
        assert!(a.warnings.is_empty());
        assert_eq!(a.counts, b.counts);
        let c = sequential_gibbs_with(&g, 200, 20, 10, &unbounded());
        assert_ne!(a.counts, c.counts, "different seeds should differ");
    }

    #[test]
    fn burn_in_discards_samples_and_evidence_stays_clamped() {
        let g = chain_graph();
        let counts = sequential_gibbs_with(&g, 100, 40, 3, &unbounded()).counts;
        assert_eq!(counts.total_samples(1), 60);
        assert_eq!(counts.factual_score(0), 1.0);
    }

    #[test]
    fn no_query_variables_is_fine() {
        let mut g = FactorGraph::new();
        g.add_variable(Variable::binary(0, "e").with_evidence(1));
        let counts = sequential_gibbs_with(&g, 10, 0, 1, &unbounded()).counts;
        assert_eq!(counts.factual_score(0), 1.0);
    }

    #[test]
    fn deadline_returns_timed_out_snapshot() {
        let ctx = ExecContext::new(RunBudget::unlimited().with_deadline(std::time::Duration::ZERO));
        // Huge epoch count with a zero deadline: stops after one epoch,
        // before burn-in, so the snapshot fallback kicks in.
        let g = chain_graph();
        let run = sequential_gibbs_with(&g, usize::MAX / 2, 500, 42, &ctx);
        assert_eq!(run.outcome, RunOutcome::TimedOut);
        assert!(run.warnings.iter().any(|w| w.contains("single-state snapshot")));
        let g = grid_graph(3, 0.8);
        let mut cfg = cfg(usize::MAX / 2, 2, 3);
        cfg.burn_in = 100;
        let spatial_run = spatial(&g, 3, &cfg, &ctx);
        assert_eq!(spatial_run.outcome, RunOutcome::TimedOut);
        for (graph, run) in [(chain_graph(), run), (g, spatial_run)] {
            for v in graph.query_variables() {
                assert!(run.counts.total_samples(v) > 0, "var {v} has no samples");
                assert!(run.counts.factual_score(v).is_finite());
            }
        }
    }

    #[test]
    fn cancellation_stops_at_the_next_epoch_barrier() {
        let g = grid_graph(3, 0.8);
        let ctx = unbounded();
        ctx.token().cancel();
        let run = spatial(&g, 3, &cfg(usize::MAX / 2, 1, 3), &ctx);
        assert_eq!(run.outcome, RunOutcome::Cancelled);
        assert_eq!(run.telemetry.epochs, 1, "the first epoch always runs");
        for v in g.query_variables() {
            assert_eq!(run.counts.total_samples(v), 1);
        }
    }

    #[test]
    fn telemetry_tracks_epochs_and_publishes_when_observed() {
        let g = chain_graph();
        let run = sequential_gibbs_with(&g, 50, 10, 42, &unbounded());
        assert_eq!(run.telemetry.epochs, 50);
        assert_eq!(run.telemetry.flip_rate.len(), 50);
        assert_eq!(run.telemetry.marginal_delta.len(), 50);
        assert_eq!(run.telemetry.samples_total, 50 * g.query_variables().len() as u64);
        assert!(run.telemetry.flip_rate.iter().all(|r| (0.0..=1.0).contains(r)));
        // Running-mean deltas shrink like 1/t as the estimate stabilises.
        assert!(run.telemetry.marginal_delta[49] <= 0.05);
        // No observer attached: the costly pseudo-log-likelihood is skipped.
        assert!(run.telemetry.pll.is_empty());

        let obs = Obs::enabled();
        let ctx = unbounded().with_obs(obs.clone());
        let run = sequential_gibbs_with(&g, 64, 0, 42, &ctx);
        // pll_stride(64) == 1: one evaluation per epoch.
        assert_eq!(run.telemetry.pll.len(), 64);
        assert!(run.telemetry.pll.iter().all(|(_, v)| v.is_finite()));
        let m = obs.metrics().unwrap();
        assert_eq!(m.series("infer.sequential.flip_rate").unwrap().len(), 64);
        assert_eq!(m.series("infer.sequential.marginal_delta").unwrap().len(), 64);
        assert_eq!(m.series("infer.sequential.pll").unwrap().len(), 64);
        assert_eq!(
            m.counter_value("infer.sequential.samples_total"),
            Some(run.telemetry.samples_total)
        );
        assert_eq!(m.gauge_value("infer.sequential.epochs"), Some(64.0));
        assert!(m.snapshot().histograms.contains_key("infer.epoch_seconds"));
    }

    #[test]
    fn spatial_telemetry_credits_concliques_and_averages_instances() {
        let g = grid_graph(3, 0.8);
        let run = spatial(&g, 3, &cfg(40, 2, 3), &unbounded());
        assert_eq!(run.telemetry.epochs, 20);
        assert_eq!(run.telemetry.flip_rate.len(), 20);
        assert!(run.telemetry.samples_total > 0);
        let located: u64 = run.telemetry.conclique_samples.iter().sum();
        assert_eq!(located, run.telemetry.samples_total, "all grid vars are located");
    }

    #[test]
    fn schedule_gauges_match_cover_ground_truth() {
        let g = grid_graph(4, 0.8);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let obs = Obs::enabled();
        let ctx = unbounded().with_obs(obs.clone());
        let run = spatial_gibbs_with(&g, &pyramid, &cfg(20, 1, 2), &ctx).unwrap();
        let cover = crate::min_conclique_cover(&pyramid.sampling_cells(2));
        let m = obs.metrics().unwrap();
        assert_eq!(m.gauge_value("infer.concliques"), Some(cover.len() as f64));
        let max_cells = cover.iter().map(|(_, c)| c.len()).max().unwrap();
        assert_eq!(m.gauge_value("infer.conclique_max_size"), Some(max_cells as f64));
        assert_eq!(m.gauge_value("infer.instances"), Some(1.0));
        for (q, _) in &cover {
            assert!(run.telemetry.conclique_samples[q.0 as usize] > 0);
        }
    }

    #[test]
    fn unlocated_variables_are_sampled_too() {
        let mut g = grid_graph(2, 0.8);
        let floating = g.add_variable(Variable::binary(0, "floating"));
        g.add_factor(Factor::new(FactorKind::IsTrue, vec![floating], 2.0));
        let counts = spatial(&g, 3, &cfg(200, 2, 3), &unbounded()).counts;
        assert_eq!(counts.total_samples(floating), 200);
    }

    #[test]
    fn instances_share_the_epoch_budget_including_the_remainder() {
        let g = grid_graph(2, 0.8);
        let v = g.query_variables()[0];
        for (epochs, instances, burn_in) in [(100, 1, 0), (100, 4, 0), (10, 4, 0), (11, 3, 2)] {
            let cfg = InferConfig { burn_in, ..cfg(epochs, instances, 2) };
            let run = spatial(&g, 2, &cfg, &unbounded());
            // E epochs overall, minus each instance's burn-in share.
            let want = (epochs - instances * burn_in) as u64;
            assert_eq!(run.counts.total_samples(v), want, "E={epochs} K={instances}");
            assert_eq!(run.telemetry.epochs, epochs.div_ceil(instances));
        }
    }

    /// The determinism contract at the driver level: lanes, views per
    /// board and inline phases are invisible in the counts.
    #[test]
    fn counts_are_identical_for_every_worker_count() {
        let g = grid_graph(8, 0.4);
        for instances in [1, 4] {
            let base = InferConfig { burn_in: 5, ..cfg(60, instances, 3) };
            let reference = spatial(&g, 3, &base, &unbounded()).counts;
            for workers in [Some(1), Some(2), Some(3), Some(4), Some(16)] {
                let run = spatial(&g, 3, &InferConfig { workers, ..base.clone() }, &unbounded());
                assert_eq!(run.counts, reference, "workers={workers:?} instances={instances}");
            }
        }
    }

    #[test]
    fn injected_instance_panic_drops_the_instance() {
        let g = grid_graph(3, 0.8);
        let cfg = InferConfig { burn_in: 100, ..cfg(8000, 2, 3) };
        let clean = spatial(&g, 3, &cfg, &unbounded()).counts;
        let plan = FaultPlan { panic_instances: vec![1], panic_at_epoch: 10, ..FaultPlan::none() };
        let run = spatial(&g, 3, &cfg, &unbounded().with_faults(plan));
        assert_eq!(run.outcome, RunOutcome::Degraded);
        assert!(run.warnings.iter().any(|w| w.contains("instance 1")), "{:?}", run.warnings);
        // Dropping one of two instances halves the samples but keeps the
        // count-ratio marginals close to the clean run.
        for v in g.query_variables() {
            assert_eq!(run.counts.total_samples(v) * 2, clean.total_samples(v));
            let diff = (run.counts.factual_score(v) - clean.factual_score(v)).abs();
            assert!(diff < 0.1, "var {v}: degraded vs clean differ by {diff}");
        }
    }

    #[test]
    fn injected_lane_panic_is_resampled_with_identical_counts() {
        // 8×8 grid, shallow pyramid: level-2 concliques hold several
        // cells, and two forced workers put a real thread on the sweep.
        let g = grid_graph(8, 0.8);
        for schedule_of in [
            |g: &FactorGraph| Schedule::spatial(g, &PyramidIndex::build(g, 2, 64), &cfg(1, 1, 2)),
            |g: &FactorGraph| Schedule::random_buckets(g, 4, 7),
        ] {
            let schedule = schedule_of(&g);
            let cfg = InferConfig { burn_in: 20, workers: Some(2), ..cfg(100, 1, 2) };
            let run = |ctx: &ExecContext| {
                let ckpt = CheckpointOptions::none();
                run_gibbs(&g, &schedule, &cfg, None, ctx, ckpt, None, Owners::RoundRobin).unwrap()
            };
            let clean = run(&unbounded());
            let plan = FaultPlan {
                panic_worker_in_instance: Some(0),
                panic_at_epoch: 5,
                ..FaultPlan::none()
            };
            let faulty = run(&unbounded().with_faults(plan));
            assert_eq!(faulty.outcome, RunOutcome::Degraded);
            assert!(
                faulty.warnings.iter().any(|w| w.contains("re-sampled sequentially")),
                "{:?}",
                faulty.warnings
            );
            assert_eq!(faulty.counts, clean.counts, "the re-sample redraws the same values");
        }
    }

    /// A halo over in-memory channels: send this process's draws,
    /// receive the other's.
    struct ChannelHalo {
        tx: std::sync::mpsc::Sender<Vec<(VarId, u32)>>,
        rx: std::sync::mpsc::Receiver<Vec<(VarId, u32)>>,
    }

    impl Halo for ChannelHalo {
        fn exchange(
            &mut self,
            _: usize,
            _: usize,
            own: &[(VarId, u32)],
        ) -> Result<Vec<(VarId, u32)>, String> {
            self.tx.send(own.to_vec()).map_err(|e| e.to_string())?;
            self.rx.recv().map_err(|e| e.to_string())
        }

        fn end_epoch(
            &mut self,
            _: usize,
            _: u64,
            _: u64,
            _: f64,
        ) -> Result<Option<RunOutcome>, String> {
            Ok(None)
        }
    }

    /// Keeps every checkpoint state in memory.
    #[derive(Default)]
    struct Keep(Mutex<Vec<CheckpointState>>);

    impl CheckpointSink for Keep {
        fn save(&self, state: &CheckpointState) -> Result<(), String> {
            self.0.lock().unwrap().push(state.clone());
            Ok(())
        }
    }

    /// Two processes, each holding half the owners and joined by a
    /// channel halo, sum to the one-process run bit for bit — straight
    /// through and resumed from their mid-run checkpoints.
    #[test]
    fn held_owners_joined_by_a_halo_sum_to_the_single_process_run() {
        let g = grid_graph(6, 0.6);
        let pyramid = PyramidIndex::build(&g, 3, 64);
        let cfg = InferConfig { burn_in: 10, ..cfg(60, 1, 3) };
        let schedule = Schedule::spatial(&g, &pyramid, &cfg);
        let reference = spatial_gibbs_with(&g, &pyramid, &cfg, &unbounded()).unwrap().counts;
        // Whole units dealt alternately; evidence stays with owner 0.
        let mut owner = vec![0u32; g.num_variables()];
        for (u, unit) in schedule.units().enumerate() {
            unit.iter().for_each(|&v| owner[v as usize] = (u % 2) as u32);
        }
        type Process = (MarginalCounts, Vec<CheckpointState>);
        let pair = |resume: [Option<ChainState>; 2]| -> Vec<Process> {
            let (tx0, rx1) = std::sync::mpsc::channel();
            let (tx1, rx0) = std::sync::mpsc::channel();
            let halos = [ChannelHalo { tx: tx0, rx: rx0 }, ChannelHalo { tx: tx1, rx: rx1 }];
            let (g, schedule, cfg, owner) = (&g, &schedule, &cfg, &owner);
            std::thread::scope(|s| {
                let procs: Vec<_> = halos
                    .into_iter()
                    .zip(resume)
                    .enumerate()
                    .map(|(me, (mut halo, resume))| {
                        s.spawn(move || {
                            let keep = Keep::default();
                            let ckpt = CheckpointOptions::to_sink(&keep, 20);
                            let owners = Owners::Held { owner, held: me as u32, halo: &mut halo };
                            let resume = resume.map(|c| vec![c]);
                            let ctx = unbounded();
                            let run = run_gibbs(g, schedule, cfg, None, &ctx, ckpt, resume, owners);
                            (run.unwrap().counts, keep.0.into_inner().unwrap())
                        })
                    })
                    .collect();
                procs.into_iter().map(|p| p.join().unwrap()).collect()
            })
        };
        let merged = |runs: &[Process]| {
            let mut total = runs[0].0.clone();
            total.merge(&runs[1].0);
            total
        };
        let straight = pair([None, None]);
        assert_eq!(merged(&straight), reference);
        for (me, (counts, _)) in straight.iter().enumerate() {
            for v in (0..g.num_variables()).filter(|&v| owner[v] != me as u32) {
                assert_eq!(counts.total_samples(v as VarId), 0, "process {me} recorded v{v}");
            }
        }
        let at_20 = |me: usize| match straight[me].1.iter().find(|s| s.epoch() == 20) {
            Some(CheckpointState::Run { chains, .. }) => Some(chains[0].clone()),
            other => panic!("no epoch-20 chain for process {me}: {other:?}"),
        };
        assert_eq!(merged(&pair([at_20(0), at_20(1)])), reference);
    }

    #[test]
    fn all_instances_failing_is_an_error() {
        let g = grid_graph(2, 0.8);
        let pyramid = PyramidIndex::build(&g, 2, 64);
        let plan =
            FaultPlan { panic_instances: vec![0, 1], panic_at_epoch: 0, ..FaultPlan::none() };
        let ctx = unbounded().with_faults(plan);
        let err = spatial_gibbs_with(&g, &pyramid, &cfg(100, 2, 2), &ctx).unwrap_err();
        let InferError::AllInstancesFailed { instances, first_cause } = err else {
            panic!("expected AllInstancesFailed, got {err}");
        };
        assert_eq!(instances, 2);
        assert!(first_cause.contains("injected fault"), "{first_cause}");
    }

    #[test]
    fn resume_rejects_states_that_do_not_fit() {
        let g = chain_graph();
        let schedule = Schedule::sequential(&g);
        let chain = |epoch| ChainState {
            epoch,
            assignment: vec![1, 0, 0],
            counts: MarginalCounts::new(&g).to_rows(),
            recorded: false,
        };
        let run = |cfg: &InferConfig, chains| {
            let ckpt = CheckpointOptions::none();
            run_gibbs(&g, &schedule, cfg, None, &unbounded(), ckpt, chains, Owners::RoundRobin)
        };
        let err = run(&cfg(10, 1, 1), Some(vec![chain(2), chain(2)])).unwrap_err();
        assert!(matches!(err, InferError::BadResume { .. }), "{err}");
        let err = run(&cfg(10, 2, 1), Some(vec![chain(2), chain(3)])).unwrap_err();
        assert!(err.to_string().contains("different epochs"), "{err}");
        let mut bad = chain(2);
        bad.assignment[0] = 0; // contradicts the evidence
        assert!(run(&cfg(10, 1, 1), Some(vec![bad])).is_err());
        assert!(run(&cfg(10, 1, 1), Some(vec![chain(2)])).is_ok());
    }

    fn incremental(
        g: &FactorGraph,
        levels: u8,
        changed: &[VarId],
        epochs: usize,
    ) -> (MarginalCounts, HashSet<VarId>) {
        let pyramid = PyramidIndex::build(g, levels, 64);
        let cfg = InferConfig { burn_in: 20, ..cfg(epochs, 1, levels) };
        incremental_spatial_gibbs(g, &pyramid, changed, &cfg, None, &Obs::disabled())
    }

    #[test]
    fn only_affected_cells_are_resampled() {
        let g = line_graph(16);
        let (counts, resampled) = incremental(&g, 4, &[15], 200);
        // The far end (v15, neighbour v14) is affected; v1 is not.
        assert!(resampled.contains(&15) && resampled.contains(&14));
        assert!(counts.total_samples(15) > 0);
        assert_eq!(counts.total_samples(1), 0, "unaffected variables are never sampled");
        assert!(resampled.len() < 16);
        let (_, more) = incremental(&g, 4, &[2, 8, 14], 50);
        assert!(more.len() > resampled.len(), "a wider change set grows the region");
        let (counts, none) = incremental(&g, 4, &[], 50);
        assert!(none.is_empty());
        assert!(g.query_variables().iter().all(|&v| counts.total_samples(v) == 0));
    }

    #[test]
    fn observed_incremental_run_records_counters_and_span() {
        let g = line_graph(16);
        let pyramid = PyramidIndex::build(&g, 4, 64);
        let obs = Obs::enabled();
        let cfg = InferConfig { burn_in: 20, ..cfg(50, 1, 4) };
        let (_, resampled) = incremental_spatial_gibbs(&g, &pyramid, &[15], &cfg, None, &obs);
        let m = obs.metrics().unwrap();
        assert_eq!(
            m.counter_value("infer.incremental.resampled_vars"),
            Some(resampled.len() as u64)
        );
        assert!(m.counter_value("infer.incremental.cells_touched").unwrap() > 0);
        assert!(obs.trace_snapshot().spans.iter().any(|s| s.name == "infer.incremental"));
    }

    #[test]
    fn sequential_comparator_resamples_the_transitive_closure() {
        let g = line_graph(8);
        let (counts, resampled) = incremental_sequential_gibbs(&g, &[7], 50, 10, 1);
        // Everything chains to everything on a line; evidence excluded.
        assert_eq!(resampled.len(), 7);
        assert_eq!(counts.total_samples(3), 40);
    }
}
