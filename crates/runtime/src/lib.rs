//! Resilient execution layer for the Sya pipeline.
//!
//! Knowledge-base construction is a long-running job: a bad rule set
//! can ground an unbounded number of factors (the paper's Fig. 10
//! step-function blow-up), and inference spins worker threads for
//! minutes. Production KBC systems (DeepDive, Tuffy) therefore treat
//! *resource governance* as a first-class concern: bounded memory,
//! bounded time, and degraded-but-correct answers instead of aborts.
//!
//! This crate is the bottom layer of that posture, shared by
//! `sya-ground` and `sya-infer` and re-exported by `sya-core`:
//!
//! - [`RunBudget`] — declarative limits (wall-clock deadline, max
//!   ground factors / variables, max estimated memory).
//! - [`CancellationToken`] — cooperative cancellation; samplers stop at
//!   the next epoch barrier, the grounder at the next rule checkpoint.
//! - [`RunOutcome`] — how a run ended (`Completed`, `Degraded`,
//!   `TimedOut`, `Cancelled`); partial results carry the outcome
//!   instead of being thrown away.
//! - [`BudgetExceeded`] — structured hard-limit violation.
//! - [`FaultPlan`] / [`ExecContext`] — a deterministic fault-injection
//!   harness (worker panics, slowdowns, budget pressure) used by the
//!   robustness test-suite to prove each degradation path.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use sya_obs::{Obs, Severity};

// ------------------------------------------------------------- phase

/// Pipeline phase, for error attribution and targeted fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    Grounding,
    Inference,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Grounding => f.write_str("grounding"),
            Phase::Inference => f.write_str("inference"),
        }
    }
}

// ------------------------------------------------------------ budget

/// Declarative resource limits for one construction run.
///
/// `None` means unlimited. The deadline is *graceful*: the run stops at
/// the next checkpoint and returns partial results tagged
/// [`RunOutcome::TimedOut`]. The count/memory limits are *hard*: they
/// abort grounding with [`BudgetExceeded`] before the blow-up happens.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunBudget {
    /// Wall-clock limit for the whole run (grounding + inference).
    pub deadline: Option<Duration>,
    /// Maximum ground factors (logical + spatial) the grounder may emit.
    pub max_factors: Option<u64>,
    /// Maximum ground variables (atoms) the grounder may instantiate.
    pub max_variables: Option<u64>,
    /// Maximum estimated factor-graph memory, in bytes.
    pub max_memory_bytes: Option<u64>,
}

impl RunBudget {
    /// No limits — the default for library callers.
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn with_max_factors(mut self, n: u64) -> Self {
        self.max_factors = Some(n);
        self
    }

    pub fn with_max_variables(mut self, n: u64) -> Self {
        self.max_variables = Some(n);
        self
    }

    pub fn with_max_memory_bytes(mut self, n: u64) -> Self {
        self.max_memory_bytes = Some(n);
        self
    }

    pub fn is_unlimited(&self) -> bool {
        *self == RunBudget::default()
    }
}

/// Which budgeted resource a [`BudgetExceeded`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    Factors,
    Variables,
    MemoryBytes,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Factors => f.write_str("ground factors"),
            Resource::Variables => f.write_str("ground variables"),
            Resource::MemoryBytes => f.write_str("estimated memory bytes"),
        }
    }
}

/// A hard budget violation: the run is aborted, not degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    pub phase: Phase,
    pub resource: Resource,
    pub limit: u64,
    pub observed: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} budget exceeded during {}: observed {} > limit {}",
            self.resource, self.phase, self.observed, self.limit
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Point-in-time resource usage checked against a [`RunBudget`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ResourceUsage {
    pub factors: u64,
    pub variables: u64,
    pub memory_bytes: u64,
}

// ------------------------------------------------------ cancellation

/// A cooperative cancellation flag shared between a run and its caller.
///
/// Cloning is cheap (an `Arc<AtomicBool>`); all clones observe the same
/// flag. Workers poll [`is_cancelled`](Self::is_cancelled) at epoch
/// barriers / rule checkpoints, so cancellation latency is one
/// checkpoint interval, not instantaneous.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    pub fn new() -> Self {
        CancellationToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

// ----------------------------------------------------------- outcome

/// How a construction run ended. Ordered by severity: combining
/// outcomes (e.g. grounding's with inference's) keeps the worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum RunOutcome {
    /// Everything ran to completion.
    #[default]
    Completed,
    /// Completed, but with degraded fidelity — e.g. a panicked sampler
    /// instance was dropped from the count average.
    Degraded,
    /// The wall-clock deadline fired; results are partial.
    TimedOut,
    /// The caller cancelled; results are partial.
    Cancelled,
}

impl RunOutcome {
    /// The more severe of two outcomes.
    #[must_use]
    pub fn combine(self, other: RunOutcome) -> RunOutcome {
        self.max(other)
    }

    /// True when the run stopped before its configured work was done
    /// (deadline or cancellation — not mere degradation).
    pub fn is_partial(&self) -> bool {
        matches!(self, RunOutcome::TimedOut | RunOutcome::Cancelled)
    }

    pub fn is_completed(&self) -> bool {
        *self == RunOutcome::Completed
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Completed => f.write_str("completed"),
            RunOutcome::Degraded => f.write_str("degraded"),
            RunOutcome::TimedOut => f.write_str("timed-out"),
            RunOutcome::Cancelled => f.write_str("cancelled"),
        }
    }
}

// ------------------------------------------------------------ faults

/// Deterministic fault-injection plan. Empty (the default) injects
/// nothing; tests construct targeted plans to force each degradation
/// path without any timing dependence.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Sampler instances (by index) that panic on reaching
    /// [`panic_at_epoch`](Self::panic_at_epoch).
    pub panic_instances: Vec<usize>,
    /// Epoch at which `panic_instances` fire.
    pub panic_at_epoch: usize,
    /// Panic one parallel cell-worker chunk of this instance (at
    /// `panic_at_epoch`). Fires once per context — the sequential
    /// re-run of the failed cells is allowed to succeed.
    pub panic_worker_in_instance: Option<usize>,
    /// Sleep this long at every checkpoint of the given phase —
    /// simulates stragglers / overload so deadline paths can be tested
    /// with realistic-looking slowness.
    pub slowdown: Option<(Phase, Duration)>,
    /// Inflates the observed factor count at grounding checkpoints —
    /// simulates budget pressure without materialising factors.
    pub factor_pressure: u64,
    /// Makes the first `n` checkpoint saves fail — simulates a full or
    /// read-only checkpoint directory so the degrade-don't-abort path
    /// can be tested without touching the filesystem.
    pub fail_checkpoint_saves: usize,
    /// Kill cluster shard worker `(shard, epoch)`: the worker drops its
    /// coordinator socket and dies mid-epoch, exercising the
    /// supervisor's crash-detection → restart-from-checkpoint path.
    /// Fires once per context; launchers must not forward it to a
    /// restarted worker.
    pub kill_worker: Option<(usize, usize)>,
    /// Stall cluster shard worker `(shard, epoch)` for the duration
    /// before it publishes — trips the coordinator's heartbeat deadline
    /// without the worker actually dying.
    pub stall_worker: Option<(usize, usize, Duration)>,
    /// Make cluster shard worker `(shard, epoch)` emit a deliberately
    /// CRC-broken frame — exercises the coordinator's corrupt-frame
    /// rejection path.
    pub corrupt_frame: Option<(usize, usize)>,
}

impl FaultPlan {
    pub fn none() -> Self {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.panic_instances.is_empty()
            && self.panic_worker_in_instance.is_none()
            && self.slowdown.is_none()
            && self.factor_pressure == 0
            && self.fail_checkpoint_saves == 0
            && self.kill_worker.is_none()
            && self.stall_worker.is_none()
            && self.corrupt_frame.is_none()
    }
}

// ----------------------------------------------------------- backoff

/// Deterministic exponential backoff: `base × 2^attempt`, saturating at
/// `max`. The cluster supervisor sleeps this long before relaunching a
/// failed worker, so a crash-looping shard cannot hot-spin the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    pub base: Duration,
    pub max: Duration,
}

impl Backoff {
    pub fn new(base: Duration, max: Duration) -> Self {
        Backoff { base, max }
    }

    /// Delay before restart attempt `attempt` (0-based: the first
    /// restart waits `base`).
    pub fn delay(&self, attempt: u32) -> Duration {
        let mult = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base.checked_mul(mult).unwrap_or(self.max).min(self.max)
    }

    /// [`delay`](Self::delay) scaled by a deterministic, seed-derived
    /// jitter factor in `[0.5, 1.0]`. Workers that crashed at the same
    /// instant (a died coordinator host, a shared OOM) would otherwise
    /// all sleep the same exponential delay and restart in lockstep —
    /// the thundering herd. Seeding with the shard index keeps restart
    /// schedules reproducible while spreading them apart.
    pub fn delay_jittered(&self, attempt: u32, seed: u64) -> Duration {
        let d = self.delay(attempt);
        let h = splitmix64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 32),
        );
        // 53 uniform bits → a factor in [0.5, 1.0): never less than half
        // the nominal delay (a crash loop must still back off), never
        // more than `delay` (the budgeted worst case stays the bound).
        let frac = 0.5 + 0.5 * ((h >> 11) as f64 / (1u64 << 53) as f64);
        d.mul_f64(frac).min(self.max)
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mix used to turn
/// `(seed, attempt)` into an independent jitter stream.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff { base: Duration::from_millis(250), max: Duration::from_secs(10) }
    }
}

// ----------------------------------------------------------- context

/// Execution context threaded through grounding and inference: budget,
/// start time, cancellation token, observability handle, and the fault
/// plan. Shared by reference across worker threads (`Sync`).
#[derive(Debug)]
pub struct ExecContext {
    budget: RunBudget,
    start: Instant,
    token: CancellationToken,
    obs: Obs,
    faults: FaultPlan,
    /// Once-latch for [`FaultPlan::panic_worker_in_instance`].
    worker_panic_fired: AtomicBool,
    /// Count-down for [`FaultPlan::fail_checkpoint_saves`].
    ckpt_failures_fired: AtomicUsize,
    /// Once-latches for the cluster worker faults: a rollback may
    /// replay the fault's epoch in the same context, and the fault must
    /// not re-fire.
    kill_worker_fired: AtomicBool,
    stall_worker_fired: AtomicBool,
    corrupt_frame_fired: AtomicBool,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::new(RunBudget::unlimited())
    }
}

impl ExecContext {
    pub fn new(budget: RunBudget) -> Self {
        ExecContext {
            budget,
            start: Instant::now(),
            token: CancellationToken::new(),
            obs: Obs::disabled(),
            faults: FaultPlan::none(),
            worker_panic_fired: AtomicBool::new(false),
            ckpt_failures_fired: AtomicUsize::new(0),
            kill_worker_fired: AtomicBool::new(false),
            stall_worker_fired: AtomicBool::new(false),
            corrupt_frame_fired: AtomicBool::new(false),
        }
    }

    /// A context with no limits, no token, no faults.
    pub fn unbounded() -> Self {
        ExecContext::default()
    }

    /// Uses an externally owned token (e.g. handed to another thread
    /// that may cancel this run).
    #[must_use]
    pub fn with_token(mut self, token: CancellationToken) -> Self {
        self.token = token;
        self
    }

    /// Installs a fault-injection plan (tests only, but safe anywhere —
    /// an empty plan injects nothing).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches an observability handle; grounding and inference record
    /// metrics, spans, and events through it. The default is the
    /// disabled (no-op) handle.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The observability handle (disabled unless one was attached).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    pub fn token(&self) -> &CancellationToken {
        &self.token
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Remaining wall-clock budget; `None` when no deadline is set.
    pub fn remaining(&self) -> Option<Duration> {
        self.budget.deadline.map(|d| d.saturating_sub(self.elapsed()))
    }

    /// Checks the graceful interruption conditions (cancellation wins
    /// over deadline when both hold). Workers call this at epoch
    /// barriers / rule checkpoints and stop cleanly on `Some`.
    pub fn interrupted(&self) -> Option<RunOutcome> {
        if self.token.is_cancelled() {
            return Some(RunOutcome::Cancelled);
        }
        match self.budget.deadline {
            Some(d) if self.start.elapsed() >= d => Some(RunOutcome::TimedOut),
            _ => None,
        }
    }

    /// Checks hard resource limits; called from grounding checkpoints.
    /// Budget-pressure faults inflate the observed factor count. Every
    /// check increments `runtime.budget_checks_total`; a trip emits a
    /// `warn` trace event and bumps `runtime.budget_trips_total`.
    pub fn check_resources(
        &self,
        phase: Phase,
        usage: ResourceUsage,
    ) -> Result<(), BudgetExceeded> {
        self.obs.counter_add("runtime.budget_checks_total", 1);
        self.check_resources_inner(phase, usage).map_err(|err| {
            self.obs.counter_add("runtime.budget_trips_total", 1);
            self.obs.warn(format!("budget trip: {err}"));
            err
        })
    }

    fn check_resources_inner(
        &self,
        phase: Phase,
        usage: ResourceUsage,
    ) -> Result<(), BudgetExceeded> {
        let observed_factors = usage.factors + self.faults.factor_pressure;
        if let Some(limit) = self.budget.max_factors {
            if observed_factors > limit {
                return Err(BudgetExceeded {
                    phase,
                    resource: Resource::Factors,
                    limit,
                    observed: observed_factors,
                });
            }
        }
        if let Some(limit) = self.budget.max_variables {
            if usage.variables > limit {
                return Err(BudgetExceeded {
                    phase,
                    resource: Resource::Variables,
                    limit,
                    observed: usage.variables,
                });
            }
        }
        if let Some(limit) = self.budget.max_memory_bytes {
            if usage.memory_bytes > limit {
                return Err(BudgetExceeded {
                    phase,
                    resource: Resource::MemoryBytes,
                    limit,
                    observed: usage.memory_bytes,
                });
            }
        }
        Ok(())
    }

    /// Applies an injected slowdown for `phase`, if planned.
    pub fn maybe_slow(&self, phase: Phase) {
        if let Some((p, pause)) = self.faults.slowdown {
            if p == phase {
                self.obs.debug(format!("fault injection: {pause:?} slowdown during {phase}"));
                std::thread::sleep(pause);
            }
        }
    }

    /// True when the fault plan panics sampler instance `instance` at
    /// `epoch`.
    pub fn should_panic_instance(&self, instance: usize, epoch: usize) -> bool {
        let fire =
            epoch == self.faults.panic_at_epoch && self.faults.panic_instances.contains(&instance);
        if fire {
            self.obs.warn(format!(
                "fault injection: panicking sampler instance {instance} at epoch {epoch}"
            ));
        }
        fire
    }

    /// Once-latch for the planned cell-worker panic: returns true
    /// exactly once for the planned instance at the planned epoch.
    pub fn take_worker_panic(&self, instance: usize, epoch: usize) -> bool {
        if self.faults.panic_worker_in_instance != Some(instance)
            || epoch != self.faults.panic_at_epoch
        {
            return false;
        }
        let fire = !self.worker_panic_fired.swap(true, Ordering::AcqRel);
        if fire {
            self.obs.warn(format!(
                "fault injection: panicking cell worker of instance {instance} at epoch {epoch}"
            ));
        }
        fire
    }

    /// Count-down latch for the planned checkpoint-save failures:
    /// returns true for the first [`FaultPlan::fail_checkpoint_saves`]
    /// calls, then false forever. Samplers consult this right before
    /// handing a state to the checkpoint sink.
    pub fn take_checkpoint_save_failure(&self) -> bool {
        if self.faults.fail_checkpoint_saves == 0 {
            return false;
        }
        let n = self.ckpt_failures_fired.fetch_add(1, Ordering::AcqRel);
        let fire = n < self.faults.fail_checkpoint_saves;
        if fire {
            self.obs.warn(format!(
                "fault injection: failing checkpoint save {} of {}",
                n + 1,
                self.faults.fail_checkpoint_saves
            ));
        }
        fire
    }

    fn take_cluster_fault(
        &self,
        planned: Option<(usize, usize)>,
        latch: &AtomicBool,
        shard: usize,
        epoch: usize,
        what: &str,
    ) -> bool {
        if planned != Some((shard, epoch)) {
            return false;
        }
        let fire = !latch.swap(true, Ordering::AcqRel);
        if fire {
            self.obs.warn(format!("fault injection: {what} shard worker {shard} at epoch {epoch}"));
        }
        fire
    }

    /// Once-latch for [`FaultPlan::kill_worker`]: true exactly once for
    /// the planned `(shard, epoch)`.
    pub fn take_worker_kill(&self, shard: usize, epoch: usize) -> bool {
        self.take_cluster_fault(
            self.faults.kill_worker,
            &self.kill_worker_fired,
            shard,
            epoch,
            "killing",
        )
    }

    /// Once-latch for [`FaultPlan::stall_worker`]: the stall duration,
    /// exactly once for the planned `(shard, epoch)`.
    pub fn take_worker_stall(&self, shard: usize, epoch: usize) -> Option<Duration> {
        let (s, e, pause) = self.faults.stall_worker?;
        self.take_cluster_fault(
            Some((s, e)),
            &self.stall_worker_fired,
            shard,
            epoch,
            "stalling",
        )
        .then_some(pause)
    }

    /// Once-latch for [`FaultPlan::corrupt_frame`]: true exactly once
    /// for the planned `(shard, epoch)`.
    pub fn take_corrupt_frame(&self, shard: usize, epoch: usize) -> bool {
        self.take_cluster_fault(
            self.faults.corrupt_frame,
            &self.corrupt_frame_fired,
            shard,
            epoch,
            "corrupting a frame from",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_combine_keeps_worst() {
        use RunOutcome::*;
        assert_eq!(Completed.combine(Degraded), Degraded);
        assert_eq!(Degraded.combine(Completed), Degraded);
        assert_eq!(Degraded.combine(TimedOut), TimedOut);
        assert_eq!(TimedOut.combine(Cancelled), Cancelled);
        assert_eq!(Completed.combine(Completed), Completed);
        assert!(TimedOut.is_partial());
        assert!(Cancelled.is_partial());
        assert!(!Degraded.is_partial());
        assert!(Completed.is_completed());
    }

    #[test]
    fn token_is_shared_between_clones() {
        let token = CancellationToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn interrupted_prefers_cancellation() {
        let ctx = ExecContext::new(RunBudget::unlimited().with_deadline(Duration::ZERO));
        assert_eq!(ctx.interrupted(), Some(RunOutcome::TimedOut));
        ctx.token().cancel();
        assert_eq!(ctx.interrupted(), Some(RunOutcome::Cancelled));
    }

    #[test]
    fn no_deadline_never_interrupts() {
        let ctx = ExecContext::unbounded();
        assert_eq!(ctx.interrupted(), None);
        assert_eq!(ctx.remaining(), None);
    }

    #[test]
    fn resource_checks_trip_the_right_limit() {
        let ctx = ExecContext::new(
            RunBudget::unlimited()
                .with_max_factors(100)
                .with_max_variables(50)
                .with_max_memory_bytes(1 << 20),
        );
        let ok = ResourceUsage { factors: 100, variables: 50, memory_bytes: 1 << 20 };
        assert!(ctx.check_resources(Phase::Grounding, ok).is_ok());

        let too_many = ResourceUsage { factors: 101, ..ok };
        let err = ctx.check_resources(Phase::Grounding, too_many).unwrap_err();
        assert_eq!(err.resource, Resource::Factors);
        assert_eq!(err.limit, 100);
        assert_eq!(err.observed, 101);
        assert_eq!(err.phase, Phase::Grounding);
        assert!(err.to_string().contains("ground factors"));

        let too_wide = ResourceUsage { variables: 51, ..ok };
        let err = ctx.check_resources(Phase::Grounding, too_wide).unwrap_err();
        assert_eq!(err.resource, Resource::Variables);

        let too_big = ResourceUsage { memory_bytes: (1 << 20) + 1, ..ok };
        let err = ctx.check_resources(Phase::Grounding, too_big).unwrap_err();
        assert_eq!(err.resource, Resource::MemoryBytes);
    }

    #[test]
    fn factor_pressure_inflates_observed_count() {
        let plan = FaultPlan { factor_pressure: 90, ..FaultPlan::none() };
        let ctx = ExecContext::new(RunBudget::unlimited().with_max_factors(100)).with_faults(plan);
        let usage = ResourceUsage { factors: 20, ..ResourceUsage::default() };
        let err = ctx.check_resources(Phase::Grounding, usage).unwrap_err();
        assert_eq!(err.observed, 110);
    }

    #[test]
    fn instance_panic_plan_matches_only_planned_epoch() {
        let plan = FaultPlan {
            panic_instances: vec![2],
            panic_at_epoch: 5,
            ..FaultPlan::none()
        };
        let ctx = ExecContext::unbounded().with_faults(plan);
        assert!(ctx.should_panic_instance(2, 5));
        assert!(!ctx.should_panic_instance(2, 4));
        assert!(!ctx.should_panic_instance(1, 5));
    }

    #[test]
    fn worker_panic_latch_fires_once() {
        let plan = FaultPlan {
            panic_worker_in_instance: Some(0),
            panic_at_epoch: 3,
            ..FaultPlan::none()
        };
        let ctx = ExecContext::unbounded().with_faults(plan);
        assert!(!ctx.take_worker_panic(0, 2));
        assert!(ctx.take_worker_panic(0, 3));
        assert!(!ctx.take_worker_panic(0, 3), "latch must fire exactly once");
        assert!(!ctx.take_worker_panic(1, 3));
    }

    #[test]
    fn checkpoint_failure_latch_counts_down() {
        let plan = FaultPlan { fail_checkpoint_saves: 2, ..FaultPlan::none() };
        assert!(!plan.is_empty());
        let ctx = ExecContext::unbounded().with_faults(plan);
        assert!(ctx.take_checkpoint_save_failure());
        assert!(ctx.take_checkpoint_save_failure());
        assert!(!ctx.take_checkpoint_save_failure(), "only the first n saves fail");
        let clean = ExecContext::unbounded();
        assert!(!clean.take_checkpoint_save_failure());
    }

    #[test]
    fn cluster_fault_latches_fire_once_at_the_planned_site() {
        let plan = FaultPlan {
            kill_worker: Some((1, 5)),
            stall_worker: Some((0, 3, Duration::from_millis(7))),
            corrupt_frame: Some((2, 4)),
            ..FaultPlan::none()
        };
        assert!(!plan.is_empty());
        let ctx = ExecContext::unbounded().with_faults(plan);
        assert!(!ctx.take_worker_kill(1, 4));
        assert!(!ctx.take_worker_kill(0, 5));
        assert!(ctx.take_worker_kill(1, 5));
        assert!(!ctx.take_worker_kill(1, 5), "kill latch fires once");
        assert_eq!(ctx.take_worker_stall(0, 3), Some(Duration::from_millis(7)));
        assert_eq!(ctx.take_worker_stall(0, 3), None, "stall latch fires once");
        assert!(ctx.take_corrupt_frame(2, 4));
        assert!(!ctx.take_corrupt_frame(2, 4), "corrupt latch fires once");
        let clean = ExecContext::unbounded();
        assert!(!clean.take_worker_kill(1, 5));
        assert_eq!(clean.take_worker_stall(0, 3), None);
        assert!(!clean.take_corrupt_frame(2, 4));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let b = Backoff::new(Duration::from_millis(100), Duration::from_secs(2));
        assert_eq!(b.delay(0), Duration::from_millis(100));
        assert_eq!(b.delay(1), Duration::from_millis(200));
        assert_eq!(b.delay(2), Duration::from_millis(400));
        assert_eq!(b.delay(5), Duration::from_secs(2), "capped at max");
        assert_eq!(b.delay(64), Duration::from_secs(2), "shift overflow saturates");
    }

    #[test]
    fn jittered_delays_diverge_across_shards_and_stay_bounded() {
        let b = Backoff::new(Duration::from_millis(100), Duration::from_secs(2));
        for attempt in 0..8u32 {
            let nominal = b.delay(attempt);
            let delays: Vec<Duration> =
                (0..16u64).map(|shard| b.delay_jittered(attempt, shard)).collect();
            for d in &delays {
                assert!(*d <= nominal, "jitter never exceeds the nominal delay");
                assert!(*d <= b.max, "jitter never exceeds max");
                assert!(
                    *d >= nominal.mul_f64(0.5),
                    "jitter keeps at least half the nominal delay"
                );
            }
            let distinct: std::collections::HashSet<Duration> =
                delays.iter().copied().collect();
            assert!(
                distinct.len() > 1,
                "distinct shards must not restart in lockstep (attempt {attempt})"
            );
        }
        // Deterministic: same (attempt, seed) → same delay.
        assert_eq!(b.delay_jittered(3, 7), b.delay_jittered(3, 7));
    }

    #[test]
    fn budget_trip_records_metrics_and_event() {
        let obs = Obs::enabled();
        let ctx =
            ExecContext::new(RunBudget::unlimited().with_max_factors(1)).with_obs(obs.clone());
        let usage = ResourceUsage { factors: 5, ..ResourceUsage::default() };
        assert!(ctx.check_resources(Phase::Grounding, usage).is_err());
        assert!(ctx.check_resources(Phase::Grounding, ResourceUsage::default()).is_ok());
        let m = obs.metrics().unwrap();
        assert_eq!(m.counter_value("runtime.budget_checks_total"), Some(2));
        assert_eq!(m.counter_value("runtime.budget_trips_total"), Some(1));
        let events = obs.trace_snapshot().events;
        assert!(events
            .iter()
            .any(|e| e.severity == Severity::Warn && e.message.contains("budget trip")));
    }

    #[test]
    fn budget_builders_compose() {
        let b = RunBudget::unlimited()
            .with_deadline(Duration::from_secs(30))
            .with_max_factors(1_000_000);
        assert_eq!(b.deadline, Some(Duration::from_secs(30)));
        assert_eq!(b.max_factors, Some(1_000_000));
        assert!(!b.is_unlimited());
        assert!(RunBudget::unlimited().is_unlimited());
    }
}
