//! # sya-infer — the inference module
//!
//! Estimates the marginal probabilities (factual scores) of the spatial
//! factor graph's variables (paper Section V). There is **one sampler**:
//! a Gibbs kernel, a schedule that says what an epoch sweeps, and a
//! driver that owns the only epoch loop.
//!
//! * [`pyramid`] — the in-memory **partial pyramid index** [Aref & Samet]
//!   that spatially partitions the factor graph: `L` levels, `4^l` cells
//!   at level `l`, atoms indexed at every level along their path, empty
//!   quadrants merged into parents, capacity-based splits on update;
//! * [`conclique`] — **concliques-based partitioning** [Kaiser et al.]:
//!   the 4-colouring of grid cells into sets of mutually non-neighbouring
//!   cells, and the minimum conclique cover of the non-empty cells;
//! * [`schedule`] — a [`Schedule`] is a list of phases, a phase a list
//!   of units, a unit a list of variables. Sequential Gibbs is 1 phase ×
//!   1 unit; the random-partition baseline 1 phase × `k` buckets;
//!   **Spatial Gibbs Sampling** (Algorithm 1) `(level, conclique)` phases
//!   × cell units; incremental inference the same schedule filtered to
//!   the affected cells;
//! * [`kernel`] — sweeps a unit sequentially (plain Gibbs, seeing its own
//!   writes at once) against every other unit frozen at the phase start;
//!   writes are published at the phase barrier and every draw comes from
//!   a stream derived from `(seed, epoch, phase, variable)`;
//! * [`driver`] — [`run_gibbs`]: `K` boards stepped through the schedule
//!   by the one epoch loop, with deadlines/cancellation at epoch
//!   barriers, panic isolation, checkpoint/resume and telemetry. An
//!   [`Owners`] table deals the units to owners — round-robin, or a
//!   shard plan's cells — and a [`Halo`] hook carries the other owners'
//!   draws when a process (a `sya-shard` cluster worker) holds only one;
//! * [`marginals`] — sample counters, marginal extraction, the exact
//!   enumeration oracle, and the KL divergence metric of Fig. 14.
//!
//! **The determinism contract:** the same seed gives the same counts on
//! any core, worker, lane or shard count, and across a checkpoint
//! resume. It is a property of the kernel (derived streams + frozen
//! phase boards), not of a thread pin.

pub mod ckpt;
pub mod conclique;
pub mod driver;
pub mod kernel;
pub mod learn;
pub mod marginals;
pub mod pyramid;
pub mod run;
pub mod schedule;
#[cfg(test)]
mod testutil;

pub use ckpt::{ChainState, CheckpointOptions, CheckpointSink, CheckpointState};
pub use conclique::{conclique_of, min_conclique_cover, Conclique};
pub use driver::{
    incremental_sequential_gibbs, incremental_spatial_gibbs, run_gibbs, sequential_gibbs_with,
    spatial_gibbs_with, Halo, Owners,
};
pub use kernel::var_epoch_rng;
pub use learn::{learn_weights, map_assignment, pseudo_log_likelihood, LearnConfig};
pub use marginals::{average_kl_divergence, exact_marginals, MarginalCounts};
pub use pyramid::{CellKey, PyramidIndex};
pub use run::{InferError, SamplerRun};
pub use schedule::{InferConfig, Phase, Schedule, SweepMode};
