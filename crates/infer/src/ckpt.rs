//! Durable sampler state: what a Gibbs chain must persist at an epoch
//! barrier so a killed process can resume *exactly* where it stopped.
//!
//! The contract is bit-for-bit determinism: for a fixed seed, a run
//! interrupted at any epoch barrier and resumed from its checkpoint
//! produces marginals identical to an uninterrupted run. That works
//! because every draw's stream is derived from `(seed, epoch, phase,
//! variable)`: the only live state is what is carried here — the
//! assignment and the marginal counts. There is no RNG position to
//! persist.
//!
//! This module defines only the *state* and the [`CheckpointSink`]
//! boundary; the on-disk format (header, CRC, fingerprint, atomic
//! write) lives in the `sya-ckpt` crate so the samplers never touch the
//! filesystem themselves.

use crate::marginals::MarginalCounts;
use serde::{Deserialize, Serialize};
use sya_fg::FactorGraph;

/// Sampler-ready parts of a restored chain: next epoch, assignment,
/// marginal counts, recorded flag.
pub type RestoredChain = (usize, Vec<u32>, MarginalCounts, bool);

/// Persistent state of one Gibbs chain (one inference instance, or one
/// cluster worker's share of it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainState {
    /// Next epoch to execute (epochs `0..epoch` are complete).
    pub epoch: u64,
    /// Current variable assignment (evidence values included).
    pub assignment: Vec<u32>,
    /// Raw marginal count rows accumulated so far.
    pub counts: Vec<Vec<u64>>,
    /// Whether any post-burn-in epoch has recorded samples (drives the
    /// stopped-before-burn-in snapshot fallback).
    pub recorded: bool,
}

impl ChainState {
    /// Validates the chain against the graph it claims to belong to and
    /// splits it into sampler-ready parts. Assignments are checked for
    /// domain range and evidence, counts for shape.
    pub fn restore(self, graph: &FactorGraph) -> Result<RestoredChain, String> {
        if self.assignment.len() != graph.num_variables() {
            return Err(format!(
                "assignment covers {} variables, graph has {}",
                self.assignment.len(),
                graph.num_variables()
            ));
        }
        for (v, &x) in self.assignment.iter().enumerate() {
            let var = &graph.variables()[v];
            if x >= var.domain.cardinality() {
                return Err(format!(
                    "variable {v}: value {x} outside domain of cardinality {}",
                    var.domain.cardinality()
                ));
            }
            if let Some(e) = var.evidence {
                if x != e {
                    return Err(format!(
                        "variable {v}: checkpointed value {x} contradicts evidence {e}"
                    ));
                }
            }
        }
        let counts = MarginalCounts::from_rows(graph, self.counts)?;
        Ok((self.epoch as usize, self.assignment, counts, self.recorded))
    }
}

/// Full sampler state at an epoch barrier — the payload a checkpoint
/// file carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CheckpointState {
    /// A driver run: one chain per inference instance, all at the same
    /// epoch barrier (the instances step in lockstep). `sampler` is the
    /// [`Schedule::kind`](crate::Schedule::kind) that wrote it and must
    /// match the schedule that resumes it.
    Run { sampler: String, chains: Vec<ChainState> },
    /// One worker of a `sya-shard` cluster run: the counts of the
    /// shard's own variables plus the full board. Each worker saves into
    /// its own store; a manifest beside the stores ties the set
    /// together.
    Shard { shard: u64, of: u64, chain: ChainState },
}

impl CheckpointState {
    /// The resume point: the smallest next-epoch across chains. Used to
    /// name/order checkpoint files monotonically.
    pub fn epoch(&self) -> u64 {
        match self {
            CheckpointState::Run { chains, .. } => {
                chains.iter().map(|c| c.epoch).min().unwrap_or(0)
            }
            CheckpointState::Shard { chain, .. } => chain.epoch,
        }
    }

    /// Short human/sampler tag, for events and mismatch messages.
    pub fn kind(&self) -> &str {
        match self {
            CheckpointState::Run { sampler, .. } => sampler,
            CheckpointState::Shard { .. } => "shard",
        }
    }

    /// Cheap structural validation against the graph and instance
    /// count without consuming the state —
    /// what the recovery scan uses to skip checkpoints that are intact
    /// on disk but belong to a different run shape.
    pub fn validate_for(&self, graph: &FactorGraph, instances: usize) -> Result<(), String> {
        let check = |c: &ChainState| c.clone().restore(graph).map(|_| ());
        match self {
            CheckpointState::Run { chains, .. } => {
                if chains.len() != instances {
                    return Err(format!(
                        "checkpoint has {} instance chains, run configures {instances}",
                        chains.len()
                    ));
                }
                chains.iter().try_for_each(check)
            }
            CheckpointState::Shard { shard, of, chain } => {
                if shard >= of {
                    return Err(format!("shard index {shard} out of range for {of} shards"));
                }
                check(chain)
            }
        }
    }
}

/// Where completed checkpoint states go. Implemented by
/// `sya_ckpt::CheckpointStore` (atomic CRC-checked files); tests plug in
/// in-memory sinks to interrupt runs at exact epochs.
///
/// `save` failures must be *reported, not thrown*: the samplers degrade
/// the run (warning + `RunOutcome::Degraded`) and keep sampling, so a
/// full disk never destroys an otherwise healthy inference run.
pub trait CheckpointSink: Sync {
    fn save(&self, state: &CheckpointState) -> Result<(), String>;
}

/// Checkpoint behaviour of one sampler run.
#[derive(Clone, Copy)]
pub struct CheckpointOptions<'a> {
    /// Destination for completed states; `None` disables checkpointing.
    pub sink: Option<&'a dyn CheckpointSink>,
    /// Save every `every` epochs (per instance). `0` saves only the final
    /// barrier state (run end or interruption).
    pub every: usize,
}

impl<'a> CheckpointOptions<'a> {
    /// No checkpointing — the legacy behaviour.
    pub fn none() -> Self {
        CheckpointOptions { sink: None, every: 0 }
    }

    pub fn to_sink(sink: &'a dyn CheckpointSink, every: usize) -> Self {
        CheckpointOptions { sink: Some(sink), every }
    }

    /// Whether the barrier entering `next_epoch` (of `total` epochs)
    /// should emit a periodic checkpoint. Final/interrupt saves are
    /// handled separately by the samplers.
    pub fn due(&self, next_epoch: usize, total: usize) -> bool {
        self.sink.is_some()
            && self.every > 0
            && next_epoch < total
            && next_epoch.is_multiple_of(self.every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sya_fg::Variable;

    fn graph() -> FactorGraph {
        let mut g = FactorGraph::new();
        g.add_variable(Variable::binary(0, "a").with_evidence(1));
        g.add_variable(Variable::categorical(0, 3, "b"));
        g
    }

    fn chain() -> ChainState {
        ChainState {
            epoch: 5,
            assignment: vec![1, 2],
            counts: vec![vec![0, 5], vec![1, 2, 2]],
            recorded: true,
        }
    }

    #[test]
    fn restore_round_trips_valid_state() {
        let g = graph();
        let (epoch, assignment, counts, recorded) = chain().restore(&g).unwrap();
        assert_eq!(epoch, 5);
        assert_eq!(assignment, vec![1, 2]);
        assert_eq!(counts.total_samples(1), 5);
        assert!(recorded);
    }

    #[test]
    fn restore_rejects_shape_and_domain_mismatches() {
        let g = graph();
        let mut short = chain();
        short.assignment.pop();
        assert!(short.restore(&g).unwrap_err().contains("covers 1 variables"));

        let mut out_of_domain = chain();
        out_of_domain.assignment[1] = 9;
        assert!(out_of_domain.restore(&g).unwrap_err().contains("outside domain"));

        let mut bad_evidence = chain();
        bad_evidence.assignment[0] = 0;
        assert!(bad_evidence.restore(&g).unwrap_err().contains("contradicts evidence"));

        let mut bad_counts = chain();
        bad_counts.counts[1].pop();
        assert!(bad_counts.restore(&g).unwrap_err().contains("cardinality"));
    }

    fn run(chains: Vec<ChainState>) -> CheckpointState {
        CheckpointState::Run { sampler: "spatial".to_owned(), chains }
    }

    #[test]
    fn state_epoch_is_min_across_instances() {
        let mut late = chain();
        late.epoch = 9;
        let state = run(vec![late, chain()]);
        assert_eq!(state.epoch(), 5);
        assert_eq!(state.kind(), "spatial");
    }

    #[test]
    fn validate_for_checks_instance_count() {
        let g = graph();
        let state = run(vec![chain()]);
        assert!(state.validate_for(&g, 1).is_ok());
        assert!(state.validate_for(&g, 2).unwrap_err().contains("1 instance chains"));
    }

    #[test]
    fn periodic_due_respects_cadence_and_bounds() {
        struct Nop;
        impl CheckpointSink for Nop {
            fn save(&self, _: &CheckpointState) -> Result<(), String> {
                Ok(())
            }
        }
        let sink = Nop;
        let opts = CheckpointOptions::to_sink(&sink, 10);
        assert!(opts.due(10, 100));
        assert!(!opts.due(15, 100));
        assert!(!opts.due(100, 100), "final barrier is not a periodic save");
        assert!(!CheckpointOptions::none().due(10, 100));
        let final_only = CheckpointOptions::to_sink(&sink, 0);
        assert!(!final_only.due(10, 100));
    }

    #[test]
    fn serde_round_trip_preserves_state() {
        let state = run(vec![chain(), chain()]);
        let text = serde_json::to_string(&state).unwrap();
        let back: CheckpointState = serde_json::from_str(&text).unwrap();
        assert_eq!(state, back);
    }
}
