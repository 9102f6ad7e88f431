//! # sya-query — demand-driven (magic-sets) grounding for bound queries
//!
//! The construction pipeline (`sya-core`) grounds the *whole* program and
//! samples the *whole* factor graph before a single marginal can be read.
//! Serving traffic is overwhelmingly *bound* — "what is the label of
//! **this** entity?" — and for spatial programs the relevant subgraph is
//! small: spatial factors vanish beyond the weighting function's
//! negligible radius, and logical factors reach only the atoms a rule
//! body can join against the bound values. Following the ProPPR line of
//! work (locally groundable first-order probabilistic logic), this crate
//! answers a bound marginal without ever constructing the full KB:
//!
//! 1. **Head unification + seeded enumeration** — a bound atom is a
//!    restriction on the one rule evaluator, not a second evaluator:
//!    [`sya_ground::unify_head`] turns "this head instantiates to that
//!    atom" into a [`BoundSeed`](sya_ground::BoundSeed) (or rules the
//!    head out), and [`Grounder::ground_rule`](sya_ground::Grounder::ground_rule)
//!    — the same loop full and delta grounding drive — evaluates the
//!    body under it, so hash probes and R-tree probes exploit the bound
//!    values. The join indexes those probes use belong to the tables,
//!    which drop them when rows change; nothing is carried between
//!    queries by hand.
//! 2. **Neighborhood closure** — a breadth-first backward pass from the
//!    seed atom expands up to [`QueryConfig::hop_depth`] hops: logical
//!    factors via seeded rule evaluation (deduplicated by rule and
//!    typed binding key across expansions, duplicate rows keeping their
//!    multiplicity), spatial factors via an
//!    R-tree range probe within the relation's spatial radius, emitted
//!    by the grounding layer's own pair emitter
//!    ([`GroundConfig::emit_spatial_pair`](sya_ground::GroundConfig::emit_spatial_pair))
//!    under its own parameter resolution. Evidence atoms
//!    are included but never expanded (the Markov blanket property:
//!    conditioning on them d-separates everything beyond).
//! 3. **Boundary clamping** — frontier atoms at the hop horizon are
//!    clamped to a quantized per-relation prior
//!    ([`BoundaryPolicy::ClampPrior`]) or left free
//!    ([`BoundaryPolicy::Free`]).
//! 4. **Restricted inference** — the mini graph gets its own pyramid
//!    index and a short conclique-restricted Gibbs chain
//!    ([`sya_infer::spatial_gibbs_with`]); the seed's marginal is read
//!    off with the same scoring semantics as
//!    `sya_core::KnowledgeBase::score_of`.
//!
//! Known gaps versus full construction (documented, tested as such):
//! * categorical spatial factors use the *diagonal* (agreement) domain
//!   pairs instead of the co-occurrence-pruned pair set of Section IV-C —
//!   the co-occurrence statistics need the full atom cloud;
//! * spatial factors between two *boundary* atoms (neither endpoint
//!   expanded) are not materialized — they lie outside the closure;
//! * a rule head that binds no slot from the query (all wildcards or
//!   constants) is skipped with a warning instead of grounding the whole
//!   rule.

pub mod grounder;

pub use grounder::{
    BatchNeighborhood, Neighborhood, QueryAnswer, QueryGrounder, QueryStats, SeedAtom,
};

use std::collections::HashMap;
use sya_infer::{InferConfig, InferError};
use sya_runtime::BudgetExceeded;

/// What happens to non-evidence atoms discovered at the hop horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundaryPolicy {
    /// Clamp to the quantized per-relation prior ([`QueryConfig::priors`],
    /// default 0.5): the atom behaves as evidence, sealing the mini graph
    /// against the unexplored remainder of the KB.
    #[default]
    ClampPrior,
    /// Leave the boundary free: it is sampled under its (partial)
    /// neighborhood. Less biased when the prior is uninformative, at the
    /// cost of extra variance from the missing context.
    Free,
}

/// Configuration of a [`QueryGrounder`].
#[derive(Debug, Clone)]
pub struct QueryConfig {
    /// Maximum factor hops expanded from the seed atom (seed = hop 0).
    pub hop_depth: usize,
    /// Treatment of non-evidence atoms at the hop horizon.
    pub boundary: BoundaryPolicy,
    /// Per-relation prior marginal used by [`BoundaryPolicy::ClampPrior`]
    /// (e.g. the evidence mean); relations absent here use 0.5.
    pub priors: HashMap<String, f64>,
    /// The restricted chain's sampler configuration. The default is a
    /// short single-instance, single-worker chain tuned for
    /// per-request latency on mini graphs, not the full pipeline's
    /// 1000-epoch multi-instance run.
    pub infer: InferConfig,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            hop_depth: 2,
            boundary: BoundaryPolicy::default(),
            priors: HashMap::new(),
            infer: InferConfig {
                epochs: 240,
                instances: 1,
                levels: 4,
                locality_level: 4,
                burn_in: 24,
                ..InferConfig::default()
            },
        }
    }
}

/// Errors of the demand-driven query path.
#[derive(Debug)]
pub enum QueryError {
    /// The queried relation is not a variable relation of the program.
    UnknownRelation(String),
    /// No derivation rule produced a ground atom with the bound id.
    NotFound { relation: String, id: i64 },
    /// The per-request [`RunBudget`](sya_runtime::RunBudget) was
    /// exhausted while enumerating the neighborhood.
    Budget(BudgetExceeded),
    /// Grounding-layer failure (storage, missing input, bad weighting).
    Ground(sya_ground::GroundError),
    /// The restricted chain failed outright.
    Infer(InferError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownRelation(r) => {
                write!(f, "unknown variable relation {r:?}")
            }
            QueryError::NotFound { relation, id } => {
                write!(f, "no ground atom {relation}({id}, ...)")
            }
            QueryError::Budget(b) => write!(f, "query budget exhausted: {b}"),
            QueryError::Ground(e) => write!(f, "query grounding failed: {e}"),
            QueryError::Infer(e) => write!(f, "query inference failed: {e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Budget(b) => Some(b),
            QueryError::Ground(e) => Some(e),
            QueryError::Infer(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sya_ground::GroundError> for QueryError {
    fn from(e: sya_ground::GroundError) -> Self {
        match e {
            sya_ground::GroundError::Budget(b) => QueryError::Budget(b),
            other => QueryError::Ground(other),
        }
    }
}

impl From<BudgetExceeded> for QueryError {
    fn from(e: BudgetExceeded) -> Self {
        QueryError::Budget(e)
    }
}

impl From<InferError> for QueryError {
    fn from(e: InferError) -> Self {
        QueryError::Infer(e)
    }
}
