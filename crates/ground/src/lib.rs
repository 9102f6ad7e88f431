//! # sya-ground — the grounding module
//!
//! Grounding (paper Section IV) turns compiled rules plus input/evidence
//! data into the **spatial factor graph**:
//!
//! 1. *Derivation rules* instantiate ground atoms (random variables) —
//!    one per satisfying body binding ([`grounder`]).
//! 2. *Inference rules* are evaluated like spatial SQL queries — scans,
//!    hash equi-joins, R-tree spatial joins and range queries, in the
//!    heuristically re-ordered predicate order of Section IV-B — emitting
//!    one weighted logical factor per result ([`grounder`], [`translator`]).
//! 3. `@spatial` variable relations get automatically generated
//!    **spatial factors** between nearby ground atoms, weighted by the
//!    relation's weighting function (Section IV-A); for categorical
//!    variables the `O(h²)` per-pair factor blow-up is pruned with the
//!    co-occurrence threshold `T` of Section IV-C ([`pruning`]).
//!
//! Atoms, bindings and factor provenance are identified by one typed,
//! hashed tuple [`Key`] ([`key`]), so grounding formats no text per
//! binding or per atom probe.
//!
//! [`stepfn`] implements the DeepDive workaround the paper benchmarks in
//! Section VI-B2: approximating one spatial weighting function with a
//! ladder of fixed-weight distance-band rules.

pub mod cellmap;
pub mod grounder;
pub mod key;
pub mod pruning;
pub mod stepfn;
pub mod translator;

pub use cellmap::{pyramid_bounds, pyramid_cell_map, CellVariableMap};
pub use grounder::{
    candidate_radius, default_bandwidth, delta_seeds, head_key, head_values, metric_distance,
    negligible_radius, unify_head, BoundSeed, GroundConfig, Grounder, Grounding, GroundingStats,
    SpatialParams,
};
pub use key::{Key, KeyMap};
pub use pruning::{allowed_domain_pairs, build_cooccurrence};
pub use stepfn::{expand_step_function_rules, StepFunctionSpec};
pub use translator::{translate_rule, SqlQuery};

/// Errors produced during grounding.
#[derive(Debug)]
pub enum GroundError {
    /// Storage-layer failure (missing table/column, type error).
    Store(sya_store::StoreError),
    /// A rule referenced a relation with no backing table.
    MissingInput(String),
    /// `@spatial` weighting function name not recognized.
    UnknownWeighting(String),
    /// A hard resource budget (factors, variables, memory) was exceeded;
    /// the run is aborted before the blow-up materializes.
    Budget(sya_runtime::BudgetExceeded),
}

impl std::fmt::Display for GroundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroundError::Store(e) => write!(f, "storage error during grounding: {e}"),
            GroundError::MissingInput(r) => {
                write!(f, "no input table registered for relation {r:?}")
            }
            GroundError::UnknownWeighting(w) => {
                write!(f, "unknown @spatial weighting function {w:?}")
            }
            GroundError::Budget(b) => write!(f, "{b}"),
        }
    }
}

impl std::error::Error for GroundError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GroundError::Store(e) => Some(e),
            GroundError::Budget(b) => Some(b),
            _ => None,
        }
    }
}

impl From<sya_store::StoreError> for GroundError {
    fn from(e: sya_store::StoreError) -> Self {
        GroundError::Store(e)
    }
}

impl From<sya_runtime::BudgetExceeded> for GroundError {
    fn from(e: sya_runtime::BudgetExceeded) -> Self {
        GroundError::Budget(e)
    }
}
