//! The live knowledge base behind the endpoints: an `RwLock`-guarded,
//! epoch-versioned handle. Reads (marginal lookups, health) take the
//! read lock; evidence updates take the write lock, run the
//! conclique-restricted incremental sampler, merge the refreshed
//! marginals in place, and bump the epoch — one atomic swap from the
//! clients' point of view, since no reader can observe the KB between
//! the merge and the epoch increment.

use crate::lazy::LazyKb;
use crate::rows::{RawRowUpdate, RowsOutcome};
use crate::ServeError;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};
use sya_core::{KnowledgeBase, SyaSession};
use sya_infer::{ChainState, CheckpointState};
use sya_obs::Obs;
use sya_runtime::{ExecContext, RunBudget};
use sya_store::{Database, Value};

/// One evidence change submitted over the wire. `value: None` retracts
/// the observation (the atom becomes a query variable again).
#[derive(Debug, Clone, PartialEq)]
pub struct EvidenceUpdate {
    pub relation: String,
    pub id: i64,
    pub value: Option<u32>,
}

/// What an applied evidence batch did.
#[derive(Debug, Clone, Copy)]
pub struct EvidenceOutcome {
    /// The KB epoch after the update.
    pub epoch: u64,
    /// Variables the conclique-restricted re-run re-sampled.
    pub resampled: usize,
    pub elapsed: Duration,
}

/// A point marginal answer.
#[derive(Debug, Clone)]
pub struct MarginalAnswer {
    pub relation: String,
    pub id: i64,
    pub score: f64,
    /// The observed value when the atom is evidence.
    pub evidence: Option<u32>,
    /// KB epoch the score was read at.
    pub epoch: u64,
}

/// The mutable ingestion inputs the live server retains: the loaded
/// base tables and the CLI-loaded evidence map the KB was constructed
/// from. One mutex for both — a row batch mutates the tables and
/// re-grounds against the evidence together.
struct LiveInputs {
    db: Database,
    evidence: HashMap<(String, i64), u32>,
}

/// The serving state shared by all worker threads.
pub struct ServingKb {
    session: SyaSession,
    kb: RwLock<KnowledgeBase>,
    epoch: AtomicU64,
    /// `(relation, id column) -> variable`, rebuilt after row batches;
    /// the id keys every endpoint the same way `scores_by_id` does.
    /// Readers must drop this lock before taking `kb` (row applies
    /// lock `kb` first, then this).
    atoms: RwLock<HashMap<(String, i64), u32>>,
    /// The inputs `/v1/rows` batches mutate.
    live: Mutex<LiveInputs>,
    obs: Obs,
    started: Instant,
    ckpt: Option<sya_ckpt::CheckpointStore>,
    last_checkpoint: Mutex<Option<Instant>>,
    last_saved_epoch: AtomicU64,
}

/// Builds the `(relation, id) -> variable` routing map, skipping atoms
/// retired by differential maintenance.
fn atom_index(kb: &KnowledgeBase) -> HashMap<(String, i64), u32> {
    let mut atoms = HashMap::new();
    for (v, (relation, values)) in kb.grounding.atom_meta.iter().enumerate() {
        if kb.grounding.graph.is_var_dead(v as u32) {
            continue;
        }
        if let Some(id) = values.first().and_then(Value::as_int) {
            atoms.insert((relation.clone(), id), v as u32);
        }
    }
    atoms
}

impl ServingKb {
    /// Wraps a constructed knowledge base for serving, retaining the
    /// base tables and evidence map it was constructed from so `POST
    /// /v1/rows` absorbs inserted and retracted rows differentially
    /// (`sya-delta`) instead of requiring a restart-and-reground.
    /// Requires the spatial sampler (the pyramid index is the
    /// incremental-update structure). When the KB was built with a
    /// checkpoint directory, the same directory receives the serve-time
    /// background snapshots.
    pub fn with_live(
        session: SyaSession,
        kb: KnowledgeBase,
        db: Database,
        evidence: HashMap<(String, i64), u32>,
        obs: Obs,
    ) -> Result<Self, ServeError> {
        if kb.pyramid.is_none() {
            return Err(ServeError::NotSpatial);
        }
        let atoms = atom_index(&kb);
        let ckpt = match &kb.config.checkpoint.dir {
            Some(dir) => Some(
                sya_ckpt::CheckpointStore::create(dir.clone(), kb.grounding.graph.fingerprint())
                    .map_err(|e| ServeError::Checkpoint(e.to_string()))?,
            ),
            None => None,
        };
        Ok(ServingKb {
            session,
            kb: RwLock::new(kb),
            epoch: AtomicU64::new(0),
            atoms: RwLock::new(atoms),
            live: Mutex::new(LiveInputs { db, evidence }),
            obs,
            started: Instant::now(),
            ckpt,
            last_checkpoint: Mutex::new(None),
            last_saved_epoch: AtomicU64::new(u64::MAX),
        })
    }

    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    pub fn session(&self) -> &SyaSession {
        &self.session
    }

    /// Current KB epoch: 0 at startup, +1 per applied evidence batch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Point marginal lookup; `None` when the atom was never grounded
    /// (or was retired by a row retraction).
    pub fn marginal(&self, relation: &str, id: i64) -> Option<MarginalAnswer> {
        // Scoped so the atom lock is released before `kb` is taken:
        // row applies acquire the two in the opposite order.
        let v = {
            let atoms = self.atoms.read().unwrap_or_else(|e| e.into_inner());
            *atoms.get(&(relation.to_owned(), id))?
        };
        let kb = self.kb.read().unwrap_or_else(|e| e.into_inner());
        if kb.grounding.graph.is_var_dead(v) {
            return None;
        }
        let score = kb.score_of(v);
        let evidence = kb.grounding.graph.variable(v).evidence;
        Some(MarginalAnswer {
            relation: relation.to_owned(),
            id,
            score,
            evidence,
            epoch: self.epoch(),
        })
    }

    /// Validates an evidence batch against the program schema with the
    /// same hardening rules as the CLI's `--evidence` loader: the
    /// relation must be a declared *variable* relation, the value must
    /// fit its domain, each `(relation, id)` may appear once per batch,
    /// and the atom must exist in the grounded KB.
    fn validate(
        &self,
        rows: &[EvidenceUpdate],
    ) -> Result<Vec<(u32, Option<u32>)>, ServeError> {
        if rows.is_empty() {
            return Err(ServeError::BadEvidence("empty evidence batch".into()));
        }
        let compiled = self.session.compiled();
        let domains = &self.session.config().ground.domains;
        let atoms = self.atoms.read().unwrap_or_else(|e| e.into_inner());
        let mut seen = HashSet::new();
        let mut changes = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let at = |msg: String| ServeError::BadEvidence(format!("row {i}: {msg}"));
            let schema = compiled.schema(&row.relation).ok_or_else(|| {
                at(format!("evidence references undeclared relation {:?}", row.relation))
            })?;
            if !schema.is_variable {
                return Err(at(format!(
                    "{:?} is an input relation; evidence applies only to variable relations",
                    row.relation
                )));
            }
            let cardinality = domains.get(&row.relation).copied().unwrap_or(2);
            if let Some(value) = row.value {
                if value >= cardinality {
                    return Err(at(format!(
                        "value {value} is out of range for {:?} (domain 0..{cardinality})",
                        row.relation
                    )));
                }
            }
            if !seen.insert((row.relation.clone(), row.id)) {
                return Err(at(format!(
                    "duplicate evidence for {:?} id {}",
                    row.relation, row.id
                )));
            }
            let &v = atoms.get(&(row.relation.clone(), row.id)).ok_or_else(|| {
                at(format!("no ground atom {}({})", row.relation, row.id))
            })?;
            changes.push((v, row.value));
        }
        Ok(changes)
    }

    /// Applies an evidence batch: validate, write-lock, incremental
    /// re-inference over the affected concliques, epoch bump.
    pub fn apply_evidence(&self, rows: &[EvidenceUpdate]) -> Result<EvidenceOutcome, ServeError> {
        let changes = self.validate(rows)?;
        let mut kb = self.kb.write().unwrap_or_else(|e| e.into_inner());
        let (elapsed, resampled) =
            kb.update_evidence_incremental_observed(&changes, &self.obs);
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        drop(kb);
        self.obs.gauge_set("serve.kb_epoch", epoch as f64);
        self.obs.counter_add("serve.evidence_rows_total", rows.len() as u64);
        // The write-path cost distribution: evidence applies are what
        // saturate a worker pool first, so capacity planning (and the
        // overload smoke's expectations) read from this histogram.
        self.obs.histogram_record("serve.evidence_apply_seconds", elapsed.as_secs_f64());
        Ok(EvidenceOutcome { epoch, resampled, elapsed })
    }

    /// Applies a `/v1/rows` batch differentially: decode against the
    /// schemas, run `sya_delta::apply_updates` under the write lock
    /// (retract → tombstone, insert → delta-ground, conclique-restricted
    /// warm re-inference of the touched variables), rebuild the atom
    /// routing map, bump the epoch. All-or-nothing: a bad batch leaves
    /// tables and graph untouched.
    pub fn apply_rows(&self, raw: &[RawRowUpdate]) -> Result<RowsOutcome, ServeError> {
        let updates = crate::rows::decode_updates(self.session.compiled(), raw)
            .map_err(ServeError::BadRows)?;
        let mut inputs = self.live.lock().unwrap_or_else(|e| e.into_inner());
        let LiveInputs { db, evidence } = &mut *inputs;
        let ev: &HashMap<(String, i64), u32> = evidence;
        let ev_fn = |rel: &str, values: &[Value]| -> Option<u32> {
            values
                .first()
                .and_then(Value::as_int)
                .and_then(|id| ev.get(&(rel.to_owned(), id)).copied())
        };
        let (stats, rebuilt) = {
            let mut kb = self.kb.write().unwrap_or_else(|e| e.into_inner());
            let stats = sya_delta::apply_updates(&self.session, &mut kb, db, &ev_fn, &updates)
                .map_err(crate::rows::delta_error)?;
            (stats, atom_index(&kb))
        };
        *self.atoms.write().unwrap_or_else(|e| e.into_inner()) = rebuilt;
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        drop(inputs);
        self.obs.gauge_set("serve.kb_epoch", epoch as f64);
        self.obs.counter_add("serve.rows_total", raw.len() as u64);
        self.obs.histogram_record("serve.rows_apply_seconds", stats.apply_time.as_secs_f64());
        Ok(RowsOutcome::from_delta(epoch, &stats))
    }

    /// Runs queries and evidence against the KB via a caller-provided
    /// closure under the read lock (health details, batch queries).
    pub fn with_kb<T>(&self, f: impl FnOnce(&KnowledgeBase) -> T) -> T {
        let kb = self.kb.read().unwrap_or_else(|e| e.into_inner());
        f(&kb)
    }

    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Age of the newest serve-time checkpoint, `None` before the first
    /// save (or when checkpointing is off).
    pub fn checkpoint_age(&self) -> Option<Duration> {
        self.last_checkpoint
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map(|at| at.elapsed())
    }

    /// Persists the live marginals as a spatial checkpoint the batch
    /// pipeline can warm-start from (`sya run/serve --resume`). Returns
    /// the file path, or `None` when checkpointing is disabled or the
    /// KB epoch has not moved since the last save.
    pub fn checkpoint_now(&self) -> Result<Option<PathBuf>, ServeError> {
        let Some(store) = &self.ckpt else { return Ok(None) };
        let epoch = self.epoch();
        if self.last_saved_epoch.load(Ordering::SeqCst) == epoch {
            return Ok(None);
        }
        let state = {
            let kb = self.kb.read().unwrap_or_else(|e| e.into_inner());
            live_checkpoint_state(&kb, epoch)
        };
        let path = store
            .save_state(&state)
            .map_err(|e| ServeError::Checkpoint(e.to_string()))?;
        self.last_saved_epoch.store(epoch, Ordering::SeqCst);
        *self.last_checkpoint.lock().unwrap_or_else(|e| e.into_inner()) = Some(Instant::now());
        self.obs.counter_add("serve.checkpoints_total", 1);
        Ok(Some(path))
    }
}

/// Synthesizes a spatial `CheckpointState::Run` snapshot of the live KB.
///
/// The chains are *not* a paused sampler: each of the `k` configured
/// instances gets the same assignment (evidence value, else the count
/// argmax) and the same accumulated count rows, with its next-epoch set
/// past the per-instance share so a resume replays zero epochs and goes
/// straight to merging. Merging `k` identical count tables scales every
/// row uniformly, and marginals are count *ratios* — the warm-started
/// scores equal the live ones. `serve_epoch` is folded into the chain
/// epoch so successive saves get monotonically increasing file names.
fn live_checkpoint_state(kb: &KnowledgeBase, serve_epoch: u64) -> CheckpointState {
    let cfg = &kb.config.infer;
    let k = cfg.instances.max(1);
    // One past the longest per-instance share (`⌈E/K⌉`).
    let share = cfg.epochs.div_ceil(k).max(1) as u64;
    let chain = ChainState {
        epoch: share + serve_epoch,
        assignment: kb.map_assignment(),
        counts: kb.counts.to_rows(),
        recorded: true,
    };
    CheckpointState::Run { sampler: "spatial".to_owned(), chains: vec![chain; k] }
}

/// What the server actually serves: the constructed live KB or the lazy
/// demand grounder. Every endpoint goes through this enum, so `sya
/// serve` (at any `--shards` count) and `sya serve --lazy` expose the
/// exact same HTTP surface.
pub enum ServeState {
    /// A constructed KB, kept live.
    Single(Box<ServingKb>),
    /// A KB that is never fully grounded: `/v1/marginal` and
    /// `/v1/query` demand-ground the bound atom's neighborhood per
    /// request (DESIGN.md §16).
    Lazy(Box<LazyKb>),
}

impl From<ServingKb> for ServeState {
    fn from(kb: ServingKb) -> Self {
        ServeState::Single(Box::new(kb))
    }
}

impl From<LazyKb> for ServeState {
    fn from(kb: LazyKb) -> Self {
        ServeState::Lazy(Box::new(kb))
    }
}

impl ServeState {
    pub fn obs(&self) -> &Obs {
        match self {
            ServeState::Single(kb) => kb.obs(),
            ServeState::Lazy(kb) => kb.obs(),
        }
    }

    /// Serving mode, as reported by `/healthz`: `"full"` for the
    /// constructed KB, `"lazy"` for the demand grounder.
    pub fn mode(&self) -> &'static str {
        match self {
            ServeState::Single(_) => "full",
            ServeState::Lazy(_) => "lazy",
        }
    }

    pub fn epoch(&self) -> u64 {
        match self {
            ServeState::Single(kb) => kb.epoch(),
            ServeState::Lazy(kb) => kb.epoch(),
        }
    }

    /// The per-request resource budget the server combines with the
    /// request deadline: unlimited on the full path (reads are table
    /// lookups), the configured grounding budget in lazy mode.
    pub fn request_budget(&self) -> RunBudget {
        match self {
            ServeState::Single(_) => RunBudget::unlimited(),
            ServeState::Lazy(kb) => kb.request_budget(),
        }
    }

    /// `Ok(None)` = unknown atom; `Err(QueryBudget)` = the lazy demand
    /// grounding exhausted its budget. `ctx` bounds the lazy path's
    /// grounding and chain; the full path answers from the live KB and
    /// ignores it.
    pub fn marginal(
        &self,
        relation: &str,
        id: i64,
        ctx: &ExecContext,
    ) -> Result<Option<MarginalAnswer>, ServeError> {
        match self {
            ServeState::Single(kb) => Ok(kb.marginal(relation, id)),
            ServeState::Lazy(kb) => kb.marginal(relation, id, ctx),
        }
    }

    /// Batch marginals; answers align with `queries` and `None` mirrors
    /// the point path's 404. Lazy mode grounds the misses as **one
    /// union neighborhood** (overlapping closures share their BFS and a
    /// single restricted chain); the full path answers each query from
    /// the live KB, which is already O(1) per lookup.
    pub fn marginals(
        &self,
        queries: &[(String, i64)],
        ctx: &ExecContext,
    ) -> Result<Vec<Option<MarginalAnswer>>, ServeError> {
        match self {
            ServeState::Single(kb) => {
                Ok(queries.iter().map(|(r, i)| kb.marginal(r, *i)).collect())
            }
            ServeState::Lazy(kb) => kb.marginal_batch(queries, ctx),
        }
    }

    /// Applies a `/v1/rows` batch of base-row inserts/retractions. The
    /// full path patches the live factor graph differentially
    /// (`sya-delta`); lazy mode mutates the tables and surgically
    /// invalidates intersecting cache entries.
    pub fn apply_rows(&self, raw: &[RawRowUpdate]) -> Result<RowsOutcome, ServeError> {
        match self {
            ServeState::Single(kb) => kb.apply_rows(raw),
            ServeState::Lazy(kb) => kb.apply_rows(raw),
        }
    }

    pub fn apply_evidence(&self, rows: &[EvidenceUpdate]) -> Result<EvidenceOutcome, ServeError> {
        match self {
            ServeState::Single(kb) => kb.apply_evidence(rows),
            ServeState::Lazy(kb) => kb.apply_evidence(rows),
        }
    }

    /// Read access to the constructed KB; `None` in lazy mode, where no
    /// KB ever exists to borrow.
    pub fn with_kb<T>(&self, f: impl FnOnce(&KnowledgeBase) -> T) -> Option<T> {
        match self {
            ServeState::Single(kb) => Some(kb.with_kb(f)),
            ServeState::Lazy(_) => None,
        }
    }

    /// `/healthz`'s graph-shape fields, mode-appropriately: the full
    /// path reports the constructed graph and its run outcome; lazy
    /// reports the variables materialized across cached neighborhoods
    /// and a literal `"lazy"` outcome.
    pub fn health_shape(&self) -> (usize, String) {
        match self {
            ServeState::Single(kb) => {
                kb.with_kb(|kb| (kb.grounding.graph.num_variables(), kb.outcome.to_string()))
            }
            ServeState::Lazy(kb) => {
                let (_, vars) = kb.cache_shape();
                (vars, "lazy".to_owned())
            }
        }
    }

    pub fn uptime(&self) -> Duration {
        match self {
            ServeState::Single(kb) => kb.uptime(),
            ServeState::Lazy(kb) => kb.uptime(),
        }
    }

    pub fn checkpoint_age(&self) -> Option<Duration> {
        match self {
            ServeState::Single(kb) => kb.checkpoint_age(),
            ServeState::Lazy(_) => None,
        }
    }

    pub fn checkpoint_now(&self) -> Result<Option<PathBuf>, ServeError> {
        match self {
            ServeState::Single(kb) => kb.checkpoint_now(),
            // Nothing to persist: lazy state is the input tables plus
            // the evidence map, both of which the operator already has.
            ServeState::Lazy(_) => Ok(None),
        }
    }
}
