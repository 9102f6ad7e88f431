//! Lazy serving (DESIGN.md §16): a KB that is *never fully grounded*.
//!
//! `sya serve --lazy` skips `SyaSession::construct` entirely — the
//! server holds only the compiled program and the input tables, and
//! every `/v1/marginal` / `/v1/query` request demand-grounds the bound
//! atom's factor neighborhood through [`sya_query::QueryGrounder`] and
//! answers it with a short restricted chain. This is the read path for
//! KBs too large to ground up front: per-request cost scales with the
//! neighborhood (hop depth × spatial radius), not the KB.
//!
//! Answers are cached in an **epoch-keyed LRU**: each entry is stamped
//! with the evidence epoch it was grounded under, and `/v1/evidence`
//! bumps the epoch (and drops the cache), so a stale neighborhood can
//! never answer a query — the lazy twin of the full path's
//! epoch-versioned `RwLock` swap. Evidence updates here cost O(rows):
//! no incremental re-inference runs, because nothing is materialized to
//! re-infer; the next query of an affected atom simply re-grounds.
//!
//! Trade-offs versus [`ServingKb`](crate::ServingKb), by design:
//! * evidence validation cannot check atom *existence* (there is no
//!   grounded catalogue); an unknown id is accepted and simply never
//!   matches a neighborhood;
//! * misses serialize on the single engine lock (probes build the
//!   tables' lazy R-tree and hash indexes); hits are lock-cheap;
//! * marginals carry single-chain sampling noise per grounding, where
//!   the full path amortizes one long chain over every atom.

use crate::rows::{RawRowUpdate, RowsOutcome};
use crate::state::{EvidenceOutcome, EvidenceUpdate, MarginalAnswer};
use crate::ServeError;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};
use sya_geom::{DistanceMetric, Point, Rect};
use sya_ground::{candidate_radius, GroundConfig, Grounding};
use sya_lang::CompiledProgram;
use sya_obs::Obs;
use sya_query::{QueryAnswer, QueryConfig, QueryError, QueryGrounder};
use sya_runtime::{ExecContext, RunBudget};
use sya_store::{Database, Value};

/// Tunables of the lazy serving state.
#[derive(Debug, Clone)]
pub struct LazyConfig {
    /// Hop depth, boundary policy, and restricted-chain settings of the
    /// per-request demand grounding.
    pub query: QueryConfig,
    /// Per-request resource budget (variables/factors/memory); the
    /// request deadline is layered on top by the server. Exhaustion is
    /// a 503 + Retry-After, counted on `serve.query.budget_exceeded_total`.
    pub budget: RunBudget,
    /// Neighborhood-cache capacity (answers, one per `(relation, id)`);
    /// 0 disables caching.
    pub cache_capacity: usize,
}

impl Default for LazyConfig {
    fn default() -> Self {
        LazyConfig {
            query: QueryConfig::default(),
            budget: RunBudget::unlimited(),
            cache_capacity: 1024,
        }
    }
}

/// The demand grounder and its input tables. One lock for both: every
/// cache miss probes the database's lazily built R-tree and hash
/// indexes mutably.
struct LazyEngine {
    grounder: QueryGrounder,
    db: Database,
}

/// A cached neighborhood's invalidation footprint: the grounding's
/// bounding box plus the integer ids of every atom it materialized. A
/// `/v1/rows` delta intersects the entry iff one of its rows lands
/// inside the box (expanded by the spatial interaction radius) or names
/// one of the ids — everything else provably cannot change the answer.
#[derive(Debug, Clone)]
struct Footprint {
    bbox: Rect,
    ids: HashSet<i64>,
}

fn footprint_of(grounding: &Grounding) -> Footprint {
    let ids = grounding
        .atom_meta
        .iter()
        .filter_map(|(_, values)| values.first().and_then(Value::as_int))
        .collect();
    Footprint { bbox: grounding.graph.bounding_box(), ids }
}

/// One cached answer, stamped with the evidence epoch it was grounded
/// under and an LRU tick.
struct CacheEntry {
    epoch: u64,
    tick: u64,
    answer: QueryAnswer,
    footprint: Footprint,
}

/// Bounded `(relation, id)` → answer map with epoch invalidation and
/// least-recently-used eviction (linear-scan evict: the capacity is
/// dashboard-scale, not KB-scale).
struct QueryCache {
    map: HashMap<(String, i64), CacheEntry>,
    tick: u64,
    capacity: usize,
}

impl QueryCache {
    fn new(capacity: usize) -> Self {
        QueryCache { map: HashMap::new(), tick: 0, capacity }
    }

    /// A hit requires the entry's grounding epoch to match the current
    /// evidence epoch; a stale entry is dropped on sight.
    fn get(&mut self, key: &(String, i64), epoch: u64) -> Option<QueryAnswer> {
        match self.map.get_mut(key) {
            Some(e) if e.epoch == epoch => {
                self.tick += 1;
                e.tick = self.tick;
                Some(e.answer.clone())
            }
            Some(_) => {
                self.map.remove(key);
                None
            }
            None => None,
        }
    }

    /// Inserts (evicting the least recently used entry at capacity) and
    /// returns the resulting entry count.
    fn insert(
        &mut self,
        key: (String, i64),
        epoch: u64,
        answer: QueryAnswer,
        footprint: Footprint,
    ) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.tick += 1;
        self.map.insert(key, CacheEntry { epoch, tick: self.tick, answer, footprint });
        self.map.len()
    }

    /// Targeted invalidation: drops entries whose footprint the
    /// predicate matches and re-stamps the survivors to `epoch`.
    /// Re-stamping is load-bearing — [`QueryCache::get`] drops entries
    /// from older epochs on sight, so surviving a *selective*
    /// invalidation only means something if the survivor carries the
    /// new epoch. Returns the number of entries dropped.
    fn retain_and_restamp(&mut self, epoch: u64, hit: impl Fn(&Footprint) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|_, e| !hit(&e.footprint));
        for e in self.map.values_mut() {
            e.epoch = epoch;
        }
        before - self.map.len()
    }

    fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        n
    }
}

/// A singleflight slot: the first thread to miss a `(relation, id,
/// epoch)` key grounds it; followers block here until the leader
/// publishes (or fails), then re-check the cache.
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

/// The lazy serving state: compiled program + input tables + evidence
/// map + demand grounder, but **no factor graph** — neighborhoods are
/// grounded per query and cached per evidence epoch.
pub struct LazyKb {
    engine: Mutex<LazyEngine>,
    /// `(relation, id)` → observed value; the only mutable KB state in
    /// lazy mode. Queries ground under the read lock so the epoch a
    /// cache entry is stamped with matches the evidence it saw.
    evidence: RwLock<HashMap<(String, i64), u32>>,
    epoch: AtomicU64,
    cache: Mutex<QueryCache>,
    /// In-flight demand groundings, keyed `(relation, id, epoch)`:
    /// concurrent misses of the same atom coalesce onto one grounding
    /// instead of queueing up behind the engine lock to each redo it.
    flights: Mutex<HashMap<(String, i64, u64), Arc<Flight>>>,
    /// Distance metric of the ground config, for converting the spatial
    /// interaction radius into coordinate units when testing whether a
    /// row update lands inside a cached neighborhood's bounding box.
    metric: DistanceMetric,
    /// Domain size per variable relation (from the ground config),
    /// for evidence validation.
    domains: HashMap<String, u32>,
    /// Declared variable relations, for evidence validation without
    /// taking the engine lock.
    variable_relations: HashSet<String>,
    budget: RunBudget,
    obs: Obs,
    started: Instant,
}

impl LazyKb {
    /// Wraps a compiled program and its loaded input tables for lazy
    /// serving. Like the full path, requires the spatial engine — the
    /// demand grounding's neighborhood bound *is* the spatial-factor
    /// radius; a program with no `@spatial` relation has nothing to
    /// bound the closure with.
    pub fn new(
        program: CompiledProgram,
        ground: GroundConfig,
        db: Database,
        evidence: HashMap<(String, i64), u32>,
        cfg: LazyConfig,
        obs: Obs,
    ) -> Result<Self, ServeError> {
        if program.spatial_variable_relations().next().is_none() {
            return Err(ServeError::NotSpatial);
        }
        let domains = ground.domains.clone();
        let metric = ground.metric;
        let variable_relations = program
            .schemas
            .values()
            .filter(|s| s.is_variable)
            .map(|s| s.name.clone())
            .collect();
        let grounder = QueryGrounder::new(program, ground, cfg.query);
        obs.gauge_set("serve.query.cache_entries", 0.0);
        Ok(LazyKb {
            engine: Mutex::new(LazyEngine { grounder, db }),
            evidence: RwLock::new(evidence),
            epoch: AtomicU64::new(0),
            cache: Mutex::new(QueryCache::new(cfg.cache_capacity)),
            flights: Mutex::new(HashMap::new()),
            metric,
            domains,
            variable_relations,
            budget: cfg.budget,
            obs,
            started: Instant::now(),
        })
    }

    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Evidence epoch: 0 at startup, +1 per applied evidence batch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The per-request resource budget the server layers the request
    /// deadline onto.
    pub fn request_budget(&self) -> RunBudget {
        self.budget.clone()
    }

    /// `(cached answers, variables materialized across them)` — the
    /// lazy stand-in for the full path's graph-shape health fields.
    pub fn cache_shape(&self) -> (usize, usize) {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let vars = cache.map.values().map(|e| e.answer.stats.variables).sum();
        (cache.map.len(), vars)
    }

    /// Point marginal via demand grounding: epoch-keyed cache, then the
    /// grounder. `Ok(None)` is an unknown atom (404); budget exhaustion
    /// is [`ServeError::QueryBudget`] (503 + Retry-After).
    ///
    /// Misses are **singleflighted** per `(relation, id, epoch)`: the
    /// first thread grounds (and counts the miss), concurrent callers of
    /// the same atom count `serve.query.singleflight_wait_total`, park
    /// until the leader publishes its cache entry, and answer from it —
    /// a thundering herd on one hot atom does one grounding, not one per
    /// worker thread. If the leader fails, a waiter is elected leader on
    /// its next pass and retries the grounding itself.
    pub fn marginal(
        &self,
        relation: &str,
        id: i64,
        ctx: &ExecContext,
    ) -> Result<Option<MarginalAnswer>, ServeError> {
        self.obs.counter_add("serve.query.requests_total", 1);
        // The evidence read lock pins the epoch for the whole grounding:
        // an evidence or row batch (write lock) cannot slip between the
        // cache check and the insert, so entries are never stamped stale.
        let evidence = self.evidence.read().unwrap_or_else(|e| e.into_inner());
        let epoch = self.epoch();
        let key = (relation.to_owned(), id);
        loop {
            let hit = {
                let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
                cache.get(&key, epoch)
            };
            if let Some(answer) = hit {
                self.obs.counter_add("serve.query.cache_hit_total", 1);
                return Ok(Some(to_marginal(&answer, epoch)));
            }
            let fkey = (key.0.clone(), key.1, epoch);
            let (flight, leader) = {
                let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
                match flights.entry(fkey.clone()) {
                    Entry::Occupied(e) => (Arc::clone(e.get()), false),
                    Entry::Vacant(v) => {
                        let f = Arc::new(Flight { done: Mutex::new(false), cv: Condvar::new() });
                        (Arc::clone(v.insert(f)), true)
                    }
                }
            };
            if !leader {
                self.obs.counter_add("serve.query.singleflight_wait_total", 1);
                let mut done = flight.done.lock().unwrap_or_else(|e| e.into_inner());
                while !*done {
                    done = flight.cv.wait(done).unwrap_or_else(|e| e.into_inner());
                }
                // Leader published (or failed): re-check the cache. A
                // failed or capacity-0-evicted entry makes this thread
                // the next leader rather than spinning.
                continue;
            }
            // A genuine cache miss is counted exactly once per grounding
            // — here in the leader branch — so miss/hit counters keep
            // meaning "groundings performed" under concurrency.
            self.obs.counter_add("serve.query.cache_miss_total", 1);
            let result = if self.variable_relations.contains(relation) {
                self.ground_misses(std::slice::from_ref(&key), epoch, &evidence, ctx)
                    .map(|answers| answers.first().map(|a| to_marginal(a, epoch)))
            } else {
                Ok(None)
            };
            {
                let mut done = flight.done.lock().unwrap_or_else(|e| e.into_inner());
                *done = true;
                flight.cv.notify_all();
            }
            self.flights.lock().unwrap_or_else(|e| e.into_inner()).remove(&fkey);
            return result;
        }
    }

    /// Demand-grounds the union neighborhood of `misses` (one atom for a
    /// point query) under the engine lock, answers every atom found from
    /// one restricted chain, and caches each answer under the union's
    /// footprint — conservative for invalidation (a delta near any
    /// member drops them all), exact for correctness. Atoms that do not
    /// exist have no answer.
    fn ground_misses(
        &self,
        misses: &[(String, i64)],
        epoch: u64,
        evidence: &HashMap<(String, i64), u32>,
        ctx: &ExecContext,
    ) -> Result<Vec<QueryAnswer>, ServeError> {
        let ev_fn = |rel: &str, values: &[Value]| -> Option<u32> {
            values
                .first()
                .and_then(Value::as_int)
                .and_then(|vid| evidence.get(&(rel.to_owned(), vid)).copied())
        };
        let result = {
            let mut engine = self.engine.lock().unwrap_or_else(|e| e.into_inner());
            let LazyEngine { grounder, db } = &mut *engine;
            grounder.neighborhood_batch(db, &ev_fn, misses, ctx).and_then(|nh| {
                let footprint = footprint_of(&nh.grounding);
                grounder.answer_batch(&nh, ctx).map(|answers| (answers, footprint))
            })
        };
        let (answers, footprint) = match result {
            Ok(x) => x,
            Err(QueryError::Budget(b)) => {
                self.obs.counter_add("serve.query.budget_exceeded_total", 1);
                return Err(ServeError::QueryBudget(b.to_string()));
            }
            Err(e) => return Err(ServeError::QueryFailed(e.to_string())),
        };
        let Some(first) = answers.first() else { return Ok(answers) };
        self.obs
            .histogram_record("serve.query.ground_seconds", first.stats.ground_time.as_secs_f64());
        self.obs
            .histogram_record("serve.query.infer_seconds", first.stats.infer_time.as_secs_f64());
        for w in &first.warnings {
            self.obs.debug(format!("lazy query {}({}): {w}", first.relation, first.id));
        }
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        for answer in &answers {
            let key = (answer.relation.clone(), answer.id);
            cache.insert(key, epoch, answer.clone(), footprint.clone());
        }
        self.obs.gauge_set("serve.query.cache_entries", cache.map.len() as f64);
        Ok(answers)
    }

    /// Batch marginals through **one union grounding**: cache hits are
    /// answered per key; the misses are deduplicated and demand-grounded
    /// together ([`QueryGrounder::neighborhood_batch`]), so overlapping
    /// neighborhoods share their BFS closure and a single restricted
    /// chain instead of re-grounding the shared region once per query.
    /// Answers align with `queries`; `None` mirrors the point path's 404
    /// (unknown relation or atom). The batch path skips singleflight —
    /// the union grounding is itself the coalescing mechanism.
    pub fn marginal_batch(
        &self,
        queries: &[(String, i64)],
        ctx: &ExecContext,
    ) -> Result<Vec<Option<MarginalAnswer>>, ServeError> {
        if queries.len() <= 1 {
            return queries.iter().map(|(r, i)| self.marginal(r, *i, ctx)).collect();
        }
        self.obs.counter_add("serve.query.requests_total", queries.len() as u64);
        let evidence = self.evidence.read().unwrap_or_else(|e| e.into_inner());
        let epoch = self.epoch();
        let mut out: Vec<Option<MarginalAnswer>> = vec![None; queries.len()];
        let mut misses: Vec<(String, i64)> = Vec::new();
        {
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            for (i, key) in queries.iter().enumerate() {
                if !self.variable_relations.contains(&key.0) {
                    continue; // stays None → per-query 404, like the point path
                }
                if let Some(answer) = cache.get(key, epoch) {
                    self.obs.counter_add("serve.query.cache_hit_total", 1);
                    out[i] = Some(to_marginal(&answer, epoch));
                } else if !misses.contains(key) {
                    misses.push(key.clone());
                }
            }
        }
        if misses.is_empty() {
            return Ok(out);
        }
        self.obs.counter_add("serve.query.cache_miss_total", misses.len() as u64);
        self.obs.counter_add("serve.query.batch_union_total", 1);
        let answers = self.ground_misses(&misses, epoch, &evidence, ctx)?;
        let by_key: HashMap<(String, i64), MarginalAnswer> = answers
            .iter()
            .map(|a| ((a.relation.clone(), a.id), to_marginal(a, epoch)))
            .collect();
        for (i, key) in queries.iter().enumerate() {
            if out[i].is_none() {
                out[i] = by_key.get(key).cloned();
            }
        }
        Ok(out)
    }

    /// Applies an evidence batch: validate, swap the evidence map, bump
    /// the epoch, drop the cache. `resampled` is always 0 — lazy mode
    /// re-grounds affected neighborhoods on their next query instead of
    /// re-inferring eagerly.
    pub fn apply_evidence(&self, rows: &[EvidenceUpdate]) -> Result<EvidenceOutcome, ServeError> {
        let started = Instant::now();
        if rows.is_empty() {
            return Err(ServeError::BadEvidence("empty evidence batch".into()));
        }
        let mut seen = HashSet::new();
        for (i, row) in rows.iter().enumerate() {
            let at = |msg: String| ServeError::BadEvidence(format!("row {i}: {msg}"));
            if !self.variable_relations.contains(&row.relation) {
                return Err(at(format!(
                    "evidence applies only to declared variable relations, not {:?}",
                    row.relation
                )));
            }
            let cardinality = self.domains.get(&row.relation).copied().unwrap_or(2);
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
        }
        let epoch = {
            let mut evidence = self.evidence.write().unwrap_or_else(|e| e.into_inner());
            for row in rows {
                match row.value {
                    Some(v) => {
                        evidence.insert((row.relation.clone(), row.id), v);
                    }
                    None => {
                        evidence.remove(&(row.relation.clone(), row.id));
                    }
                }
            }
            self.epoch.fetch_add(1, Ordering::SeqCst) + 1
        };
        let dropped = {
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            cache.clear()
        };
        self.obs.gauge_set("serve.query.cache_entries", 0.0);
        self.obs.counter_add("serve.query.cache_invalidated_total", dropped as u64);
        self.obs.gauge_set("serve.kb_epoch", epoch as f64);
        self.obs.counter_add("serve.evidence_rows_total", rows.len() as u64);
        Ok(EvidenceOutcome { epoch, resampled: 0, elapsed: started.elapsed() })
    }

    /// Applies a `/v1/rows` batch to the input tables. Lazy mode has no
    /// materialized graph to patch — the differential work is **cache
    /// surgery**: validate and mutate the tables, bump the epoch, then
    /// drop only the cached neighborhoods whose footprint intersects the
    /// delta (a changed row inside the entry's bounding box expanded by
    /// the spatial interaction radius, or naming one of its atom ids)
    /// and re-stamp the survivors. Untouched neighborhoods keep serving
    /// from cache across the update; touched ones re-ground on their
    /// next query.
    pub fn apply_rows(&self, raw: &[RawRowUpdate]) -> Result<RowsOutcome, ServeError> {
        let started = Instant::now();
        // Same lock order as the query path (evidence, then engine), but
        // exclusive: in-flight marginals hold the evidence read lock for
        // their whole grounding, so the write lock serializes the table
        // mutation + epoch bump + cache surgery against all of them.
        let _evidence = self.evidence.write().unwrap_or_else(|e| e.into_inner());
        let mut engine = self.engine.lock().unwrap_or_else(|e| e.into_inner());
        let LazyEngine { grounder, db } = &mut *engine;
        let updates = crate::rows::decode_updates(grounder.program(), raw)
            .map_err(ServeError::BadRows)?;

        // The same all-or-nothing validation as full mode.
        let batch =
            sya_delta::RowBatch::validate(db, &updates).map_err(crate::rows::delta_error)?;

        // Delta footprint: a representative point and/or first integer
        // id per row. A row exposing neither cannot be localized, so the
        // whole cache goes (conservative, correct).
        let mut touch_points: Vec<Point> = Vec::new();
        let mut touch_ids: HashSet<i64> = HashSet::new();
        let mut conservative = false;
        for u in &updates {
            let point =
                u.row.iter().find_map(|v| v.as_geom().map(|g| g.representative_point()));
            let id = u.row.iter().find_map(Value::as_int);
            if point.is_none() && id.is_none() {
                conservative = true;
            }
            touch_points.extend(point);
            touch_ids.extend(id);
        }

        // The tables drop their own R-tree and hash indexes on mutation.
        let retracted = batch.retract(db);
        let inserted: usize = batch.insert(db).values().map(Vec::len).sum();
        // Interaction horizon in coordinate units: a changed row can
        // only affect neighborhoods within the largest spatial-factor
        // radius of it.
        let margin =
            grounder.max_factor_radius(db).ok().map(|r| candidate_radius(self.metric, r));

        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let (dropped, entries) = {
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            let dropped = match margin {
                Some(margin) if !conservative => {
                    cache.retain_and_restamp(epoch, |fp| {
                        !fp.ids.is_disjoint(&touch_ids)
                            || touch_points
                                .iter()
                                .any(|p| fp.bbox.expand(margin).contains_point(p))
                    })
                }
                _ => cache.clear(),
            };
            (dropped, cache.map.len())
        };
        self.obs.gauge_set("serve.query.cache_entries", entries as f64);
        self.obs.counter_add("serve.query.cache_invalidated_total", dropped as u64);
        self.obs.gauge_set("serve.kb_epoch", epoch as f64);
        self.obs.counter_add("serve.rows_total", raw.len() as u64);
        self.obs.counter_add("delta.rows_inserted_total", inserted as u64);
        self.obs.counter_add("delta.rows_retracted_total", retracted as u64);
        let apply_time = started.elapsed();
        self.obs.histogram_record("serve.rows_apply_seconds", apply_time.as_secs_f64());
        self.obs.histogram_record("delta.apply_seconds", apply_time.as_secs_f64());
        Ok(RowsOutcome {
            epoch,
            rows_inserted: inserted,
            rows_retracted: retracted,
            cache_invalidated: dropped,
            apply_time,
            ..RowsOutcome::default()
        })
    }
}

fn to_marginal(answer: &QueryAnswer, epoch: u64) -> MarginalAnswer {
    MarginalAnswer {
        relation: answer.relation.clone(),
        id: answer.id,
        score: answer.score,
        evidence: answer.evidence,
        epoch,
    }
}
