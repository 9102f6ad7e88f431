//! Differential grounding and live factor-graph maintenance.
//!
//! The batch pipeline grounds a program once and treats the result as
//! immutable; this crate is the maintenance layer between ingestion and
//! inference that keeps a constructed [`KnowledgeBase`] consistent as
//! base rows arrive and leave (the DeepDive incremental-construction
//! workload, PAPERS.md). One [`apply_updates`] call takes a batch of
//! typed insert/retract updates and:
//!
//! Every step that evaluates a rule drives the one grounding loop,
//! [`Grounder::ground_rule`] — full, delta and query grounding are the
//! same evaluation under a different [`BoundSeed`]:
//!
//! 1. **Retraction** runs the negative half of semi-naive delta
//!    evaluation *before* deleting the rows: each rule mentioning a
//!    changed relation runs under its [`delta_seeds`] (one pass per body
//!    atom, restricted to the doomed rows), which enumerates exactly the
//!    bindings those rows support. After the rows are gone, a
//!    re-derivation seeded with each binding's values counts how many
//!    identical matches survive on other rows; the excess factors —
//!    located exactly via the per-factor binding provenance
//!    ([`Grounding::live_factors_matching`], which compares typed
//!    [`Key`]s over the factors of one head atom) — are tombstoned in
//!    place (no id compaction, so every downstream structure keeps its
//!    variable ids). Head atoms no rule head can re-derive
//!    ([`unify_head`] gives the seed, [`head_values`] the exact check)
//!    are retired with [`Grounding::kill_atom`] and leave the pyramid
//!    index.
//! 2. **Insertion** is the positive delta path
//!    ([`Grounder::ground_delta`]): the same seeds over the new rows;
//!    tombstoned factor slots are recycled via the graph's free lists.
//! 3. **Re-inference** re-samples only the concliques of the variables
//!    the delta touched (new atoms, plus live neighbours of tombstoned
//!    factors), warm-started from the converged marginals' argmax.
//!
//! The grounder carries the session's `Obs`, so a write records the
//! same `ground.rule` spans and `ground.*` / `store.*` counters as a
//! batch construct.
//!
//! [`RowBatch`] is the one all-or-nothing validator and table mutation
//! of a row batch; the lazy serving mode, which has no graph to patch,
//! calls it directly.
//!
//! The touched-variable set returned in [`DeltaStats`] is what a serving
//! layer needs for precise cache invalidation: only cached answers whose
//! neighborhood intersects those variables can have changed.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use sya_core::{KnowledgeBase, SyaSession};
use sya_fg::VarId;
use sya_ground::{
    delta_seeds, head_key, unify_head, BoundSeed, GroundError, Grounder, Grounding, Key,
};
use sya_lang::{CompiledProgram, CompiledRule, RuleKind};
use sya_store::{Database, Row, Value};

/// What to do with one base row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOp {
    Insert,
    Retract,
}

/// One typed base-row update.
#[derive(Debug, Clone, PartialEq)]
pub struct RowUpdate {
    pub op: RowOp,
    pub relation: String,
    pub row: Row,
}

impl RowUpdate {
    pub fn insert(relation: impl Into<String>, row: Row) -> RowUpdate {
        RowUpdate { op: RowOp::Insert, relation: relation.into(), row }
    }

    pub fn retract(relation: impl Into<String>, row: Row) -> RowUpdate {
        RowUpdate { op: RowOp::Retract, relation: relation.into(), row }
    }
}

/// Statistics of one [`apply_updates`] call.
#[derive(Debug, Clone, Default)]
pub struct DeltaStats {
    pub rows_inserted: usize,
    pub rows_retracted: usize,
    /// Ground atoms created by the insert half.
    pub vars_added: usize,
    /// Ground atoms retired (no longer derivable from any rule).
    pub vars_removed: usize,
    /// Live logical factors created (tombstoned slots may be recycled).
    pub factors_added: usize,
    pub factors_tombstoned: usize,
    pub spatial_factors_added: usize,
    pub spatial_factors_tombstoned: usize,
    /// Live variables whose Markov blanket the delta changed — the seed
    /// set of conclique-restricted re-inference, and the footprint a
    /// cache layer should intersect against.
    pub touched: Vec<VarId>,
    /// Variables actually re-sampled (touched plus their concliques).
    pub resampled: usize,
    /// Row deletion + delta grounding + graph surgery.
    pub apply_time: Duration,
    /// Conclique-restricted re-inference.
    pub infer_time: Duration,
}

/// Errors surfaced by differential maintenance.
#[derive(Debug)]
pub enum DeltaError {
    /// An update failed validation; nothing was applied.
    BadUpdate(String),
    /// Delta evaluation failed mid-apply.
    Ground(GroundError),
    /// The knowledge base was not built with the spatial sampler — there
    /// is no pyramid index to maintain, so live updates are unsupported.
    NotSpatial,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::BadUpdate(msg) => write!(f, "bad row update: {msg}"),
            DeltaError::Ground(e) => write!(f, "delta grounding failed: {e}"),
            DeltaError::NotSpatial => {
                write!(f, "knowledge base has no pyramid index (spatial sampler required)")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<GroundError> for DeltaError {
    fn from(e: GroundError) -> Self {
        DeltaError::Ground(e)
    }
}

/// A row batch that passed validation against the tables: every update
/// fits its relation's schema and every retraction is matched to a
/// distinct existing row. Validation is all-or-nothing and mutates
/// nothing, so a bad batch leaves the tables untouched. Retractions
/// refer to rows present *before* the batch; retracting a row inserted
/// by the same batch is rejected.
pub struct RowBatch<'u> {
    updates: &'u [RowUpdate],
    /// Row ids each relation loses, in update order.
    pub retract_rows: HashMap<String, Vec<usize>>,
}

impl<'u> RowBatch<'u> {
    pub fn validate(db: &Database, updates: &'u [RowUpdate]) -> Result<Self, DeltaError> {
        let mut retract_rows: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, u) in updates.iter().enumerate() {
            let at = |msg: String| DeltaError::BadUpdate(format!("update #{i}: {msg}"));
            let table = db.table(&u.relation).map_err(|e| at(e.to_string()))?;
            table.check_row(&u.row).map_err(|e| at(e.to_string()))?;
            if u.op == RowOp::Retract {
                let claimed = retract_rows.entry(u.relation.clone()).or_default();
                let Some(rid) =
                    table.find_rows(&u.row).into_iter().find(|r| !claimed.contains(r))
                else {
                    return Err(at(format!(
                        "no matching {} row to retract \
                         (retractions reference rows present before this batch)",
                        u.relation
                    )));
                };
                claimed.push(rid);
            }
        }
        Ok(RowBatch { updates, retract_rows })
    }

    /// Deletes the retracted rows; returns how many.
    pub fn retract(&self, db: &mut Database) -> usize {
        let mut removed = 0;
        for (relation, rows) in &self.retract_rows {
            removed += db.table_mut(relation).expect("validated").remove_rows(rows);
        }
        removed
    }

    /// Appends the inserted rows; returns their row ids per relation.
    pub fn insert(&self, db: &mut Database) -> HashMap<String, Vec<usize>> {
        let mut new_rows: HashMap<String, Vec<usize>> = HashMap::new();
        for u in self.updates.iter().filter(|u| u.op == RowOp::Insert) {
            let table = db.table_mut(&u.relation).expect("validated");
            new_rows.entry(u.relation.clone()).or_default().push(table.len());
            table.insert(u.row.clone()).expect("validated");
        }
        new_rows
    }
}

/// Applies a batch of base-row updates to a constructed knowledge base:
/// retractions first (tombstoning their factors and any atoms left
/// underivable), then insertions (delta grounding), then one
/// conclique-restricted re-sample of everything the batch touched.
///
/// The batch is validated first ([`RowBatch::validate`]), so a bad one
/// leaves `kb` and `db` untouched.
pub fn apply_updates(
    session: &SyaSession,
    kb: &mut KnowledgeBase,
    db: &mut Database,
    evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
    updates: &[RowUpdate],
) -> Result<DeltaStats, DeltaError> {
    if kb.pyramid.is_none() {
        return Err(DeltaError::NotSpatial);
    }
    let t0 = Instant::now();

    let batch = RowBatch::validate(db, updates)?;

    let live_factors_start = kb.grounding.graph.num_live_factors();
    let live_spatial_start = kb.grounding.graph.num_live_spatial_factors();
    let program = session.compiled();
    let mut grounder = Grounder::new(program, session.config().ground.clone())
        .with_obs(session.obs().clone());
    let mut touched: HashSet<VarId> = HashSet::new();
    let mut stats = DeltaStats::default();

    // ---- Retract phase.
    if !batch.retract_rows.is_empty() {
        // Enumerate the bindings the doomed rows support, while the rows
        // are still present. (Identical bindings from duplicate rows are
        // listed once each; the survivor count below settles them all on
        // the first visit, so a repeat finds nothing left to do.)
        let mut vanished: Vec<(&CompiledRule, Vec<Vec<Value>>)> = Vec::new();
        for rule in &program.rules {
            let seeds = delta_seeds(rule, &batch.retract_rows);
            if seeds.is_empty() {
                continue;
            }
            let mut bindings = Vec::new();
            grounder.ground_rule(rule, db, &mut kb.grounding, &seeds, None, |_, _, b| {
                bindings.extend(b);
                Ok(())
            })?;
            vanished.push((rule, bindings));
        }

        stats.rows_retracted = batch.retract(db);

        // Per vanished binding: count how many identical matches survive
        // on the remaining rows, tombstone the excess factors, and mark
        // head atoms of fully vanished bindings as death candidates.
        let mut candidates: Vec<VarId> = Vec::new();
        for (rule, bindings) in vanished {
            for binding in bindings {
                let key = Key::of(&binding);
                let surviving =
                    surviving_matches(&mut grounder, rule, db, &mut kb.grounding, &binding, &key)?;
                let heads: Vec<Option<VarId>> = rule
                    .head
                    .iter()
                    .map(|atom| {
                        let head = head_key(atom, &binding);
                        kb.grounding.atom_by_key(&atom.relation, head.as_bytes())
                    })
                    .collect();
                // Every factor of the binding touches its first head atom.
                if let (RuleKind::Inference(_), Some(&Some(anchor))) = (rule.kind, heads.first()) {
                    let matching = kb.grounding.live_factors_matching(&rule.label, anchor, &key);
                    let excess = matching.len().saturating_sub(surviving);
                    for &f in matching.iter().rev().take(excess) {
                        for v in kb.grounding.tombstone_factor(f) {
                            touched.insert(v);
                        }
                    }
                }
                if surviving == 0 {
                    candidates.extend(heads.into_iter().flatten());
                }
            }
        }

        // An atom dies only when *no* rule head can re-derive it.
        candidates.sort_unstable();
        candidates.dedup();
        for v in candidates {
            if kb.grounding.graph.is_var_dead(v)
                || atom_derivable(&mut grounder, program, db, &mut kb.grounding, v)?
            {
                continue;
            }
            let location = kb.grounding.graph.variable(v).location;
            touched.extend(kb.grounding.kill_atom(v));
            if let (Some(p), Some(pyramid)) = (location, kb.pyramid.as_mut()) {
                pyramid.remove(v, p);
            }
            stats.vars_removed += 1;
        }
    }
    let live_factors_mid = kb.grounding.graph.num_live_factors();
    let live_spatial_mid = kb.grounding.graph.num_live_spatial_factors();

    // ---- Insert phase: the positive delta path.
    let insert_delta = batch.insert(db);
    stats.rows_inserted = insert_delta.values().map(Vec::len).sum();
    let new_vars: Vec<VarId> = if insert_delta.is_empty() {
        Vec::new()
    } else {
        grounder.ground_delta(db, evidence, &mut kb.grounding, &insert_delta)?
    };

    // ---- Re-inference: one conclique-restricted warm re-sample over
    // everything the batch touched.
    kb.counts.extend_for(&kb.grounding.graph);
    let init = kb.map_assignment();
    let pyramid = kb.pyramid.as_mut().expect("checked above");
    for &v in &new_vars {
        if let Some(p) = kb.grounding.graph.variable(v).location {
            pyramid.insert(v, p, &kb.grounding.graph);
        }
    }
    let mut changed: Vec<VarId> = new_vars.clone();
    changed.extend(touched.iter().copied());
    changed.retain(|&v| !kb.grounding.graph.is_var_dead(v));
    changed.sort_unstable();
    changed.dedup();
    stats.apply_time = t0.elapsed();

    let t1 = Instant::now();
    if !changed.is_empty() {
        let (fresh, affected) = sya_infer::incremental_spatial_gibbs(
            &kb.grounding.graph,
            pyramid,
            &changed,
            &session.config().infer,
            Some(&init),
            session.obs(),
        );
        stats.resampled = affected.len();
        kb.counts.merge_affected(&fresh, affected);
    }
    stats.infer_time = t1.elapsed();

    let live_factors_end = kb.grounding.graph.num_live_factors();
    let live_spatial_end = kb.grounding.graph.num_live_spatial_factors();
    stats.vars_added = new_vars.len();
    stats.factors_tombstoned = live_factors_start.saturating_sub(live_factors_mid);
    stats.factors_added = live_factors_end.saturating_sub(live_factors_mid);
    stats.spatial_factors_tombstoned = live_spatial_start.saturating_sub(live_spatial_mid);
    stats.spatial_factors_added = live_spatial_end.saturating_sub(live_spatial_mid);
    stats.touched = changed;
    publish(session, &stats);
    Ok(stats)
}

fn publish(session: &SyaSession, stats: &DeltaStats) {
    let obs = session.obs();
    if !obs.is_enabled() {
        return;
    }
    obs.counter_add("delta.rows_inserted_total", stats.rows_inserted as u64);
    obs.counter_add("delta.rows_retracted_total", stats.rows_retracted as u64);
    obs.counter_add("delta.vars_added_total", stats.vars_added as u64);
    obs.counter_add("delta.vars_removed_total", stats.vars_removed as u64);
    obs.counter_add("delta.factors_added_total", stats.factors_added as u64);
    obs.counter_add("delta.factors_tombstoned_total", stats.factors_tombstoned as u64);
    obs.counter_add("delta.spatial_factors_added_total", stats.spatial_factors_added as u64);
    obs.counter_add(
        "delta.spatial_factors_tombstoned_total",
        stats.spatial_factors_tombstoned as u64,
    );
    obs.counter_add("delta.vars_touched_total", stats.touched.len() as u64);
    obs.counter_add("delta.resampled_total", stats.resampled as u64);
    obs.histogram_record("delta.apply_seconds", stats.apply_time.as_secs_f64());
    obs.histogram_record("delta.infer_seconds", stats.infer_time.as_secs_f64());
}

/// How many matches of `rule` with exactly this binding remain on the
/// post-deletion tables (each corresponds to one factor the binding
/// still owns). Seeding every non-`Null` slot makes this a handful of
/// index probes; the key filter decides.
fn surviving_matches(
    grounder: &mut Grounder,
    rule: &CompiledRule,
    db: &mut Database,
    out: &mut Grounding,
    binding: &[Value],
    key: &Key,
) -> Result<usize, GroundError> {
    let seed = BoundSeed {
        values: binding.iter().cloned().enumerate().filter(|(_, v)| !v.is_null()).collect(),
        ..Default::default()
    };
    let rows = grounder.eval_rule_seeded(rule, db, out, &seed)?;
    Ok(rows.iter().filter(|b| Key::of(b) == *key).count())
}

/// Whether any rule head can still derive the ground atom `v` from the
/// current tables: per head that unifies with the atom, evaluate the
/// body under that seed and look for a binding that reproduces the
/// atom exactly.
fn atom_derivable(
    grounder: &mut Grounder,
    program: &CompiledProgram,
    db: &mut Database,
    out: &mut Grounding,
    v: VarId,
) -> Result<bool, GroundError> {
    let Some((relation, values)) = out.atom_meta.get(v as usize).cloned() else {
        return Ok(false);
    };
    let key = Key::of(&values);
    for rule in &program.rules {
        for head in rule.head.iter().filter(|h| h.relation == relation) {
            let Some(seed) = unify_head(head, &values) else { continue };
            for b in grounder.eval_rule_seeded(rule, db, out, &seed)? {
                if head_key(head, &b) == key {
                    return Ok(true);
                }
            }
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sya_core::{SyaConfig, SyaSession};
    use sya_data::{gwdb_dataset, GwdbConfig};
    use sya_geom::Point;

    fn ev(d: &sya_data::Dataset) -> impl Fn(&str, &[Value]) -> Option<u32> + Clone {
        let evidence = d.evidence.clone();
        move |_: &str, vals: &[Value]| {
            vals.first().and_then(Value::as_int).and_then(|id| evidence.get(&id).copied())
        }
    }

    fn build(n: usize) -> (SyaSession, KnowledgeBase, sya_data::Dataset) {
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: n, ..Default::default() });
        let cfg = SyaConfig::sya()
            .with_epochs(200)
            .with_seed(7)
            .with_bandwidth(15.0)
            .with_spatial_radius(30.0);
        let session = SyaSession::new(&d.program, d.constants.clone(), d.metric, cfg).unwrap();
        let evidence = ev(&d);
        let kb = session.construct(&mut d.db, &evidence).unwrap();
        (session, kb, d)
    }

    fn well_row(id: i64, x: f64, y: f64, arsenic: f64) -> Row {
        vec![
            Value::Int(id),
            Value::from(Point::new(x, y)),
            Value::Double(arsenic),
            Value::Double(0.2),
        ]
    }

    #[test]
    fn insert_grounds_and_samples_the_new_atom() {
        let (session, mut kb, mut d) = build(60);
        let evidence = ev(&d);
        let before = kb.grounding.graph.num_live_variables();
        let stats = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[RowUpdate::insert("Well", well_row(9001, 40.0, 40.0, 0.1))],
        )
        .unwrap();
        assert_eq!(stats.rows_inserted, 1);
        assert_eq!(stats.vars_added, 1);
        assert!(stats.resampled >= 1);
        assert_eq!(kb.grounding.graph.num_live_variables(), before + 1);
        let v = kb
            .grounding
            .atom_id("IsSafe", &[Value::Int(9001), Value::from(Point::new(40.0, 40.0))])
            .expect("new atom exists");
        let score = kb.score_of(v);
        assert!((0.0..=1.0).contains(&score));
    }

    #[test]
    fn insert_then_retract_restores_the_graph() {
        let (session, mut kb, mut d) = build(60);
        let evidence = ev(&d);
        let base = kb.grounding.signature();
        let base_rows = d.db.table("Well").unwrap().len();

        let row = well_row(9001, 40.0, 40.0, 0.1);
        let ins = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[RowUpdate::insert("Well", row.clone())],
        )
        .unwrap();
        assert_eq!(ins.vars_added, 1);
        assert!(kb.grounding.signature().len() > base.len());

        let ret = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[RowUpdate::retract("Well", row)],
        )
        .unwrap();
        assert_eq!(ret.rows_retracted, 1);
        assert_eq!(ret.vars_removed, 1, "the well's atom must die: {ret:?}");
        assert_eq!(d.db.table("Well").unwrap().len(), base_rows);
        assert_eq!(kb.grounding.signature(), base);
        assert!(
            kb.grounding
                .atom_id("IsSafe", &[Value::Int(9001), Value::from(Point::new(40.0, 40.0))])
                .is_none(),
            "retracted atom must leave the catalogue"
        );
    }

    #[test]
    fn retracting_an_original_row_matches_a_fresh_ground() {
        let (session, mut kb, mut d) = build(60);
        let evidence = ev(&d);
        let victim = d.db.table("Well").unwrap().rows()[17].clone();
        let stats = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[RowUpdate::retract("Well", victim)],
        )
        .unwrap();
        assert_eq!(stats.rows_retracted, 1);
        assert_eq!(stats.vars_removed, 1);

        // A fresh grounding of the post-delete database must agree on the
        // live graph (ids differ; signatures must not).
        let mut grounder = Grounder::new(session.compiled(), session.config().ground.clone());
        let fresh = grounder.ground(&mut d.db, &evidence).unwrap();
        assert_eq!(kb.grounding.signature(), fresh.signature());
    }

    #[test]
    fn bad_batches_are_rejected_atomically() {
        let (session, mut kb, mut d) = build(40);
        let evidence = ev(&d);
        let rows_before = d.db.table("Well").unwrap().len();
        let factors_before = kb.grounding.graph.num_live_factors();

        // Arity error in the second update: nothing may apply.
        let err = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[
                RowUpdate::insert("Well", well_row(9001, 40.0, 40.0, 0.1)),
                RowUpdate::insert("Well", vec![Value::Int(1)]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, DeltaError::BadUpdate(_)), "{err}");

        // Retracting a non-existent row fails; retracting the same row
        // twice needs two physical copies.
        let victim = d.db.table("Well").unwrap().rows()[3].clone();
        let err = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[
                RowUpdate::retract("Well", victim.clone()),
                RowUpdate::retract("Well", victim),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, DeltaError::BadUpdate(_)), "{err}");

        let err = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[RowUpdate::insert("Nope", vec![Value::Int(1)])],
        )
        .unwrap_err();
        assert!(matches!(err, DeltaError::BadUpdate(_)), "{err}");

        assert_eq!(d.db.table("Well").unwrap().len(), rows_before);
        assert_eq!(kb.grounding.graph.num_live_factors(), factors_before);
    }

    #[test]
    fn delta_grounding_is_observed() {
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 40, ..Default::default() });
        let cfg = SyaConfig::sya().with_epochs(50).with_bandwidth(15.0).with_spatial_radius(30.0);
        let obs = sya_obs::Obs::enabled();
        let session = SyaSession::new_with_obs(
            &d.program,
            d.constants.clone(),
            d.metric,
            cfg,
            obs.clone(),
        )
        .unwrap();
        let evidence = ev(&d);
        let mut kb = session.construct(&mut d.db, &evidence).unwrap();
        let rule_spans = || {
            obs.trace_snapshot().spans.iter().filter(|s| s.name == "ground.rule").count()
        };
        let bindings =
            || obs.metrics().unwrap().counter_value("ground.bindings_total").unwrap_or(0);
        let probes = || {
            let m = obs.metrics().unwrap();
            m.counter_value("store.planner_hash_probe_total").unwrap_or(0)
                + m.counter_value("store.planner_spatial_probe_total").unwrap_or(0)
                + m.counter_value("store.planner_full_scan_total").unwrap_or(0)
        };
        let (spans0, bindings0, probes0) = (rule_spans(), bindings(), probes());

        apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[RowUpdate::insert("Well", well_row(9001, 40.0, 40.0, 0.1))],
        )
        .unwrap();
        // Every rule of the GWDB program reads Well, so each re-runs.
        assert_eq!(rule_spans() - spans0, session.compiled().rules.len());
        assert!(bindings() > bindings0, "the new well's bindings are counted");
        assert!(probes() > probes0, "planner choices of the delta passes are counted");
    }

    #[test]
    fn touched_set_is_local() {
        let (session, mut kb, mut d) = build(120);
        let evidence = ev(&d);
        let n = kb.grounding.graph.num_live_variables();
        let stats = apply_updates(
            &session,
            &mut kb,
            &mut d.db,
            &evidence,
            &[RowUpdate::insert("Well", well_row(9001, 40.0, 40.0, 0.1))],
        )
        .unwrap();
        assert!(!stats.touched.is_empty());
        assert!(
            stats.touched.len() < n / 2,
            "a single-row delta must not touch half the graph: {} of {n}",
            stats.touched.len()
        );
    }
}
