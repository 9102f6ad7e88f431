//! The demand-driven query grounder: seed → neighborhood → mini graph →
//! restricted chain → marginal.

use crate::{BoundaryPolicy, QueryConfig, QueryError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};
use sya_fg::VarId;
use sya_geom::{Point, Rect};
use sya_ground::{
    candidate_radius, metric_distance, unify_head, BoundSeed, GroundConfig, Grounder, Grounding,
    KeyMap, SpatialParams,
};
use sya_infer::{spatial_gibbs_with, MarginalCounts, PyramidIndex};
use sya_lang::{CompiledAtom, CompiledProgram, CompiledRule, RuleKind, SlotTerm};
use sya_runtime::{ExecContext, Phase, ResourceUsage, RunOutcome};
use sya_store::{Database, Value};

/// The demand-grounded factor neighborhood of one bound atom: a
/// self-contained mini factor graph whose boundary is sealed by evidence
/// or clamped priors. Produced by [`QueryGrounder::neighborhood`],
/// consumed by [`QueryGrounder::answer`]; serving layers cache these
/// keyed by `(relation, id)` and evidence epoch.
#[derive(Debug, Clone)]
pub struct Neighborhood {
    pub relation: String,
    pub id: i64,
    /// The mini grounding (graph + atom catalogue).
    pub grounding: Grounding,
    /// The queried atom's variable id inside [`Self::grounding`].
    pub seed: VarId,
    /// Hop at which each variable was discovered (seed = 0; variables
    /// only reached by a pruned spatial pair report the horizon).
    pub hops: Vec<usize>,
    /// Non-evidence frontier atoms clamped to their quantized prior.
    pub boundary_clamped: usize,
    /// `Completed`, or partial when a deadline/cancellation interrupted
    /// the expansion (the closure enumerated so far is still valid).
    pub outcome: RunOutcome,
    pub ground_time: Duration,
    /// Closure compromises taken while expanding (skipped unselective
    /// rule heads, atoms without locations, ...).
    pub warnings: Vec<String>,
}

/// Counters describing one answered query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    pub variables: usize,
    pub logical_factors: usize,
    pub spatial_factors: usize,
    pub boundary_clamped: usize,
    /// `false` when the seed was evidence and no chain ran.
    pub sampled: bool,
    pub ground_time: Duration,
    pub infer_time: Duration,
}

/// One resolved seed of a (possibly multi-atom) neighborhood closure.
#[derive(Debug, Clone)]
pub struct SeedAtom {
    pub relation: String,
    pub id: i64,
    /// The atom's variable id inside the union grounding.
    pub var: VarId,
}

/// The union neighborhood of a batch of bound atoms: one mini factor
/// graph covering every requested seed, with overlapping closures
/// enumerated once (shared factor/pair dedup, one BFS over the joint
/// frontier). Produced by [`QueryGrounder::neighborhood_batch`],
/// consumed by [`QueryGrounder::answer_batch`].
#[derive(Debug, Clone)]
pub struct BatchNeighborhood {
    /// The mini grounding (graph + atom catalogue).
    pub grounding: Grounding,
    /// Resolved seeds in request order (duplicates collapsed).
    pub seeds: Vec<SeedAtom>,
    /// Requested atoms no derivation rule materialized.
    pub missing: Vec<(String, i64)>,
    /// Hop at which each variable was discovered (any seed = 0).
    pub hops: Vec<usize>,
    pub boundary_clamped: usize,
    pub outcome: RunOutcome,
    pub ground_time: Duration,
    pub warnings: Vec<String>,
}

/// A bound marginal answer.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    pub relation: String,
    pub id: i64,
    /// Factual score with `sya_core::KnowledgeBase::score_of` semantics:
    /// evidence reports its observed value, binary variables `P(v = 1)`,
    /// categorical variables the mass on the upper half of the domain.
    pub score: f64,
    /// The seed's observed value when it was evidence.
    pub evidence: Option<u32>,
    pub stats: QueryStats,
    pub outcome: RunOutcome,
    pub warnings: Vec<String>,
}

/// Answers bound marginal queries by demand-grounding. Owns its program;
/// the join indexes its probes use live in the tables, which drop them
/// when they are mutated.
pub struct QueryGrounder {
    program: CompiledProgram,
    ground: GroundConfig,
    config: QueryConfig,
}

impl QueryGrounder {
    pub fn new(program: CompiledProgram, ground: GroundConfig, config: QueryConfig) -> Self {
        QueryGrounder { program, ground, config }
    }

    pub fn config(&self) -> &QueryConfig {
        &self.config
    }

    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// Answers `marginal(relation, id)` — the full lazy path: seed,
    /// neighborhood closure, boundary sealing, restricted chain, score.
    pub fn marginal(
        &mut self,
        db: &mut Database,
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
        relation: &str,
        id: i64,
        ctx: &ExecContext,
    ) -> Result<QueryAnswer, QueryError> {
        let nh = self.neighborhood(db, evidence, relation, id, ctx)?;
        self.answer(&nh, ctx)
    }

    /// Demand-grounds the factor neighborhood of `relation(id, ...)`.
    pub fn neighborhood(
        &mut self,
        db: &mut Database,
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
        relation: &str,
        id: i64,
        ctx: &ExecContext,
    ) -> Result<Neighborhood, QueryError> {
        let batch =
            self.neighborhood_batch(db, evidence, &[(relation.to_owned(), id)], ctx)?;
        let Some(seed) = batch.seeds.first() else {
            return Err(QueryError::NotFound { relation: relation.to_owned(), id });
        };
        Ok(Neighborhood {
            relation: relation.to_owned(),
            id,
            seed: seed.var,
            grounding: batch.grounding,
            hops: batch.hops,
            boundary_clamped: batch.boundary_clamped,
            outcome: batch.outcome,
            ground_time: batch.ground_time,
            warnings: batch.warnings,
        })
    }

    /// Demand-grounds the *union* neighborhood of several bound atoms in
    /// one pass: overlapping closures share their BFS frontier and factor
    /// deduplication, so a batch of nearby queries grounds each factor
    /// once instead of once per query. Atoms that do not exist land in
    /// [`BatchNeighborhood::missing`] rather than failing the batch.
    pub fn neighborhood_batch(
        &mut self,
        db: &mut Database,
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
        targets: &[(String, i64)],
        ctx: &ExecContext,
    ) -> Result<BatchNeighborhood, QueryError> {
        let start = Instant::now();
        for (relation, _) in targets {
            match self.program.schema(relation) {
                Some(s) if s.is_variable => {}
                _ => return Err(QueryError::UnknownRelation(relation.clone())),
            }
        }
        let spatial = self.spatial_params(db)?;
        let mut nh = ground_closure(
            &self.program,
            &self.ground,
            &self.config,
            &spatial,
            db,
            evidence,
            targets,
            ctx,
        )?;
        nh.ground_time = start.elapsed();
        Ok(nh)
    }

    /// Runs the restricted chain on a grounded neighborhood and reads the
    /// seed's marginal. Evidence seeds skip the chain entirely.
    pub fn answer(&self, nh: &Neighborhood, ctx: &ExecContext) -> Result<QueryAnswer, QueryError> {
        let seed = SeedAtom { relation: nh.relation.clone(), id: nh.id, var: nh.seed };
        let closure = Closure {
            grounding: &nh.grounding,
            boundary_clamped: nh.boundary_clamped,
            outcome: nh.outcome,
            ground_time: nh.ground_time,
            warnings: &nh.warnings,
        };
        let mut answers = self.answer_seeds(closure, &[seed], ctx)?;
        Ok(answers.pop().expect("one answer per seed"))
    }

    /// Runs at most one restricted chain over a union neighborhood and
    /// reads every seed's marginal from it; answers align with
    /// `nh.seeds`. Evidence seeds answer without sampling; the chain's
    /// wall time is reported on every sampled answer (it was shared).
    pub fn answer_batch(
        &self,
        nh: &BatchNeighborhood,
        ctx: &ExecContext,
    ) -> Result<Vec<QueryAnswer>, QueryError> {
        let closure = Closure {
            grounding: &nh.grounding,
            boundary_clamped: nh.boundary_clamped,
            outcome: nh.outcome,
            ground_time: nh.ground_time,
            warnings: &nh.warnings,
        };
        self.answer_seeds(closure, &nh.seeds, ctx)
    }

    fn answer_seeds(
        &self,
        nh: Closure<'_>,
        seeds: &[SeedAtom],
        ctx: &ExecContext,
    ) -> Result<Vec<QueryAnswer>, QueryError> {
        let graph = &nh.grounding.graph;
        let base = QueryStats {
            variables: graph.num_variables(),
            logical_factors: graph.num_factors(),
            spatial_factors: graph.num_spatial_factors(),
            boundary_clamped: nh.boundary_clamped,
            sampled: false,
            ground_time: nh.ground_time,
            infer_time: Duration::ZERO,
        };
        let mut run = None;
        let mut infer_time = Duration::ZERO;
        if seeds.iter().any(|s| graph.variable(s.var).evidence.is_none()) {
            let start = Instant::now();
            let pyramid = PyramidIndex::build(
                graph,
                self.config.infer.levels,
                self.config.infer.cell_capacity,
            );
            run = Some(spatial_gibbs_with(graph, &pyramid, &self.config.infer, ctx)?);
            infer_time = start.elapsed();
        }
        let mut answers = Vec::with_capacity(seeds.len());
        for s in seeds {
            let var = graph.variable(s.var);
            let h = var.domain.cardinality();
            let mut answer = QueryAnswer {
                relation: s.relation.clone(),
                id: s.id,
                score: 0.0,
                evidence: var.evidence,
                stats: base.clone(),
                outcome: nh.outcome,
                warnings: nh.warnings.to_vec(),
            };
            if let Some(e) = var.evidence {
                answer.score = if h == 2 { e as f64 } else { f64::from(e >= h / 2) };
            } else {
                let run = run.as_ref().expect("chain ran: non-evidence seed present");
                answer.score = seed_score(&run.counts, s.var, h);
                answer.stats.sampled = true;
                answer.stats.infer_time = infer_time;
                answer.warnings.extend(run.warnings.iter().cloned());
                answer.outcome = nh.outcome.combine(run.outcome);
            }
            answers.push(answer);
        }
        Ok(answers)
    }

    /// Largest spatial factor radius across the program's spatial
    /// variable relations — the interaction horizon a single located row
    /// can reach. Serving layers use it as the invalidation margin when
    /// deciding which cached neighborhoods a row update may intersect.
    pub fn max_factor_radius(&self, db: &Database) -> Result<f64, QueryError> {
        Ok(self.spatial_params(db)?.values().fold(0.0, |m, p| m.max(p.radius)))
    }

    /// Per-spatial-relation [`SpatialParams`], resolved by the grounding
    /// layer's own rules. The one difference from full grounding is the
    /// source of a derived bandwidth: the relation's *base table* rather
    /// than the atom cloud, which demand grounding never materializes.
    fn spatial_params(&self, db: &Database) -> Result<HashMap<String, SpatialParams>, QueryError> {
        let mut out = HashMap::new();
        if !self.ground.generate_spatial_factors {
            return Ok(out);
        }
        for (schema, wname) in self.program.spatial_variable_relations() {
            let params = self.ground.spatial_params(wname, || {
                base_table_bandwidth(&self.program, db, &schema.name, self.ground.metric)
            })?;
            out.insert(schema.name.clone(), params);
        }
        Ok(out)
    }
}

/// The parts of a (single or batch) neighborhood an answer reads.
struct Closure<'a> {
    grounding: &'a Grounding,
    boundary_clamped: usize,
    outcome: RunOutcome,
    ground_time: Duration,
    warnings: &'a [String],
}

/// Derives the default weighting bandwidth for `relation` from the
/// bounding box of the base table feeding its derivation rules (the full
/// pipeline uses the ground-atom cloud, which coincides for the common
/// one-atom-per-row derivation). Falls back to scanning every table's
/// spatial column when no derivation rule is found.
fn base_table_bandwidth(
    program: &CompiledProgram,
    db: &Database,
    relation: &str,
    metric: sya_geom::DistanceMetric,
) -> f64 {
    let mut tables: Vec<&str> = Vec::new();
    for rule in &program.rules {
        if matches!(rule.kind, RuleKind::Derivation)
            && rule.head.first().is_some_and(|h| h.relation == relation)
        {
            tables.extend(rule.body.iter().map(|a| a.relation.as_str()));
        }
    }
    let mut bbox = Rect::EMPTY;
    let mut scan = |name: &str| {
        if let Ok(table) = db.table(name) {
            for row in 0..table.len() {
                if let Some(p) = table.point_of(row) {
                    bbox = bbox.union(&Rect::from_point(p));
                }
            }
        }
    };
    if tables.is_empty() {
        let names: Vec<String> = db.table_names().map(str::to_owned).collect();
        for name in names {
            scan(&name);
        }
    } else {
        for name in tables {
            scan(name);
        }
    }
    if bbox.is_empty() {
        return 1.0;
    }
    let lo = Point::new(bbox.min_x, bbox.min_y);
    let hi = Point::new(bbox.max_x, bbox.max_y);
    (metric_distance(metric, &lo, &hi) / 10.0).max(f64::MIN_POSITIVE)
}

/// Score of the seed variable from the restricted chain's counts
/// (`KnowledgeBase::score_of` semantics for the non-evidence case).
fn seed_score(counts: &MarginalCounts, seed: VarId, cardinality: u32) -> f64 {
    if cardinality == 2 {
        counts.factual_score(seed)
    } else {
        (cardinality / 2..cardinality).map(|x| counts.marginal(seed, x)).sum()
    }
}

/// Quantizes a prior marginal onto a domain: binary `p >= 0.5 -> 1`,
/// categorical the nearest level of `p * (h - 1)`.
fn quantized_prior(p: f64, cardinality: u32) -> u32 {
    let h = cardinality.max(2);
    ((p.clamp(0.0, 1.0) * f64::from(h - 1)).round() as u32).min(h - 1)
}

/// The head atom of `rule` when it is a derivation rule of `relation`.
fn derivation_head<'r>(rule: &'r CompiledRule, relation: &str) -> Option<&'r CompiledAtom> {
    let head = rule.head.first()?;
    (rule.kind == RuleKind::Derivation && head.relation == relation).then_some(head)
}

#[allow(clippy::too_many_arguments)]
fn ground_closure(
    program: &CompiledProgram,
    gcfg: &GroundConfig,
    cfg: &QueryConfig,
    spatial: &HashMap<String, SpatialParams>,
    db: &mut Database,
    evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
    targets: &[(String, i64)],
    ctx: &ExecContext,
) -> Result<BatchNeighborhood, QueryError> {
    let mut grounder = Grounder::new(program, gcfg.clone());
    let mut out = Grounding::new_empty();
    let mut warnings: Vec<String> = Vec::new();
    let mut outcome = RunOutcome::Completed;

    // --- Seeds: materialize each bound atom through its derivation
    // rules (duplicate targets collapse to one seed).
    let mut requested: Vec<(String, i64)> = Vec::new();
    for t in targets {
        if !requested.contains(t) {
            requested.push(t.clone());
        }
    }
    for (relation, id) in &requested {
        for rule in &program.rules {
            let Some(head) = derivation_head(rule, relation) else { continue };
            // A head whose id position is a constant binds no slot: a
            // seeded probe cannot select on it — skip.
            let Some(seed) = unify_head(head, &[Value::Int(*id)]).filter(|s| !s.values.is_empty())
            else {
                continue;
            };
            grounder.ground_rule(rule, db, &mut out, &[seed], None, |g, out, b| {
                g.apply_bindings(rule, &b, evidence, out);
                Ok(())
            })?;
        }
    }
    let mut seeds: Vec<SeedAtom> = Vec::new();
    let mut missing: Vec<(String, i64)> = Vec::new();
    for (relation, id) in requested {
        let found = out.atoms_of(&relation).iter().copied().find(|&v| {
            out.atom_meta[v as usize].1.first().and_then(Value::as_int) == Some(id)
        });
        match found {
            Some(var) => seeds.push(SeedAtom { relation, id, var }),
            None => missing.push((relation, id)),
        }
    }
    let seed_set: HashSet<VarId> = seeds.iter().map(|s| s.var).collect();

    // --- Breadth-first closure up to the hop horizon, jointly from
    // every seed: a variable reachable from two seeds is expanded once.
    let mut hops: HashMap<VarId, usize> = seeds.iter().map(|s| (s.var, 0)).collect();
    let mut expanded: HashSet<VarId> = HashSet::new();
    let mut frontier: VecDeque<VarId> = seeds.iter().map(|s| s.var).collect();
    // Logical factors are deduplicated by (rule, binding key), keeping
    // the multiplicity of identical bindings (see `Grounder::ground_rule`)
    // — what the full grounder's one-pass evaluation implies; spatial
    // pairs by unordered endpoints.
    let mut factor_seen: Vec<KeyMap<usize>> = vec![KeyMap::default(); program.rules.len()];
    let mut pair_seen: HashSet<(VarId, VarId)> = HashSet::new();
    let mut unselective_warned: HashSet<usize> = HashSet::new();

    'bfs: while let Some(v) = frontier.pop_front() {
        let hop = hops[&v];
        if hop >= cfg.hop_depth {
            continue;
        }
        // Evidence blocks expansion (observed seeds included): factors
        // touching it are in, nothing beyond it matters for any seed's
        // conditional.
        if out.graph.variable(v).evidence.is_some() {
            continue;
        }
        if let Some(interrupt) = ctx.interrupted() {
            outcome = outcome.combine(interrupt);
            break 'bfs;
        }
        ctx.check_resources(
            Phase::Grounding,
            ResourceUsage {
                factors: out.graph.total_factors() as u64,
                variables: out.graph.num_variables() as u64,
                memory_bytes: 0,
            },
        )?;
        expanded.insert(v);
        let (rel_v, vals_v) = out.atom_meta[v as usize].clone();
        let loc_v = out.graph.variable(v).location;
        let mut discovered: Vec<VarId> = Vec::new();

        // Logical expansion: every inference rule whose head can have
        // produced v, seeded with v's values.
        for (ri, rule) in program.rules.iter().enumerate() {
            if !matches!(rule.kind, RuleKind::Inference(_)) {
                continue;
            }
            for head in rule.head.iter().filter(|h| h.relation == rel_v) {
                let Some(seed) = unify_head(head, &vals_v) else {
                    continue; // this head cannot be v
                };
                if seed.values.is_empty() {
                    // Nothing bound: evaluating would ground the whole
                    // rule, defeating demand-driven enumeration.
                    if unselective_warned.insert(ri) {
                        warnings.push(format!(
                            "rule {} head binds no query slot; its factors are not expanded",
                            rule.label
                        ));
                    }
                    continue;
                }
                let seen = Some(&mut factor_seen[ri]);
                grounder.ground_rule(rule, db, &mut out, &[seed], seen, |g, out, b| {
                    for f in g.apply_bindings(rule, &b, evidence, out) {
                        discovered.extend(&out.graph.factors()[f as usize].vars);
                    }
                    Ok(())
                })?;
            }
        }

        // Spatial expansion: materialize the relation's atoms within the
        // factor radius and pair v against every included one.
        if let (Some(params), Some(p)) = (spatial.get(&rel_v), loc_v) {
            let spatial_col =
                program.schema(&rel_v).and_then(|s| s.first_spatial_column());
            for rule in &program.rules {
                let Some(head) = derivation_head(rule, &rel_v) else { continue };
                let Some(SlotTerm::Slot(ls)) = spatial_col.and_then(|c| head.terms.get(c))
                else {
                    continue;
                };
                let reach = candidate_radius(gcfg.metric, params.radius);
                let seed = BoundSeed { within: Some((*ls, p, reach)), ..BoundSeed::default() };
                grounder.ground_rule(rule, db, &mut out, &[seed], None, |g, out, mut b| {
                    b.retain(|b| {
                        b[*ls].as_geom().is_some_and(|q| {
                            metric_distance(gcfg.metric, &p, &q.representative_point())
                                <= params.radius
                        })
                    });
                    g.apply_bindings(rule, &b, evidence, out);
                    Ok(())
                })?;
            }
            // Without the full atom cloud there are no co-occurrence
            // statistics to prune with (Section IV-C); a categorical
            // relation gets the diagonal agreement pairs.
            let diagonal: Option<Vec<(u32, u32)>> =
                gcfg.categorical(&rel_v).map(|h| (0..h).map(|t| (t, t)).collect());
            let peers: Vec<(VarId, Point)> = out
                .atoms_of(&rel_v)
                .iter()
                .filter(|&&u| u != v && !pair_seen.contains(&(v.min(u), v.max(u))))
                .filter_map(|&u| out.graph.variable(u).location.map(|q| (u, q)))
                .collect();
            for (u, q) in peers {
                if gcfg.emit_spatial_pair(&mut out.graph, params, (v, p), (u, q), diagonal.as_deref())
                {
                    pair_seen.insert((v.min(u), v.max(u)));
                    discovered.push(u);
                }
            }
        } else if spatial.contains_key(&rel_v) && loc_v.is_none() {
            warnings.push(format!(
                "spatial atom {} has no location; spatial expansion skipped",
                out.graph.variable(v).name
            ));
        }

        for u in discovered {
            if let std::collections::hash_map::Entry::Vacant(e) = hops.entry(u) {
                e.insert(hop + 1);
                frontier.push_back(u);
            }
        }
    }

    // --- Seal the boundary: frontier atoms that were discovered but
    // never expanded behave like evidence under ClampPrior.
    let mut boundary_clamped = 0usize;
    if cfg.boundary == BoundaryPolicy::ClampPrior {
        let unexpanded: Vec<VarId> = hops
            .keys()
            .copied()
            .filter(|u| !seed_set.contains(u) && !expanded.contains(u))
            .collect();
        for u in unexpanded {
            let var = out.graph.variable(u);
            if var.evidence.is_some() {
                continue;
            }
            let cardinality = var.domain.cardinality();
            let rel_u = &out.atom_meta[u as usize].0;
            let p = cfg.priors.get(rel_u).copied().unwrap_or(0.5);
            out.graph.set_evidence(u, Some(quantized_prior(p, cardinality)));
            boundary_clamped += 1;
        }
    }

    // --- Drop atoms that ended up with no factor at all (e.g. spatial
    // candidates whose exact weight was negligible).
    let isolated: HashSet<VarId> = (0..out.graph.num_variables() as VarId)
        .filter(|&u| {
            !seed_set.contains(&u)
                && out.graph.factors_of(u).is_empty()
                && out.graph.spatial_factors_of(u).is_empty()
        })
        .collect();
    let mut hop_vec: Vec<usize> = (0..out.graph.num_variables())
        .map(|u| hops.get(&(u as VarId)).copied().unwrap_or(cfg.hop_depth))
        .collect();
    if !isolated.is_empty() {
        let remap = out.remove_atoms(&isolated);
        for s in &mut seeds {
            s.var = remap[s.var as usize].expect("seeds are never isolated-removed");
        }
        let mut compacted = vec![0usize; out.graph.num_variables()];
        for (old, hop) in hop_vec.iter().enumerate() {
            if let Some(new) = remap[old] {
                compacted[new as usize] = *hop;
            }
        }
        hop_vec = compacted;
    }

    Ok(BatchNeighborhood {
        grounding: out,
        seeds,
        missing,
        hops: hop_vec,
        boundary_clamped,
        outcome,
        ground_time: Duration::ZERO,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryConfig;
    use sya_geom::DistanceMetric;
    use sya_lang::{compile, parse_program, GeomConstants};
    use sya_runtime::RunBudget;
    use sya_store::{Column, DataType, TableSchema};

    const SRC: &str = r#"
    Well(id bigint, location point, arsenic double).
    @spatial(exp)
    IsSafe?(id bigint, location point).
    D1: IsSafe(W, L) = NULL :- Well(W, L, _).
    R1: @weight(0.7) IsSafe(W1, L1) => IsSafe(W2, L2) :-
        Well(W1, L1, A1), Well(W2, L2, A2)
        [distance(L1, L2) < 3, A1 < 0.2, A2 < 0.2, W1 != W2].
    "#;

    fn compiled() -> CompiledProgram {
        let p = parse_program(SRC).unwrap();
        compile(&p, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap()
    }

    fn make_db(n: i64) -> Database {
        let mut db = Database::new();
        let schema = TableSchema::new(vec![
            Column::new("id", DataType::BigInt),
            Column::new("location", DataType::Point),
            Column::new("arsenic", DataType::Double),
        ]);
        let t = db.create_table("Well", schema).unwrap();
        for i in 0..n {
            t.insert(vec![
                Value::Int(i),
                Value::from(Point::new(i as f64, 0.0)),
                Value::Double(if i < n / 2 { 0.1 } else { 0.5 }),
            ])
            .unwrap();
        }
        db
    }

    fn evidence(rel: &str, vals: &[Value]) -> Option<u32> {
        if rel != "IsSafe" {
            return None;
        }
        match vals.first().and_then(Value::as_int) {
            Some(0) | Some(1) => Some(1),
            _ => None,
        }
    }

    fn query_grounder(ground: GroundConfig, config: QueryConfig) -> QueryGrounder {
        QueryGrounder::new(compiled(), ground, config)
    }

    fn tight_ground() -> GroundConfig {
        GroundConfig {
            spatial_radius: Some(2.0),
            weighting_bandwidth: Some(1.0),
            ..GroundConfig::default()
        }
    }

    #[test]
    fn neighborhood_is_a_strict_subset_of_the_kb() {
        let mut db = make_db(40);
        let mut qg = query_grounder(tight_ground(), QueryConfig::default());
        let nh = qg
            .neighborhood(&mut db, &evidence, "IsSafe", 20, &ExecContext::unbounded())
            .unwrap();
        // Hop depth 2 with joins/radius reaching +-3 cannot touch more
        // than a dozen of the 40 wells.
        assert!(nh.grounding.graph.num_variables() < 20);
        assert!(nh.grounding.graph.num_variables() >= 3);
        assert_eq!(nh.hops[nh.seed as usize], 0);
        let (_, vals) = &nh.grounding.atom_meta[nh.seed as usize];
        assert_eq!(vals.first().and_then(Value::as_int), Some(20));
    }

    #[test]
    fn evidence_seed_answers_without_sampling() {
        let mut db = make_db(10);
        let mut qg = query_grounder(tight_ground(), QueryConfig::default());
        let a = qg
            .marginal(&mut db, &evidence, "IsSafe", 0, &ExecContext::unbounded())
            .unwrap();
        assert_eq!(a.score, 1.0);
        assert_eq!(a.evidence, Some(1));
        assert!(!a.stats.sampled);
    }

    #[test]
    fn sampled_answer_is_a_probability_and_leans_on_safe_evidence() {
        let mut db = make_db(10);
        let mut qg = query_grounder(tight_ground(), QueryConfig::default());
        let a = qg
            .marginal(&mut db, &evidence, "IsSafe", 2, &ExecContext::unbounded())
            .unwrap();
        assert!(a.stats.sampled);
        assert!((0.0..=1.0).contains(&a.score));
        // Well 2 sits next to two safe-observed wells with positive
        // implication and spatial agreement factors: the marginal must
        // land clearly above a fair coin.
        assert!(a.score > 0.55, "score {}", a.score);
    }

    #[test]
    fn unknown_relation_and_missing_id_are_typed_errors() {
        let mut db = make_db(10);
        let mut qg = query_grounder(tight_ground(), QueryConfig::default());
        let ctx = ExecContext::unbounded();
        assert!(matches!(
            qg.marginal(&mut db, &evidence, "Nope", 0, &ctx),
            Err(QueryError::UnknownRelation(_))
        ));
        assert!(matches!(
            qg.marginal(&mut db, &evidence, "Well", 0, &ctx),
            Err(QueryError::UnknownRelation(_))
        ));
        assert!(matches!(
            qg.marginal(&mut db, &evidence, "IsSafe", 999, &ctx),
            Err(QueryError::NotFound { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_is_surfaced_as_budget_error() {
        let mut db = make_db(400);
        let mut qg = query_grounder(
            tight_ground(),
            QueryConfig { hop_depth: 50, ..QueryConfig::default() },
        );
        let ctx = ExecContext::new(RunBudget::unlimited().with_max_variables(4));
        assert!(matches!(
            qg.neighborhood(&mut db, &evidence, "IsSafe", 200, &ctx),
            Err(QueryError::Budget(_))
        ));
    }

    #[test]
    fn hop_depth_zero_grounds_the_seed_alone() {
        let mut db = make_db(10);
        let mut qg = query_grounder(
            tight_ground(),
            QueryConfig { hop_depth: 0, ..QueryConfig::default() },
        );
        let nh = qg
            .neighborhood(&mut db, &evidence, "IsSafe", 5, &ExecContext::unbounded())
            .unwrap();
        assert_eq!(nh.grounding.graph.num_variables(), 1);
        assert_eq!(nh.grounding.graph.total_factors(), 0);
    }

    #[test]
    fn boundary_atoms_are_clamped_under_the_default_policy() {
        let mut db = make_db(40);
        let mut qg = query_grounder(
            tight_ground(),
            QueryConfig { hop_depth: 1, ..QueryConfig::default() },
        );
        let nh = qg
            .neighborhood(&mut db, &evidence, "IsSafe", 20, &ExecContext::unbounded())
            .unwrap();
        assert!(nh.boundary_clamped > 0);
        // Every non-seed variable is sealed: evidence or clamped.
        for u in 0..nh.grounding.graph.num_variables() as VarId {
            if u != nh.seed {
                assert!(nh.grounding.graph.variable(u).evidence.is_some());
            }
        }
    }

    #[test]
    fn free_boundary_policy_leaves_the_frontier_open() {
        let mut db = make_db(40);
        let mut qg = query_grounder(
            tight_ground(),
            QueryConfig {
                hop_depth: 1,
                boundary: BoundaryPolicy::Free,
                ..QueryConfig::default()
            },
        );
        let nh = qg
            .neighborhood(&mut db, &evidence, "IsSafe", 20, &ExecContext::unbounded())
            .unwrap();
        assert_eq!(nh.boundary_clamped, 0);
        let free = (0..nh.grounding.graph.num_variables() as VarId)
            .filter(|&u| nh.grounding.graph.variable(u).evidence.is_none())
            .count();
        assert!(free > 1);
    }

    #[test]
    fn batch_union_shares_overlapping_neighborhoods() {
        let mut db = make_db(40);
        let mut qg = query_grounder(tight_ground(), QueryConfig::default());
        let ctx = ExecContext::unbounded();
        let targets = vec![
            ("IsSafe".to_owned(), 20),
            ("IsSafe".to_owned(), 21),
            ("IsSafe".to_owned(), 20),
            ("IsSafe".to_owned(), 999),
        ];
        let batch = qg.neighborhood_batch(&mut db, &evidence, &targets, &ctx).unwrap();
        assert_eq!(batch.seeds.len(), 2, "duplicates collapse, missing excluded");
        assert_eq!(batch.missing, vec![("IsSafe".to_owned(), 999)]);
        for s in &batch.seeds {
            assert_eq!(batch.hops[s.var as usize], 0);
        }
        // The union grounds overlapping closures once: strictly fewer
        // variables than the two single-seed neighborhoods combined.
        let a = qg.neighborhood(&mut db, &evidence, "IsSafe", 20, &ctx).unwrap();
        let b = qg.neighborhood(&mut db, &evidence, "IsSafe", 21, &ctx).unwrap();
        assert!(
            batch.grounding.graph.num_variables()
                < a.grounding.graph.num_variables() + b.grounding.graph.num_variables()
        );
        let answers = qg.answer_batch(&batch, &ctx).unwrap();
        assert_eq!(answers.len(), 2);
        for ans in &answers {
            assert!(ans.stats.sampled);
            assert!((0.0..=1.0).contains(&ans.score));
        }
    }

    #[test]
    fn batch_with_evidence_seed_mixes_sampled_and_observed() {
        let mut db = make_db(10);
        let mut qg = query_grounder(tight_ground(), QueryConfig::default());
        let ctx = ExecContext::unbounded();
        let targets = vec![("IsSafe".to_owned(), 0), ("IsSafe".to_owned(), 2)];
        let batch = qg.neighborhood_batch(&mut db, &evidence, &targets, &ctx).unwrap();
        let answers = qg.answer_batch(&batch, &ctx).unwrap();
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].evidence, Some(1));
        assert!(!answers[0].stats.sampled);
        assert!(answers[1].stats.sampled);
    }

    #[test]
    fn hash_indexes_survive_across_queries() {
        let mut db = make_db(40);
        let obs = sya_runtime::Obs::enabled();
        db.attach_obs(obs.clone());
        let builds =
            || obs.metrics().unwrap().counter_value("store.hash_index_builds_total").unwrap_or(0);
        let mut qg = query_grounder(tight_ground(), QueryConfig::default());
        let ctx = ExecContext::unbounded();
        let a = qg.marginal(&mut db, &evidence, "IsSafe", 10, &ctx).unwrap();
        let built = builds();
        assert!(built > 0, "the seeded probes go through the table's hash index");
        let b = qg.marginal(&mut db, &evidence, "IsSafe", 10, &ctx).unwrap();
        assert_eq!(builds(), built, "the second query builds no index");
        assert_eq!(a.stats.variables, b.stats.variables);
        assert_eq!(a.stats.logical_factors, b.stats.logical_factors);

        // A row insert drops the table's indexes; the next query
        // rebuilds them and sees the new well next door.
        db.table_mut("Well")
            .unwrap()
            .insert(vec![
                Value::Int(100),
                Value::from(Point::new(10.5, 0.0)),
                Value::Double(0.1),
            ])
            .unwrap();
        let c = qg.marginal(&mut db, &evidence, "IsSafe", 10, &ctx).unwrap();
        assert!(builds() > built, "a row insert rebuilds the index");
        assert!(c.stats.variables > a.stats.variables);
        assert!(qg.marginal(&mut db, &evidence, "IsSafe", 100, &ctx).is_ok());
    }
}
