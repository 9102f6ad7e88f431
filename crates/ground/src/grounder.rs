//! The grounding executor: compiled rules + input data → spatial factor
//! graph.

use crate::key::{self, Key, KeyMap};
use crate::pruning::{allowed_domain_pairs, build_cooccurrence};
use crate::GroundError;
use std::collections::{BTreeSet, HashMap, HashSet};
use sya_fg::{
    Domain, Factor, FactorKind, FactorGraph, SpatialFactor, VarId, Variable, WeightingFn,
};
use sya_geom::{haversine_miles, DistanceMetric, Point, RTree, Rect};
use sya_lang::{CompiledAtom, CompiledProgram, CompiledRule, HeadOp, RuleKind, SlotTerm};
use sya_runtime::{ExecContext, Obs, Phase, ResourceUsage, RunOutcome};
use sya_store::{expr_columns, BinOp, Database, Expr, SpatialFn, Value};

/// How many spatial-factor emissions pass between interruption / budget
/// checkpoints inside the R-tree pair loop. Count checks are O(1); the
/// O(n) memory estimate only runs at the coarser per-rule checkpoints.
const SPATIAL_CHECKPOINT_INTERVAL: usize = 4096;

/// How many binding applications pass between count-only budget checks
/// inside a rule's binding loop. A single wide join can blow the budget
/// mid-rule, so waiting for the per-rule checkpoint is too late; each
/// check is O(1) and surfaced as `ground.budget_checks_total`.
const BINDING_CHECKPOINT_INTERVAL: usize = 1024;

/// Grounding configuration.
#[derive(Debug, Clone)]
pub struct GroundConfig {
    /// Distance semantics for `distance()` conditions and spatial factor
    /// weights (Euclidean for projected data, haversine miles for
    /// lon/lat).
    pub metric: DistanceMetric,
    /// Scale (weight at distance 0) of the `@spatial` weighting function.
    pub weighting_scale: f64,
    /// Decay bandwidth; `None` derives it from the data extent
    /// (bbox diagonal / 10).
    pub weighting_bandwidth: Option<f64>,
    /// Neighbour cutoff for spatial factor generation; `None` derives the
    /// distance at which the weighting function becomes negligible.
    pub spatial_radius: Option<f64>,
    /// The pruning threshold `T` of Section IV-C (categorical variables).
    pub pruning_threshold: f64,
    /// Generate spatial factors (`true` = Sya; `false` = DeepDive-style
    /// baseline that treats spatial predicates as plain booleans).
    pub generate_spatial_factors: bool,
    /// Domain size per variable relation; absent means binary.
    pub domains: HashMap<String, u32>,
}

impl Default for GroundConfig {
    fn default() -> Self {
        GroundConfig {
            metric: DistanceMetric::Euclidean,
            weighting_scale: 1.0,
            weighting_bandwidth: None,
            spatial_radius: None,
            pruning_threshold: 0.5,
            generate_spatial_factors: true,
            domains: HashMap::new(),
        }
    }
}

/// Counters describing a grounding run (feeds Table I and Fig. 9b/10b).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundingStats {
    pub rules_executed: usize,
    /// Number of evaluated (translated) queries — one per body atom, as
    /// each atom becomes a scan/join stage.
    pub queries_executed: usize,
    pub variables_created: usize,
    pub logical_factors: usize,
    pub spatial_factors: usize,
    /// Categorical domain pairs rejected by the threshold `T`.
    pub pruned_domain_pairs: usize,
}

/// The grounding result: the graph plus the atom catalogue and the
/// per-factor provenance.
///
/// Every identity here is a typed [`Key`] (its equality rules are in
/// [`crate::key`]); no text is built per binding or per atom probe.
/// The catalogue is one map per relation from the key of an atom's
/// head values to its variable, so a probe hashes the relation name
/// once and looks up the key bytes it encoded into a reused buffer.
/// Each logical factor records the index of its rule in one label
/// table and the key of the binding that produced it — the provenance
/// a retraction matches on, found through the factors of one head atom
/// rather than by scanning the graph.
#[derive(Debug, Clone)]
pub struct Grounding {
    pub graph: FactorGraph,
    /// Relation name → its atoms.
    catalogue: HashMap<String, RelationAtoms>,
    /// Per-variable `(relation, head values)` for result reporting.
    pub atom_meta: Vec<(String, Vec<Value>)>,
    /// The labels of the rules that made factors, each once.
    rule_labels: Vec<String>,
    /// Index into `rule_labels` of each logical factor's rule, parallel
    /// to `graph.factors()` — the weight-tying groups for learning.
    factor_rules: Vec<u32>,
    /// Key of the binding each logical factor came from, parallel to
    /// `graph.factors()` (DeepDive keeps the same per-factor provenance
    /// for its incremental maintenance).
    factor_bindings: Vec<Key>,
    pub stats: GroundingStats,
    /// How the grounding run ended. [`RunOutcome::Completed`] unless a
    /// deadline or cancellation stopped it early — in which case the
    /// graph is a valid prefix (all variables exist; some factors may be
    /// missing) and downstream phases should propagate the outcome.
    pub outcome: RunOutcome,
}

/// The atoms of one relation: key → variable, and the variables in
/// creation order.
#[derive(Debug, Clone, Default)]
struct RelationAtoms {
    ids: KeyMap<VarId>,
    atoms: Vec<VarId>,
}

impl Grounding {
    /// An empty grounding: the starting point of a full [`Grounder::ground`]
    /// run, and of the demand-driven (magic-sets) neighborhood grounding
    /// in `sya-query`, which materializes atoms and factors into it one
    /// [`Grounder::apply_bindings`] batch at a time.
    pub fn new_empty() -> Grounding {
        Grounding {
            graph: FactorGraph::new(),
            catalogue: HashMap::new(),
            atom_meta: Vec::new(),
            rule_labels: Vec::new(),
            factor_rules: Vec::new(),
            factor_bindings: Vec::new(),
            stats: GroundingStats::default(),
            outcome: RunOutcome::Completed,
        }
    }

    /// Looks up the ground atom for `relation(values...)`.
    pub fn atom_id(&self, relation: &str, values: &[Value]) -> Option<VarId> {
        self.atom_by_key(relation, Key::of(values).as_bytes())
    }

    /// Looks up a ground atom by the key of its head values.
    pub fn atom_by_key(&self, relation: &str, key: &[u8]) -> Option<VarId> {
        self.catalogue.get(relation)?.ids.get(key).copied()
    }

    /// The label of the rule that produced logical factor `idx`.
    pub fn factor_rule(&self, idx: u32) -> &str {
        &self.rule_labels[self.factor_rules[idx as usize] as usize]
    }

    /// Index of `label` in the label table, added on first sight.
    fn rule_index(&mut self, label: &str) -> u32 {
        match self.rule_labels.iter().position(|l| l == label) {
            Some(i) => i as u32,
            None => {
                self.rule_labels.push(label.to_owned());
                (self.rule_labels.len() - 1) as u32
            }
        }
    }

    /// Records the provenance of logical factor `idx` — pushed for a new
    /// slot, overwritten for a recycled one.
    fn set_provenance(&mut self, idx: u32, rule: u32, binding: Key) {
        let i = idx as usize;
        if i == self.factor_rules.len() {
            self.factor_rules.push(rule);
            self.factor_bindings.push(binding);
        } else {
            self.factor_rules[i] = rule;
            self.factor_bindings[i] = binding;
        }
    }

    /// Logical factor indices grouped by originating rule label —
    /// the tied-weight groups for weight learning. Tombstoned factors
    /// are excluded.
    pub fn rule_factor_groups(&self) -> Vec<(String, Vec<u32>)> {
        let mut map: std::collections::BTreeMap<&str, Vec<u32>> = Default::default();
        for i in 0..self.factor_rules.len() as u32 {
            if !self.graph.is_factor_dead(i) {
                map.entry(self.factor_rule(i)).or_default().push(i);
            }
        }
        map.into_iter().map(|(label, ids)| (label.to_owned(), ids)).collect()
    }

    /// Bulk deletion: removes the given ground atoms, every factor
    /// touching them, and all catalogue entries; ids are compacted.
    /// Returns the old-id → new-id map.
    pub fn remove_atoms(
        &mut self,
        remove: &HashSet<VarId>,
    ) -> Vec<Option<VarId>> {
        // Factors surviving = live and all endpoints survive (same rule
        // the graph compaction applies); keep the factor side tables in
        // lockstep.
        let bindings = std::mem::take(&mut self.factor_bindings);
        let (rules, bindings): (Vec<u32>, Vec<Key>) = self
            .graph
            .factors()
            .iter()
            .enumerate()
            .zip(self.factor_rules.iter().zip(bindings))
            .filter(|((i, f), _)| {
                !self.graph.is_factor_dead(*i as u32)
                    && f.vars.iter().all(|v| !remove.contains(v) && !self.graph.is_var_dead(*v))
            })
            .map(|(_, (&rule, key))| (rule, key))
            .unzip();
        let (graph, remap) = self.graph.remove_variables(remove);
        self.graph = graph;
        self.factor_rules = rules;
        self.factor_bindings = bindings;
        debug_assert_eq!(self.factor_rules.len(), self.graph.num_factors());

        let mut atom_meta = Vec::with_capacity(self.graph.num_variables());
        for (old, meta) in self.atom_meta.iter().enumerate() {
            if remap[old].is_some() {
                atom_meta.push(meta.clone());
            }
        }
        self.atom_meta = atom_meta;
        let renumber = |id: &mut VarId| match remap[*id as usize] {
            Some(new) => {
                *id = new;
                true
            }
            None => false,
        };
        for relation in self.catalogue.values_mut() {
            relation.ids.retain(|_, id| renumber(id));
            relation.atoms.retain_mut(|id| renumber(id));
        }
        self.refresh_stats();
        remap
    }

    /// Room for `n` more logical factors in the graph and side tables.
    fn reserve_factors(&mut self, n: usize) {
        self.graph.reserve_factors(n);
        self.factor_rules.reserve(n);
        self.factor_bindings.reserve(n);
    }

    /// Re-reads the graph-size counters of [`Self::stats`] off the graph.
    fn refresh_stats(&mut self) {
        self.stats.variables_created = self.graph.num_variables();
        self.stats.logical_factors = self.graph.num_factors();
        self.stats.spatial_factors = self.graph.num_spatial_factors();
    }

    /// The live graph as sorted, variable-id-independent lines — one per
    /// atom (`atom|name|domain|evidence`), logical factor
    /// (`factor|rule|kind|head atoms|weight`) and spatial factor
    /// (`spatial|a|b|weight|domain values`, endpoints in name order).
    /// Two groundings of the same knowledge base have equal signatures
    /// however their ids were assigned; the snapshot corpus and the
    /// delta isomorphism suites compare on it.
    pub fn signature(&self) -> Vec<String> {
        let g = &self.graph;
        let name = |v: VarId| {
            let (relation, values) = &self.atom_meta[v as usize];
            let args: Vec<String> = values.iter().map(Value::to_string).collect();
            format!("{relation}({})", args.join(", "))
        };
        let mut lines = Vec::new();
        for v in (0..g.num_variables() as VarId).filter(|&v| !g.is_var_dead(v)) {
            let var = g.variable(v);
            let evidence = var.evidence.map_or("?".to_owned(), |e| e.to_string());
            lines.push(format!("atom|{}|{}|{evidence}", name(v), var.domain.cardinality()));
        }
        for (i, f) in g.factors().iter().enumerate() {
            if !g.is_factor_dead(i as u32) {
                let atoms: Vec<String> = f.vars.iter().map(|&v| name(v)).collect();
                let rule = self.factor_rule(i as u32);
                lines.push(format!("factor|{rule}|{:?}|{}|{}", f.kind, atoms.join(" "), f.weight));
            }
        }
        for (i, f) in g.spatial_factors().iter().enumerate() {
            if !g.is_spatial_factor_dead(i as u32) {
                let (mut a, mut b) = (name(f.a), name(f.b));
                let mut pair = f.domain_pair;
                if b < a {
                    std::mem::swap(&mut a, &mut b);
                    pair = pair.map(|(ta, tb)| (tb, ta));
                }
                let values = pair.map_or("-".to_owned(), |(ta, tb)| format!("{ta},{tb}"));
                lines.push(format!("spatial|{a}|{b}|{:.9}|{values}", f.weight));
            }
        }
        lines.sort_unstable();
        lines
    }

    /// All ground atoms of a variable relation.
    pub fn atoms_of(&self, relation: &str) -> &[VarId] {
        self.catalogue.get(relation).map_or(&[], |r| r.atoms.as_slice())
    }

    /// Tombstones one logical factor in place (no compaction); its
    /// provenance stays behind the tombstone, where no live match looks.
    /// Returns the factor's scope (empty when it was already dead).
    pub fn tombstone_factor(&mut self, idx: u32) -> Vec<VarId> {
        self.graph.remove_factor(idx)
    }

    /// Live logical factors produced by `rule_label` from the binding
    /// with key `binding` — the exact provenance match a retraction uses
    /// to decide which factors a vanished binding owns. Every such
    /// factor touches the binding's head atom `anchor`, so only that
    /// atom's factors are compared: O(degree), not O(factors).
    pub fn live_factors_matching(&self, rule_label: &str, anchor: VarId, binding: &Key) -> Vec<u32> {
        let Some(rule) = self.rule_labels.iter().position(|l| l == rule_label) else {
            return Vec::new();
        };
        let mut hits: Vec<u32> = self
            .graph
            .factors_of(anchor)
            .iter()
            .copied()
            .filter(|&i| {
                !self.graph.is_factor_dead(i)
                    && self.factor_rules[i as usize] == rule as u32
                    && self.factor_bindings[i as usize] == *binding
            })
            .collect();
        // A factor naming `anchor` twice is listed twice.
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    /// Removes a ground atom from the catalogue (id map + per-relation
    /// list). The variable slot itself stays in the graph — pair with
    /// [`FactorGraph::kill_variable`] via [`Grounding::kill_atom`].
    pub fn retract_atom(&mut self, v: VarId) {
        let Some((relation, values)) = self.atom_meta.get(v as usize) else {
            return;
        };
        if let Some(atoms) = self.catalogue.get_mut(relation) {
            atoms.ids.remove(Key::of(values).as_bytes());
            atoms.atoms.retain(|&x| x != v);
        }
    }

    /// Fully retires a ground atom in place (no id compaction):
    /// tombstones every live logical and spatial factor touching it,
    /// removes it from the catalogue, and retires its variable slot.
    /// Returns the surviving neighbour variables whose Markov blanket
    /// changed (the set incremental re-inference must resample).
    pub fn kill_atom(&mut self, v: VarId) -> Vec<VarId> {
        let mut touched = Vec::new();
        for idx in self.graph.factors_of(v).to_vec() {
            for u in self.tombstone_factor(idx) {
                if u != v && !self.graph.is_var_dead(u) {
                    touched.push(u);
                }
            }
        }
        for idx in self.graph.spatial_factors_of(v).to_vec() {
            if let Some((a, b)) = self.graph.remove_spatial_factor(idx) {
                for u in [a, b] {
                    if u != v && !self.graph.is_var_dead(u) {
                        touched.push(u);
                    }
                }
            }
        }
        self.retract_atom(v);
        self.graph.kill_variable(v);
        touched.sort_unstable();
        touched.dedup();
        touched
    }
}

/// The one restriction a rule-body evaluation runs under. The default
/// restricts nothing (full grounding); bound slot values are a query's
/// bound atom, `rows` (with `skip`) is a semi-naive delta pass. Bound
/// values enter the binding row *before* the first body atom, so every
/// probe strategy (hash equi-probe, R-tree spatial probe, condition
/// filters) can exploit them.
#[derive(Debug, Clone, Default)]
pub struct BoundSeed {
    /// Slots pre-bound with known values.
    pub values: Vec<(usize, Value)>,
    /// Restrict the body atom that first binds this slot to rows whose
    /// spatial column lies within the candidate radius (coordinate
    /// units; see [`candidate_radius`]) of the center point — the
    /// "all atoms near here" enumeration of spatial-neighbor expansion.
    pub within: Option<(usize, Point, f64)>,
    /// Restrict body atom `k` to these row ids of its relation.
    pub rows: Option<(usize, Vec<usize>)>,
    /// Skip these row ids of body atom `j`, per listed atom.
    pub skip: Vec<(usize, Vec<usize>)>,
}

/// Semi-naive delta seeds: one per body atom `k` of `rule` whose
/// relation has changed rows, restricting that atom to them and every
/// earlier atom to the unchanged rows. A match touching changed rows at
/// several positions is found once, by the pass of its first such
/// position, so the passes together enumerate every new match exactly
/// as often as full grounding would — duplicate rows included.
pub fn delta_seeds(rule: &CompiledRule, changed: &HashMap<String, Vec<usize>>) -> Vec<BoundSeed> {
    let changed_at = |k: usize| changed.get(&rule.body[k].relation);
    (0..rule.body.len())
        .filter_map(|k| {
            let rows = changed_at(k)?;
            let skip = (0..k).filter_map(|j| Some((j, changed_at(j)?.clone()))).collect();
            Some(BoundSeed { rows: Some((k, rows.clone())), skip, ..BoundSeed::default() })
        })
        .collect()
}

/// Head-atom values under a binding (wildcards materialize as `Null`).
pub fn head_values(head: &CompiledAtom, binding: &[Value]) -> Vec<Value> {
    head.terms
        .iter()
        .map(|t| match t {
            SlotTerm::Slot(s) => binding[*s].clone(),
            SlotTerm::Const(v) => v.clone(),
            SlotTerm::Wildcard => Value::Null,
        })
        .collect()
}

/// The [`Key`] of [`head_values`], encoded without building them.
pub fn head_key(head: &CompiledAtom, binding: &[Value]) -> Key {
    let mut buf = Vec::new();
    encode_head(head, binding, &mut buf);
    Key::from(buf.as_slice())
}

/// Writes the key of `head` under `binding` into `buf` (cleared first).
fn encode_head(head: &CompiledAtom, binding: &[Value], buf: &mut Vec<u8>) {
    buf.clear();
    for t in &head.terms {
        match t {
            SlotTerm::Slot(s) => key::encode(&binding[*s], buf),
            SlotTerm::Const(v) => key::encode(v, buf),
            SlotTerm::Wildcard => key::encode(&Value::Null, buf),
        }
    }
}

/// The inverse of [`head_values`]: the seed under which `head`
/// instantiates to the ground atom `values`, or `None` when it cannot
/// (a constant or wildcard disagrees, or a repeated slot would need two
/// values). A `values` slice shorter than the head binds that prefix
/// only — a query knows the id column, not the whole atom. `Null`
/// values bind nothing (`Null` never satisfies SQL equality), so a
/// caller that needs the exact atom compares [`head_values`] of each
/// binding against it.
pub fn unify_head(head: &CompiledAtom, values: &[Value]) -> Option<BoundSeed> {
    let mut seed = BoundSeed::default();
    for (term, want) in head.terms.iter().zip(values) {
        match term {
            SlotTerm::Slot(_) if want.is_null() => {}
            SlotTerm::Slot(s) => match seed.values.iter().find(|(slot, _)| slot == s) {
                Some((_, prev)) if prev.sql_eq(want) != Some(true) => return None,
                Some(_) => {}
                None => seed.values.push((*s, want.clone())),
            },
            SlotTerm::Const(c) if c == want || c.sql_eq(want) == Some(true) => {}
            SlotTerm::Wildcard if want.is_null() => {}
            SlotTerm::Const(_) | SlotTerm::Wildcard => return None,
        }
    }
    Some(seed)
}

/// The grounding executor.
pub struct Grounder<'p> {
    program: &'p CompiledProgram,
    config: GroundConfig,
    /// Observability handle: set by [`Self::with_obs`], or adopted from
    /// the [`ExecContext`] of a governed run.
    obs: Obs,
}

impl<'p> Grounder<'p> {
    pub fn new(program: &'p CompiledProgram, config: GroundConfig) -> Self {
        Grounder { program, config, obs: Obs::disabled() }
    }

    /// Records `ground.*` spans and counters (and, through the tables,
    /// `store.*`) of every rule this grounder evaluates.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Grounds the program against `db`. `evidence` maps a head atom
    /// (relation name + values) to an observed value, or `None` for query
    /// atoms.
    pub fn ground(
        &mut self,
        db: &mut Database,
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
    ) -> Result<Grounding, GroundError> {
        self.ground_with(db, evidence, &ExecContext::unbounded())
    }

    /// [`Self::ground`] under an execution context: hard resource budgets
    /// abort with [`GroundError::Budget`]; a deadline or cancellation
    /// stops gracefully at the next checkpoint, returning the partial
    /// grounding with its [`Grounding::outcome`] set.
    ///
    /// Checkpoint placement: derivation rules always run to completion
    /// (inference needs every variable to exist), so interruption is
    /// honoured between inference rules and inside the spatial-factor
    /// pair loop. Budget checks run after every rule, every
    /// [`BINDING_CHECKPOINT_INTERVAL`] bindings and every
    /// [`SPATIAL_CHECKPOINT_INTERVAL`] spatial factors.
    pub fn ground_with(
        &mut self,
        db: &mut Database,
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
        ctx: &ExecContext,
    ) -> Result<Grounding, GroundError> {
        self.obs = ctx.obs().clone();
        let mut out = Grounding::new_empty();
        for rule in self.rules_in_ground_order() {
            if rule.kind != RuleKind::Derivation {
                if let Some(outcome) = ctx.interrupted() {
                    out.outcome = outcome;
                    break;
                }
            }
            ctx.maybe_slow(Phase::Grounding);
            self.ground_rule(rule, db, &mut out, &[BoundSeed::default()], None, |g, out, b| {
                for (i, chunk) in b.chunks(BINDING_CHECKPOINT_INTERVAL).enumerate() {
                    // A single wide join can blow the budget mid-rule;
                    // count-only checks are O(1).
                    if i > 0 {
                        check_graph_counts(ctx, &out.graph)?;
                    }
                    g.apply_bindings(rule, chunk, evidence, out);
                }
                Ok(())
            })?;
            check_graph_budget(ctx, &out.graph)?;
        }
        // Finally, automatic spatial factors for @spatial relations.
        if self.config.generate_spatial_factors && !out.outcome.is_partial() {
            self.ground_spatial_factors(&mut out, None, ctx)?;
        }
        out.refresh_stats();
        self.publish_stats(&out.stats);
        Ok(out)
    }

    /// Records the grounding cardinalities (Table I / Fig. 9b feeders)
    /// as `ground.*` counters.
    fn publish_stats(&self, stats: &GroundingStats) {
        if !self.obs.is_enabled() {
            return;
        }
        self.obs.counter_add("ground.rules_total", stats.rules_executed as u64);
        self.obs.counter_add("ground.queries_total", stats.queries_executed as u64);
        self.obs.counter_add("ground.variables_total", stats.variables_created as u64);
        self.obs.counter_add("ground.logical_factors_total", stats.logical_factors as u64);
        self.obs.counter_add("ground.spatial_factors_total", stats.spatial_factors as u64);
        self.obs.counter_add("ground.pruned_pairs_total", stats.pruned_domain_pairs as u64);
    }

    /// The program's rules in grounding order: derivation rules first
    /// (they create the random variables), then inference rules.
    fn rules_in_ground_order(&self) -> impl Iterator<Item = &'p CompiledRule> {
        let rules = &self.program.rules;
        rules
            .iter()
            .filter(|r| r.kind == RuleKind::Derivation)
            .chain(rules.iter().filter(|r| r.kind != RuleKind::Derivation))
    }

    /// Incrementally extends an existing grounding after new input rows
    /// were inserted (paper Section II: the factor-graph update path).
    ///
    /// `new_rows` maps relation names to the row indices that were just
    /// added to `db`. Each rule mentioning a changed relation re-runs
    /// under its [`delta_seeds`], which find every new match exactly
    /// once. New spatial factors are generated only for pairs
    /// with a new endpoint.
    ///
    /// Returns the ids of the newly created ground atoms.
    pub fn ground_delta(
        &mut self,
        db: &mut Database,
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
        out: &mut Grounding,
        new_rows: &HashMap<String, Vec<usize>>,
    ) -> Result<Vec<VarId>, GroundError> {
        let first_new_var = out.graph.num_variables() as VarId;
        for rule in self.rules_in_ground_order() {
            let seeds = delta_seeds(rule, new_rows);
            if seeds.is_empty() {
                continue;
            }
            self.ground_rule(rule, db, out, &seeds, None, |g, out, b| {
                g.apply_bindings(rule, &b, evidence, out);
                Ok(())
            })?;
        }

        let new_vars: Vec<VarId> = (first_new_var..out.graph.num_variables() as VarId).collect();
        if self.config.generate_spatial_factors && !new_vars.is_empty() {
            let new_set: HashSet<VarId> = new_vars.iter().copied().collect();
            self.ground_spatial_factors(out, Some(&new_set), &ExecContext::unbounded())?;
        }
        out.refresh_stats();
        Ok(new_vars)
    }

    /// The one grounding loop: evaluates `rule` once per seed under a
    /// `ground.rule` span and hands each seed's bindings to `sink` as one
    /// batch, which materializes it ([`Self::apply_bindings`]) or records
    /// it (the retract enumeration of `sya-delta`).
    ///
    /// `seen` dedupes across calls that can find the same match — the
    /// expansions of one query closure. It counts, per binding key, how
    /// many matches earlier passes handed on; a pass hands on only the
    /// ones beyond that count. One evaluation finds every match of a
    /// binding it finds at all, so identical bindings from duplicate rows
    /// keep their multiplicity while a match found again is dropped.
    /// Full grounding and [`delta_seeds`] pass `None`: they find each
    /// match once.
    pub fn ground_rule(
        &mut self,
        rule: &CompiledRule,
        db: &mut Database,
        out: &mut Grounding,
        seeds: &[BoundSeed],
        mut seen: Option<&mut KeyMap<usize>>,
        mut sink: impl FnMut(&Self, &mut Grounding, Vec<Vec<Value>>) -> Result<(), GroundError>,
    ) -> Result<(), GroundError> {
        let attrs = if self.obs.is_enabled() {
            db.attach_obs(self.obs.clone());
            vec![("rule".to_string(), rule.label.clone())]
        } else {
            Vec::new()
        };
        let mut span = self.obs.span_with("ground.rule", attrs);
        let mut total = 0usize;
        for seed in seeds {
            let mut bindings = self.eval_rule_seeded(rule, db, out, seed)?;
            if let Some(seen) = seen.as_deref_mut() {
                let mut found: KeyMap<usize> = KeyMap::default();
                bindings.retain(|b| {
                    let key = Key::of(b);
                    let before = seen.get(&key).copied().unwrap_or(0);
                    let nth = found.entry(key).or_insert(0);
                    *nth += 1;
                    *nth > before
                });
                for (key, n) in found {
                    let count = seen.entry(key).or_insert(0);
                    *count = (*count).max(n);
                }
            }
            total += bindings.len();
            sink(self, out, bindings)?;
        }
        span.set_attr("bindings", total);
        self.obs.counter_add("ground.bindings_total", total as u64);
        out.stats.rules_executed += 1;
        Ok(())
    }

    /// Instantiates one rule's bindings as a batch: every head atom
    /// first (resolved through the catalogue, created on first sight),
    /// then, for an inference rule, one logical factor per binding with
    /// its provenance. Returns the new factors' indices (none for a
    /// derivation rule). Atoms deduplicate through the catalogue;
    /// factors do not — [`Self::ground_rule`] hands each match on once.
    pub fn apply_bindings(
        &self,
        rule: &CompiledRule,
        bindings: &[Vec<Value>],
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
        out: &mut Grounding,
    ) -> Vec<u32> {
        let mut buf = Vec::new();
        let mut heads: Vec<VarId> = Vec::with_capacity(bindings.len() * rule.head.len());
        for binding in bindings {
            for atom in &rule.head {
                heads.push(self.materialize_atom(atom, binding, evidence, out, &mut buf));
            }
        }
        let RuleKind::Inference(op) = rule.kind else {
            return Vec::new();
        };
        let kind = match op {
            HeadOp::Imply => FactorKind::Imply,
            HeadOp::And => FactorKind::And,
            HeadOp::Or => FactorKind::Or,
            HeadOp::IsTrue => FactorKind::IsTrue,
        };
        out.reserve_factors(bindings.len());
        let label = out.rule_index(&rule.label);
        bindings
            .iter()
            .zip(heads.chunks(rule.head.len()))
            .map(|(binding, vars)| {
                // `add_factor` may reuse a tombstoned slot; the
                // provenance is written at the returned index.
                let idx = out.graph.add_factor(Factor::new(kind, vars.to_vec(), rule.weight));
                out.set_provenance(idx, label, Key::of(binding));
                idx
            })
            .collect()
    }

    /// Resolves (creating on first sight) the ground atom of `atom` under
    /// `binding`. The probe encodes the head key into `buf`; only a new
    /// atom builds its head values, display name and owned key.
    fn materialize_atom(
        &self,
        atom: &CompiledAtom,
        binding: &[Value],
        evidence: &dyn Fn(&str, &[Value]) -> Option<u32>,
        out: &mut Grounding,
        buf: &mut Vec<u8>,
    ) -> VarId {
        encode_head(atom, binding, buf);
        if let Some(id) = out.atom_by_key(&atom.relation, buf) {
            return id;
        }

        let values = head_values(atom, binding);
        let schema = self.program.schema(&atom.relation);
        let location = schema
            .and_then(|s| s.first_spatial_column())
            .and_then(|i| values.get(i))
            .and_then(|v| v.as_geom())
            .map(|g| g.representative_point());
        let domain =
            self.config.categorical(&atom.relation).map_or(Domain::Binary, Domain::Categorical);
        let mut var = Variable {
            id: 0,
            domain,
            location,
            evidence: evidence(&atom.relation, &values),
            name: atom_name(&atom.relation, &values),
        };
        // Out-of-domain evidence (a data error) must not poison the
        // graph or panic mid-grounding; drop it and leave the atom a
        // query variable.
        if var.evidence.is_some_and(|e| !var.domain.contains(e)) {
            var.evidence = None;
        }
        let id = out.graph.add_variable(var);
        out.atom_meta.push((atom.relation.clone(), values));
        let relation = out.catalogue.entry(atom.relation.clone()).or_default();
        relation.ids.insert(Key::from(buf.as_slice()), id);
        relation.atoms.push(id);
        id
    }

    /// Evaluates a rule body under `seed`, producing one binding row per
    /// match — the only body evaluator: the default seed is full
    /// grounding, `rows` a delta pass, bound values a query.
    ///
    /// Atoms are processed left to right; each atom stage is a translated
    /// query (scan, hash equi-join via shared slots, or R-tree spatial
    /// join when a `distance(a, b) < r` condition links a bound slot to
    /// this atom's spatial column). Conditions apply at the earliest
    /// stage where all their slots are bound, cheapest class first
    /// (Section IV-B heuristic re-ordering). Seeded slots count as bound
    /// from the start: a bound id turns the first atom into a hash
    /// probe, a bound location turns a `distance()` join into an R-tree
    /// probe around a known point, and a `within` seed restricts the
    /// first-binding atom of a spatial slot to the R-tree neighborhood
    /// of a fixed center.
    pub fn eval_rule_seeded(
        &mut self,
        rule: &CompiledRule,
        db: &mut Database,
        out: &mut Grounding,
        seed: &BoundSeed,
    ) -> Result<Vec<Vec<Value>>, GroundError> {
        let seed_slots: BTreeSet<usize> = seed.values.iter().map(|(slot, _)| *slot).collect();
        // A seeded value without a join key (a geometry) cannot drive a
        // hash probe; the per-row equality check still applies to it.
        let unkeyed: BTreeSet<usize> = seed
            .values
            .iter()
            .filter(|(_, v)| v.join_key().is_none())
            .map(|(slot, _)| *slot)
            .collect();

        // Statically compute which slots are bound after each atom and
        // where each free slot is first bound.
        let mut bound_after: Vec<BTreeSet<usize>> = Vec::with_capacity(rule.body.len());
        let mut first_binding: HashMap<usize, (usize, usize)> = HashMap::new(); // slot -> (atom, col)
        let mut acc: BTreeSet<usize> = seed_slots.clone();
        for (k, atom) in rule.body.iter().enumerate() {
            for (pos, t) in atom.terms.iter().enumerate() {
                if let SlotTerm::Slot(s) = t {
                    if !seed_slots.contains(s) {
                        first_binding.entry(*s).or_insert((k, pos));
                    }
                    acc.insert(*s);
                }
            }
            bound_after.push(acc.clone());
        }

        // A `within` seed pins the atom that first binds its slot to an
        // R-tree neighborhood of a fixed center.
        let within_probe: Option<(usize, SpatialProbe)> =
            seed.within.and_then(|(slot, center, radius)| {
                first_binding.get(&slot).map(|&(k, pos)| {
                    let probe = SpatialProbe {
                        center: ProbeCenter::Fixed(center),
                        new_col: pos,
                        candidate_radius: radius,
                    };
                    (k, probe)
                })
            });

        // Assign each condition to the earliest atom after which it is
        // fully bound; order within a stage by the planner's cost class.
        let mut conds_at: Vec<Vec<usize>> = vec![Vec::new(); rule.body.len()];
        for (ci, cond) in rule.conditions.iter().enumerate() {
            let mut cols = BTreeSet::new();
            expr_columns(cond, &mut cols);
            let stage = (0..rule.body.len())
                .find(|&k| cols.iter().all(|c| bound_after[k].contains(c)))
                .unwrap_or(rule.body.len() - 1);
            conds_at[stage].push(ci);
        }
        for stage in &mut conds_at {
            stage.sort_by_key(|&ci| sya_store::estimate_cost(&rule.conditions[ci]));
        }

        // Iterate atoms, expanding partial bindings.
        let mut initial = vec![Value::Null; rule.slots.len()];
        for (slot, value) in &seed.values {
            initial[*slot] = value.clone();
        }
        let mut bindings: Vec<Vec<Value>> = vec![initial];
        for (k, atom) in rule.body.iter().enumerate() {
            out.stats.queries_executed += 1;
            if !db.has_table(&atom.relation) {
                return Err(GroundError::MissingInput(atom.relation.clone()));
            }

            // Pre-extract probe strategies for this atom.
            let bound_before = if k == 0 { &seed_slots } else { &bound_after[k - 1] };
            let spatial_probe = self
                .find_spatial_probe(rule, &conds_at[k], atom, bound_before)
                .or(match &within_probe {
                    Some((wk, probe)) if *wk == k => Some(*probe),
                    _ => None,
                });
            let eq_probe: Option<(usize, usize)> = atom.terms.iter().enumerate().find_map(
                |(pos, t)| match t {
                    SlotTerm::Slot(s) if bound_before.contains(s) && !unkeyed.contains(s) => {
                        Some((*s, pos))
                    }
                    _ => None,
                },
            );
            // Planner choice for this atom stage, by access path.
            self.obs.counter_add(
                if spatial_probe.is_some() {
                    "store.planner_spatial_probe_total"
                } else if eq_probe.is_some() {
                    "store.planner_hash_probe_total"
                } else {
                    "store.planner_full_scan_total"
                },
                1,
            );
            // The row restrictions of a delta pass, sorted once per stage.
            let sorted = |rows: &Vec<usize>| {
                let mut rows = rows.clone();
                rows.sort_unstable();
                rows.dedup();
                rows
            };
            let allowed: Option<Vec<usize>> = match &seed.rows {
                Some((rk, rows)) if *rk == k => Some(sorted(rows)),
                _ => None,
            };
            let skipped: Option<Vec<usize>> =
                seed.skip.iter().find(|(j, _)| *j == k).map(|(_, rows)| sorted(rows));

            // Ensure indexes exist before the per-binding loop.
            let table = db.table_mut(&atom.relation)?;
            let spatial_probe = match spatial_probe {
                Some(probe) => {
                    let col_name = table.schema().columns()[probe.new_col].name.clone();
                    table.spatial_index(&col_name)?;
                    Some((probe, col_name))
                }
                None => {
                    if let Some((_, pos)) = eq_probe {
                        table.ensure_hash_index(pos);
                    }
                    None
                }
            };

            let mut next: Vec<Vec<Value>> = Vec::new();
            // Each candidate writes its new slots here and is tested in
            // place; only a survivor is copied out.
            let mut scratch: Vec<Value> = Vec::new();
            for binding in &bindings {
                scratch.clone_from(binding);
                let probed: Vec<usize>;
                let candidates: &[usize] = if let Some((probe, col_name)) = &spatial_probe {
                    let center = match probe.center {
                        ProbeCenter::Fixed(p) => p,
                        ProbeCenter::Slot(slot) => match binding[slot].as_geom() {
                            Some(g) => g.representative_point(),
                            None => continue,
                        },
                    };
                    probed = db.table_mut(&atom.relation)?.rows_within_distance(
                        col_name,
                        &center,
                        probe.candidate_radius,
                    )?;
                    &probed
                } else if let Some((slot, pos)) = eq_probe {
                    match binding[slot].join_key() {
                        None => &[],
                        Some(key) => db.table(&atom.relation)?.rows_with_key(pos, &key),
                    }
                } else if let Some(rows) = &allowed {
                    rows
                } else {
                    probed = (0..db.table(&atom.relation)?.len()).collect();
                    &probed
                };

                let table = db.table(&atom.relation)?;
                'cand: for &rid in candidates {
                    if allowed.as_ref().is_some_and(|a| a.binary_search(&rid).is_err())
                        || skipped.as_ref().is_some_and(|s| s.binary_search(&rid).is_ok())
                    {
                        continue;
                    }
                    let Some(row) = table.rows().get(rid) else {
                        continue; // a restriction naming a row the table lacks
                    };
                    // Check constants and already-bound slots.
                    for (pos, t) in atom.terms.iter().enumerate() {
                        match t {
                            SlotTerm::Const(c) => {
                                let matches = if c.is_null() {
                                    row[pos].is_null()
                                } else {
                                    row[pos].sql_eq(c) == Some(true)
                                };
                                if !matches {
                                    continue 'cand;
                                }
                            }
                            SlotTerm::Slot(s) if bound_before.contains(s)
                                && row[pos].sql_eq(&binding[*s]) != Some(true) => {
                                    continue 'cand;
                                }
                            _ => {}
                        }
                    }
                    // Extend the binding with newly bound slots.
                    for (pos, t) in atom.terms.iter().enumerate() {
                        if let SlotTerm::Slot(s) = t {
                            if !bound_before.contains(s) {
                                scratch[*s].clone_from(&row[pos]);
                            }
                        }
                    }
                    // Apply this stage's conditions.
                    for &ci in &conds_at[k] {
                        if !rule.conditions[ci]
                            .matches(&scratch)
                            .map_err(GroundError::Store)?
                        {
                            continue 'cand;
                        }
                    }
                    next.push(scratch.clone());
                }
            }
            bindings = next;
        }
        Ok(bindings)
    }

    /// Detects a `distance(bound, new) < r` (or mirrored) condition that
    /// lets this atom be fetched via the R-tree instead of a full scan.
    fn find_spatial_probe(
        &self,
        rule: &CompiledRule,
        stage_conds: &[usize],
        atom: &CompiledAtom,
        bound_before: &BTreeSet<usize>,
    ) -> Option<SpatialProbe> {
        // Map slot -> column position in this atom (new bindings only).
        let mut new_slot_cols: HashMap<usize, usize> = HashMap::new();
        for (pos, t) in atom.terms.iter().enumerate() {
            if let SlotTerm::Slot(s) = t {
                if !bound_before.contains(s) {
                    new_slot_cols.entry(*s).or_insert(pos);
                }
            }
        }
        for &ci in stage_conds {
            if let Some((a, b, radius)) = distance_lt_pattern(&rule.conditions[ci]) {
                let (bound_slot, new_slot) = if bound_before.contains(&a) && new_slot_cols.contains_key(&b)
                {
                    (a, b)
                } else if bound_before.contains(&b) && new_slot_cols.contains_key(&a) {
                    (b, a)
                } else {
                    continue;
                };
                return Some(SpatialProbe {
                    center: ProbeCenter::Slot(bound_slot),
                    new_col: new_slot_cols[&new_slot],
                    candidate_radius: candidate_radius(self.config.metric, radius),
                });
            }
        }
        None
    }

    /// Generates spatial factors for every `@spatial` variable relation
    /// (Section IV-A), pruning categorical domain pairs below the
    /// threshold `T` (Section IV-C). When `new_only` is given, only pairs
    /// with at least one endpoint in that set are emitted (incremental
    /// grounding: old–old pairs already exist).
    ///
    /// Budget / interruption checkpoints run every
    /// [`SPATIAL_CHECKPOINT_INTERVAL`] factors — the pair loop is where a
    /// bad radius produces the quadratic factor blow-up, so waiting for
    /// the end of the relation is too late.
    fn ground_spatial_factors(
        &mut self,
        out: &mut Grounding,
        new_only: Option<&HashSet<VarId>>,
        ctx: &ExecContext,
    ) -> Result<(), GroundError> {
        let program = self.program;
        for (schema, wname) in program.spatial_variable_relations() {
            let relation = &schema.name;
            let atoms: Vec<(VarId, Point)> = out
                .atoms_of(relation)
                .iter()
                .filter_map(|&id| out.graph.variable(id).location.map(|p| (id, p)))
                .collect();
            if atoms.len() < 2 {
                continue;
            }
            let factors_before = out.graph.num_spatial_factors();
            let mut span = self
                .obs
                .span_with("ground.spatial", vec![("relation".to_string(), relation.clone())]);

            let params = self
                .config
                .spatial_params(wname, || default_bandwidth(&atoms, self.config.metric))?;
            let radius = params.radius;

            // Categorical pruning set.
            let allowed: Option<Vec<(u32, u32)>> = self.config.categorical(relation).map(|h| {
                let stats = build_cooccurrence(&out.graph, &atoms, radius, self.config.metric);
                let (pairs, pruned) =
                    allowed_domain_pairs(&stats, h, self.config.pruning_threshold);
                out.stats.pruned_domain_pairs += pruned;
                pairs
            });

            let tree = RTree::bulk_load(
                atoms
                    .iter()
                    .map(|(id, p)| (Rect::from_point(*p), *id))
                    .collect(),
            );
            let cand_radius = candidate_radius(self.config.metric, radius);
            let mut atoms_seen = 0usize;
            let mut next_factor_check =
                out.graph.num_spatial_factors() + SPATIAL_CHECKPOINT_INTERVAL;
            'atoms: for &(id, p) in &atoms {
                atoms_seen += 1;
                if atoms_seen.is_multiple_of(BINDING_CHECKPOINT_INTERVAL)
                    || out.graph.num_spatial_factors() >= next_factor_check
                {
                    next_factor_check =
                        out.graph.num_spatial_factors() + SPATIAL_CHECKPOINT_INTERVAL;
                    if let Some(outcome) = ctx.interrupted() {
                        out.outcome = out.outcome.combine(outcome);
                        break 'atoms;
                    }
                    check_graph_counts(ctx, &out.graph)?;
                }
                for other in tree.within_distance(&p, cand_radius) {
                    if other <= id {
                        continue; // each unordered pair once
                    }
                    if new_only.is_some_and(|new| !new.contains(&id) && !new.contains(&other)) {
                        continue; // pair already grounded
                    }
                    // Only located atoms are indexed; a missing location
                    // would be an index bug — skip rather than panic.
                    let Some(q) = out.graph.variable(other).location else {
                        continue;
                    };
                    self.config.emit_spatial_pair(
                        &mut out.graph,
                        &params,
                        (id, p),
                        (other, q),
                        allowed.as_deref(),
                    );
                }
            }
            span.set_attr("radius", format!("{radius:.4}"));
            span.set_attr("factors", out.graph.num_spatial_factors() - factors_before);
        }
        Ok(())
    }
}

/// The weighting function and neighbour cutoff of one `@spatial`
/// relation, resolved by [`GroundConfig::spatial_params`].
#[derive(Debug, Clone)]
pub struct SpatialParams {
    pub wfn: WeightingFn,
    pub radius: f64,
}

impl GroundConfig {
    /// Domain size of `relation` when it is categorical (more than two
    /// values).
    pub fn categorical(&self, relation: &str) -> Option<u32> {
        self.domains.get(relation).copied().filter(|&h| h > 2)
    }

    /// Resolves the spatial-factor parameters of a relation weighted by
    /// the function named `wname`. Explicit config wins; otherwise the
    /// bandwidth comes from `derive_bandwidth` (a tenth of the data
    /// extent — the atom cloud for full grounding, the base table for
    /// demand grounding) and the radius is where the weight becomes
    /// negligible, but never beyond 3.5 bandwidths — beyond that the
    /// factors are numerous and individually irrelevant.
    pub fn spatial_params(
        &self,
        wname: &str,
        derive_bandwidth: impl FnOnce() -> f64,
    ) -> Result<SpatialParams, GroundError> {
        let bandwidth = self.weighting_bandwidth.unwrap_or_else(derive_bandwidth);
        let wfn = WeightingFn::by_name(wname, self.weighting_scale, bandwidth)
            .ok_or_else(|| GroundError::UnknownWeighting(wname.to_owned()))?;
        let radius = self
            .spatial_radius
            .unwrap_or_else(|| negligible_radius(&wfn, bandwidth).min(3.5 * bandwidth));
        Ok(SpatialParams { wfn, radius })
    }

    /// Adds the spatial factor(s) of one located atom pair: nothing
    /// beyond the cutoff radius or below the negligible weight; else one
    /// binary factor, or for a categorical relation one factor per
    /// allowed domain-value pair. Returns whether the pair was in reach.
    pub fn emit_spatial_pair(
        &self,
        graph: &mut FactorGraph,
        params: &SpatialParams,
        (a, p): (VarId, Point),
        (b, q): (VarId, Point),
        domain_pairs: Option<&[(u32, u32)]>,
    ) -> bool {
        let d = metric_distance(self.metric, &p, &q);
        if d > params.radius {
            return false;
        }
        let w = params.wfn.weight(d);
        if w < WeightingFn::NEGLIGIBLE {
            return false;
        }
        match domain_pairs {
            None => {
                graph.add_spatial_factor(SpatialFactor::binary(a, b, w));
            }
            Some(pairs) => {
                for &(ta, tb) in pairs {
                    graph.add_spatial_factor(SpatialFactor::categorical(a, b, w, ta, tb));
                }
            }
        }
        true
    }
}

/// Where an R-tree probe takes its center from: a bound binding-row
/// slot (condition-derived probes) or a fixed point (seed-derived
/// neighborhood probes).
#[derive(Debug, Clone, Copy)]
enum ProbeCenter {
    Slot(usize),
    Fixed(Point),
}

#[derive(Debug, Clone, Copy)]
struct SpatialProbe {
    center: ProbeCenter,
    new_col: usize,
    candidate_radius: f64,
}

/// The display name of a ground atom: `relation(v1\u{1f}v2...)`.
fn atom_name(relation: &str, values: &[Value]) -> String {
    use std::fmt::Write;
    let mut name = format!("{relation}(");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            name.push('\u{1f}');
        }
        let _ = write!(name, "{v}");
    }
    name.push(')');
    name
}

/// Full budget checkpoint: counts plus the O(n) memory estimate. Run at
/// rule granularity, where the estimate's cost is amortized.
fn check_graph_budget(ctx: &ExecContext, graph: &FactorGraph) -> Result<(), GroundError> {
    ctx.obs().counter_add("ground.budget_checks_total", 1);
    let usage = ResourceUsage {
        factors: graph.total_factors() as u64,
        variables: graph.num_variables() as u64,
        memory_bytes: if ctx.budget().max_memory_bytes.is_some() {
            graph.approx_memory_bytes()
        } else {
            0
        },
    };
    ctx.check_resources(Phase::Grounding, usage)?;
    Ok(())
}

/// Count-only budget checkpoint (O(1)): factor and variable limits, no
/// memory estimate. Safe to run inside tight emission loops.
fn check_graph_counts(ctx: &ExecContext, graph: &FactorGraph) -> Result<(), GroundError> {
    ctx.obs().counter_add("ground.budget_checks_total", 1);
    let usage = ResourceUsage {
        factors: graph.total_factors() as u64,
        variables: graph.num_variables() as u64,
        memory_bytes: 0,
    };
    ctx.check_resources(Phase::Grounding, usage)?;
    Ok(())
}

/// Distance between points under the configured metric.
pub fn metric_distance(metric: DistanceMetric, a: &Point, b: &Point) -> f64 {
    match metric {
        DistanceMetric::Euclidean => a.distance(b),
        DistanceMetric::HaversineMiles => haversine_miles(a, b),
    }
}

/// Candidate radius in *coordinate units* that over-approximates a metric
/// radius: identity for Euclidean; for haversine miles we convert with a
/// conservative degrees-per-mile bound (valid to ~66° latitude), since
/// the exact metric check re-filters candidates anyway.
pub fn candidate_radius(metric: DistanceMetric, radius: f64) -> f64 {
    match metric {
        DistanceMetric::Euclidean => radius,
        DistanceMetric::HaversineMiles => radius / 69.0 * 2.5,
    }
}

/// Distance at which the weighting function falls below
/// [`WeightingFn::NEGLIGIBLE`] — beyond it, factors are skipped.
pub fn negligible_radius(wfn: &WeightingFn, bandwidth: f64) -> f64 {
    match *wfn {
        WeightingFn::Exponential { scale, bandwidth: bw } => {
            bw * (scale / WeightingFn::NEGLIGIBLE).ln().max(0.0)
        }
        WeightingFn::Gaussian { scale, bandwidth: bw } => {
            bw * (scale / WeightingFn::NEGLIGIBLE).ln().max(0.0).sqrt()
        }
        WeightingFn::InverseDistance { scale, bandwidth: bw } => {
            bw * (scale / WeightingFn::NEGLIGIBLE - 1.0).max(0.0)
        }
        WeightingFn::Linear { cutoff, .. } => cutoff,
        #[allow(unreachable_patterns)]
        _ => bandwidth * 10.0,
    }
}

/// Default bandwidth: a tenth of the atom cloud's diagonal extent in
/// metric units.
pub fn default_bandwidth(atoms: &[(VarId, Point)], metric: DistanceMetric) -> f64 {
    let bbox = atoms
        .iter()
        .fold(Rect::EMPTY, |acc, (_, p)| acc.union(&Rect::from_point(*p)));
    let lo = Point::new(bbox.min_x, bbox.min_y);
    let hi = Point::new(bbox.max_x, bbox.max_y);
    let diag = metric_distance(metric, &lo, &hi);
    (diag / 10.0).max(f64::MIN_POSITIVE)
}

/// Matches `distance(Col(a), Col(b)) < r` (and `<=`, and the mirrored
/// literal-first forms `r > distance(..)`, `r >= distance(..)`),
/// returning `(a, b, r)`.
fn distance_lt_pattern(e: &Expr) -> Option<(usize, usize, f64)> {
    let (call, lit) = match e {
        Expr::Bin(BinOp::Lt | BinOp::Le, l, r) => (l.as_ref(), r.as_ref()),
        Expr::Bin(BinOp::Gt | BinOp::Ge, l, r) => (r.as_ref(), l.as_ref()),
        _ => return None,
    };
    if let Expr::Spatial(SpatialFn::Distance, _, a, b) = call {
        if let (Expr::Col(i), Expr::Col(j), Expr::Lit(v)) = (a.as_ref(), b.as_ref(), lit) {
            return v.as_f64().map(|r| (*i, *j, r));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sya_lang::{compile, parse_program, GeomConstants};
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

    fn ground(n: i64, cfg: GroundConfig) -> Grounding {
        let program = parse_program(SRC).unwrap();
        let compiled = compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let mut db = make_db(n);
        let mut g = Grounder::new(&compiled, cfg);
        g.ground(&mut db, &|_, vals| {
            // wells 0 and 1 observed safe
            match vals[0].as_int() {
                Some(0) | Some(1) => Some(1),
                _ => None,
            }
        })
        .unwrap()
    }

    #[test]
    fn derivation_creates_one_var_per_well() {
        let g = ground(10, GroundConfig::default());
        assert_eq!(g.graph.num_variables(), 10);
        assert_eq!(g.atoms_of("IsSafe").len(), 10);
        // Evidence applied via the closure.
        let v0 = g.atom_id("IsSafe", &[Value::Int(0), Value::from(Point::new(0.0, 0.0))]);
        let v0 = v0.expect("atom exists");
        assert_eq!(g.graph.variable(v0).evidence, Some(1));
        // Locations picked up from the spatial column.
        assert_eq!(g.graph.variable(v0).location, Some(Point::new(0.0, 0.0)));
    }

    #[test]
    fn inference_rule_emits_imply_factors_for_close_safe_pairs() {
        let g = ground(10, GroundConfig { generate_spatial_factors: false, ..Default::default() });
        // Wells 0..4 have arsenic 0.1 (<0.2); pairs within distance 3,
        // excluding self pairs, ordered pairs both ways.
        // Pairs (i,j), i,j in 0..5, i!=j, |i-j|<3  (distance < 3).
        let mut want = 0;
        for i in 0..5i64 {
            for j in 0..5i64 {
                if i != j && (i - j).abs() < 3 {
                    want += 1;
                }
            }
        }
        assert_eq!(g.graph.num_factors(), want);
        assert_eq!(g.graph.num_spatial_factors(), 0);
        for f in g.graph.factors() {
            assert_eq!(f.kind, FactorKind::Imply);
            assert_eq!(f.weight, 0.7);
            assert_eq!(f.vars.len(), 2);
        }
    }

    #[test]
    fn spatial_factors_generated_for_spatial_relation() {
        let cfg = GroundConfig {
            spatial_radius: Some(2.0),
            weighting_bandwidth: Some(1.0),
            ..Default::default()
        };
        let g = ground(10, cfg);
        // Wells on a line x=0..9: pairs with distance <= 2: (i,i+1), (i,i+2).
        let want = 9 + 8;
        assert_eq!(g.graph.num_spatial_factors(), want);
        // Weights decay with distance.
        let w1 = g
            .graph
            .spatial_factors()
            .iter()
            .find(|f| {
                let a = g.graph.variable(f.a).location.unwrap();
                let b = g.graph.variable(f.b).location.unwrap();
                (a.distance(&b) - 1.0).abs() < 1e-9
            })
            .unwrap()
            .weight;
        let w2 = g
            .graph
            .spatial_factors()
            .iter()
            .find(|f| {
                let a = g.graph.variable(f.a).location.unwrap();
                let b = g.graph.variable(f.b).location.unwrap();
                (a.distance(&b) - 2.0).abs() < 1e-9
            })
            .unwrap()
            .weight;
        assert!(w1 > w2, "closer pairs must weigh more: {w1} vs {w2}");
    }

    #[test]
    fn deepdive_mode_has_no_spatial_factors() {
        let g = ground(10, GroundConfig { generate_spatial_factors: false, ..Default::default() });
        assert_eq!(g.graph.num_spatial_factors(), 0);
        assert!(g.graph.num_factors() > 0);
    }

    #[test]
    fn seeded_derivation_enumerates_only_the_bound_atom() {
        let program = parse_program(SRC).unwrap();
        let compiled = compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let mut db = make_db(10);
        let mut g = Grounder::new(&compiled, GroundConfig::default());
        let mut out = Grounding::new_empty();
        let rule = &compiled.rules[0];
        let seed = unify_head(&rule.head[0], &[Value::Int(3)]).unwrap();
        let bindings = g.eval_rule_seeded(rule, &mut db, &mut out, &seed).unwrap();
        assert_eq!(bindings.len(), 1);
        assert_eq!(head_values(&rule.head[0], &bindings[0])[0], Value::Int(3));
    }

    #[test]
    fn within_seed_restricts_to_the_spatial_neighborhood() {
        let program = parse_program(SRC).unwrap();
        let compiled = compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let mut db = make_db(10);
        let mut g = Grounder::new(&compiled, GroundConfig::default());
        let mut out = Grounding::new_empty();
        let rule = &compiled.rules[0];
        // Head arg 1 is the location slot.
        let SlotTerm::Slot(loc_slot) = rule.head[0].terms[1] else { panic!("slot term") };
        let seed = BoundSeed {
            within: Some((loc_slot, Point::new(5.0, 0.0), 1.2)),
            ..BoundSeed::default()
        };
        let bindings = g.eval_rule_seeded(rule, &mut db, &mut out, &seed).unwrap();
        let mut ids: Vec<i64> = bindings
            .iter()
            .filter_map(|b| head_values(&rule.head[0], b)[0].as_int())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![4, 5, 6]);
    }

    #[test]
    fn seeded_inference_rule_enumerates_partners_of_the_bound_head() {
        let program = parse_program(SRC).unwrap();
        let compiled = compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let mut db = make_db(10);
        let mut g = Grounder::new(&compiled, GroundConfig::default());
        let mut out = Grounding::new_empty();
        let rule = &compiled.rules[1];
        let seed = unify_head(&rule.head[0], &[Value::Int(2)]).unwrap();
        let bindings = g.eval_rule_seeded(rule, &mut db, &mut out, &seed).unwrap();
        // Wells 0..4 satisfy arsenic < 0.2; partners of well 2 at
        // distance < 3, excluding itself: {0, 1, 3, 4}.
        assert_eq!(bindings.len(), 4);
        for b in &bindings {
            assert_eq!(head_values(&rule.head[0], b)[0], Value::Int(2));
        }
    }

    #[test]
    fn categorical_domains_create_domain_pair_factors() {
        let mut domains = HashMap::new();
        domains.insert("IsSafe".to_owned(), 4u32);
        let cfg = GroundConfig {
            spatial_radius: Some(1.5),
            weighting_bandwidth: Some(1.0),
            pruning_threshold: 0.0, // keep everything
            domains,
            ..Default::default()
        };
        let g = ground(6, cfg);
        // 5 adjacent pairs x (4x4 domain pairs) = 80 spatial factors.
        assert_eq!(g.graph.num_spatial_factors(), 5 * 16);
        // Variables got the categorical domain.
        let v = g.atoms_of("IsSafe")[0];
        assert_eq!(g.graph.variable(v).domain, Domain::Categorical(4));
    }

    #[test]
    fn pruning_threshold_reduces_categorical_factors() {
        let mut domains = HashMap::new();
        domains.insert("IsSafe".to_owned(), 4u32);
        let base = GroundConfig {
            spatial_radius: Some(1.5),
            weighting_bandwidth: Some(1.0),
            domains,
            ..Default::default()
        };
        let loose = ground(10, GroundConfig { pruning_threshold: 0.0, ..base.clone() });
        let tight = ground(10, GroundConfig { pruning_threshold: 0.9, ..base });
        assert!(tight.graph.num_spatial_factors() < loose.graph.num_spatial_factors());
        assert!(tight.stats.pruned_domain_pairs > 0);
    }

    #[test]
    fn stats_are_populated() {
        let g = ground(10, GroundConfig::default());
        assert_eq!(g.stats.rules_executed, 2);
        assert_eq!(g.stats.queries_executed, 3); // 1 body atom + 2 body atoms
        assert_eq!(g.stats.variables_created, 10);
        assert!(g.stats.logical_factors > 0);
        assert!(g.stats.spatial_factors > 0);
    }

    #[test]
    fn missing_input_table_is_reported() {
        let program = parse_program(SRC).unwrap();
        let compiled =
            compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let mut db = Database::new();
        let mut g = Grounder::new(&compiled, GroundConfig::default());
        let err = g.ground(&mut db, &|_, _| None).unwrap_err();
        assert!(matches!(err, GroundError::MissingInput(r) if r == "Well"));
    }

    #[test]
    fn ground_delta_matches_full_grounding() {
        let program = parse_program(SRC).unwrap();
        let compiled =
            compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let evidence = |_: &str, vals: &[Value]| match vals[0].as_int() {
            Some(0) | Some(1) => Some(1u32),
            _ => None,
        };
        let cfg = GroundConfig {
            spatial_radius: Some(2.0),
            weighting_bandwidth: Some(1.0),
            ..Default::default()
        };

        // Full grounding over 12 wells.
        let mut db_full = make_db(12);
        let full = Grounder::new(&compiled, cfg.clone())
            .ground(&mut db_full, &evidence)
            .unwrap();

        // Incremental: ground the first 9 of the same 12 wells, then add
        // the remaining 3 via delta (values identical to make_db(12)).
        let row = |i: i64| {
            vec![
                Value::Int(i),
                Value::from(Point::new(i as f64, 0.0)),
                Value::Double(if i < 6 { 0.1 } else { 0.5 }),
            ]
        };
        let mut db = Database::new();
        let schema = db_full.table("Well").unwrap().schema().clone();
        let table = db.create_table("Well", schema).unwrap();
        for i in 0..9i64 {
            table.insert(row(i)).unwrap();
        }
        let mut grounder = Grounder::new(&compiled, cfg);
        let mut out = grounder.ground(&mut db, &evidence).unwrap();
        let table = db.table_mut("Well").unwrap();
        let mut new_rows = Vec::new();
        for i in 9..12i64 {
            new_rows.push(table.len());
            table.insert(row(i)).unwrap();
        }
        let mut delta_map = HashMap::new();
        delta_map.insert("Well".to_owned(), new_rows);
        let new_vars = grounder
            .ground_delta(&mut db, &evidence, &mut out, &delta_map)
            .unwrap();

        assert_eq!(new_vars.len(), 3);
        assert_eq!(out.signature(), full.signature());
    }

    #[test]
    fn remove_atoms_compacts_the_catalogue() {
        let mut g = ground(10, GroundConfig {
            spatial_radius: Some(2.0),
            weighting_bandwidth: Some(1.0),
            ..Default::default()
        });
        let vars_before = g.graph.num_variables();
        let target = g.atoms_of("IsSafe")[3];
        let remove: std::collections::HashSet<VarId> = [target].into();
        let remap = g.remove_atoms(&remove);
        assert_eq!(g.graph.num_variables(), vars_before - 1);
        assert_eq!(g.atoms_of("IsSafe").len(), vars_before - 1);
        assert_eq!(remap[target as usize], None);
        // No factor references a stale id.
        for f in g.graph.factors() {
            for &v in &f.vars {
                assert!((v as usize) < g.graph.num_variables());
            }
        }
        assert_eq!(g.factor_rules.len(), g.graph.num_factors());
        // atom_id lookups agree with the new meta table.
        for (relation, values) in g.atom_meta.clone() {
            let id = g.atom_id(&relation, &values).expect("atom still findable");
            assert_eq!(&g.atom_meta[id as usize].1, &values);
        }
    }

    #[test]
    fn kill_atom_tombstones_factors_and_retires_the_variable() {
        let mut g = ground(10, GroundConfig {
            spatial_radius: Some(2.0),
            weighting_bandwidth: Some(1.0),
            ..Default::default()
        });
        let target = g.atoms_of("IsSafe")[3];
        let factors_before = g.graph.num_live_factors();
        let spatial_before = g.graph.num_live_spatial_factors();
        let touching: usize = g.graph.factors_of(target).len();
        let spatial_touching = g.graph.spatial_factors_of(target).len();
        assert!(touching > 0 && spatial_touching > 0);

        let touched = g.kill_atom(target);
        assert!(!touched.is_empty(), "neighbours must be reported");
        assert!(!touched.contains(&target));
        assert!(g.graph.is_var_dead(target));
        assert_eq!(g.graph.num_live_factors(), factors_before - touching);
        assert_eq!(
            g.graph.num_live_spatial_factors(),
            spatial_before - spatial_touching
        );
        // Catalogue no longer knows the atom; ids are NOT compacted.
        assert_eq!(g.atoms_of("IsSafe").len(), 9);
        let (rel, values) = g.atom_meta[target as usize].clone();
        assert_eq!(g.atom_id(&rel, &values), None);
        // No surviving adjacency points at a tombstone.
        for v in 0..g.graph.num_variables() as VarId {
            for &fi in g.graph.factors_of(v) {
                assert!(!g.graph.is_factor_dead(fi));
            }
            for &si in g.graph.spatial_factors_of(v) {
                assert!(!g.graph.is_spatial_factor_dead(si));
            }
        }
        // Killing again is a no-op.
        assert!(g.kill_atom(target).is_empty());
    }

    #[test]
    fn factor_bindings_locate_a_rule_binding_exactly() {
        let g = ground(10, GroundConfig { generate_spatial_factors: false, ..Default::default() });
        assert_eq!(g.factor_bindings.len(), g.graph.num_factors());
        // Every inference factor is findable by its provenance, through
        // either of its atoms.
        for (i, (key, f)) in g.factor_bindings.iter().zip(g.graph.factors()).enumerate() {
            let label = g.factor_rule(i as u32);
            for &v in &f.vars {
                assert_eq!(g.live_factors_matching(label, v, key), vec![i as u32]);
            }
        }
        // Tombstoning removes the factor from provenance matches.
        let mut g = g;
        let key = g.factor_bindings[0].clone();
        let anchor = g.graph.factors()[0].vars[0];
        let label = g.factor_rule(0).to_owned();
        assert_eq!(g.live_factors_matching(&label, anchor, &key).len(), 1);
        g.tombstone_factor(0);
        assert!(g.live_factors_matching(&label, anchor, &key).is_empty());
        assert!(g.live_factors_matching("no such rule", anchor, &key).is_empty());
    }

    #[test]
    fn a_separator_inside_text_keeps_two_atoms_apart() {
        // Under the old text key both rows rendered as
        // `1\u{1f}'a'\u{1f}'b'\u{1f}'c'` and grounded one atom.
        let src = r#"
        Row(id bigint, a text, b text).
        T?(id bigint, a text, b text).
        D: T(I, A, B) = NULL :- Row(I, A, B).
        "#;
        let program = parse_program(src).unwrap();
        let compiled =
            compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let mut db = Database::new();
        let schema = TableSchema::new(vec![
            Column::new("id", DataType::BigInt),
            Column::new("a", DataType::Text),
            Column::new("b", DataType::Text),
        ]);
        let t = db.create_table("Row", schema).unwrap();
        let first = [Value::Int(1), Value::from("a'\u{1f}'b"), Value::from("c")];
        let second = [Value::Int(1), Value::from("a"), Value::from("b'\u{1f}'c")];
        t.insert(first.to_vec()).unwrap();
        t.insert(second.to_vec()).unwrap();
        let g = Grounder::new(&compiled, GroundConfig::default())
            .ground(&mut db, &|_, _| None)
            .unwrap();
        assert_eq!(g.graph.num_variables(), 2);
        let (a, b) = (g.atom_id("T", &first).unwrap(), g.atom_id("T", &second).unwrap());
        assert_ne!(a, b);
        // The display names keep their text form, so they still meet.
        assert_eq!(g.graph.variable(a).name, g.graph.variable(b).name);
    }

    #[test]
    fn an_int_and_an_integral_double_are_one_atom() {
        let src = r#"
        A(id bigint).
        B(id double).
        Y?(id bigint).
        D1: Y(X) = NULL :- A(X).
        D2: Y(X) = NULL :- B(X).
        "#;
        let program = parse_program(src).unwrap();
        let compiled =
            compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let mut db = Database::new();
        let a = db.create_table("A", TableSchema::new(vec![Column::new("id", DataType::BigInt)]));
        a.unwrap().insert(vec![Value::Int(2)]).unwrap();
        let b = db.create_table("B", TableSchema::new(vec![Column::new("id", DataType::Double)]));
        let b = b.unwrap();
        b.insert(vec![Value::Double(2.0)]).unwrap();
        b.insert(vec![Value::Double(2.5)]).unwrap();
        let g = Grounder::new(&compiled, GroundConfig::default())
            .ground(&mut db, &|_, _| None)
            .unwrap();
        assert_eq!(g.graph.num_variables(), 2);
        assert_eq!(g.atom_id("Y", &[Value::Double(2.0)]), g.atom_id("Y", &[Value::Int(2)]));
    }

    #[test]
    fn row_restricted_seed_enumerates_bindings_of_given_rows() {
        let program = parse_program(SRC).unwrap();
        let compiled =
            compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let mut db = make_db(10);
        let mut grounder = Grounder::new(&compiled, GroundConfig::default());
        let mut out = Grounding::new_empty();
        // Restrict the first body atom of R1 to well 2's row: bindings
        // must all have W1 = 2 (partners at distance < 3 with low
        // arsenic: wells 0, 1, 3, 4).
        let rule = &compiled.rules[1];
        let rows = HashMap::from([("Well".to_owned(), vec![2usize])]);
        let seeds = delta_seeds(rule, &rows);
        assert_eq!(seeds.len(), 2, "one pass per body atom over the changed relation");
        let bindings = grounder.eval_rule_seeded(rule, &mut db, &mut out, &seeds[0]).unwrap();
        assert_eq!(bindings.len(), 4);
        // The second pass sees well 2 only as the partner, and never
        // again as the first atom: each of its eight matches (four
        // partners, both positions) is found once.
        let mut n = 0;
        grounder
            .ground_rule(rule, &mut db, &mut out, &seeds, None, |_, _, b| {
                n += b.len();
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 8);
    }

    #[test]
    fn ground_delta_with_no_matching_relation_is_a_noop() {
        let program = parse_program(SRC).unwrap();
        let compiled =
            compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let mut db = make_db(5);
        let mut grounder = Grounder::new(&compiled, GroundConfig::default());
        let mut out = grounder.ground(&mut db, &|_, _| None).unwrap();
        let before = out.graph.num_variables();
        let delta_map: HashMap<String, Vec<usize>> =
            HashMap::from([("Unrelated".to_owned(), vec![0])]);
        let new_vars = grounder
            .ground_delta(&mut db, &|_, _| None, &mut out, &delta_map)
            .unwrap();
        assert!(new_vars.is_empty());
        assert_eq!(out.graph.num_variables(), before);
    }

    #[test]
    fn equi_join_probe_uses_hash_index_and_matches_semantics() {
        // A rule whose two body atoms share the id variable: the second
        // atom is fetched through the lazy hash index. Semantics must
        // match a nested-loop evaluation.
        let src = r#"
        Well(id bigint, location point, arsenic double).
        Reading(well bigint, level double).
        @spatial(exp)
        IsSafe?(id bigint, location point).
        R: IsSafe(W, L) :- Well(W, L, _), Reading(W, V) [V < 0.5].
        "#;
        let program = parse_program(src).unwrap();
        let compiled =
            compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let mut db = make_db(6);
        let schema = TableSchema::new(vec![
            Column::new("well", DataType::BigInt),
            Column::new("level", DataType::Double),
        ]);
        let t = db.create_table("Reading", schema).unwrap();
        // well 0: two matching readings; well 1: one filtered out;
        // well 9: no such well (dangling reading).
        for (w, v) in [(0i64, 0.1), (0, 0.2), (1, 0.9), (2, 0.3), (9, 0.1)] {
            t.insert(vec![Value::Int(w), Value::Double(v)]).unwrap();
        }
        let g = Grounder::new(&compiled, GroundConfig {
            generate_spatial_factors: false,
            ..Default::default()
        })
        .ground(&mut db, &|_, _| None)
        .unwrap();
        // Bindings: (0,0.1), (0,0.2), (2,0.3) -> 3 IsTrue factors over 2 atoms.
        assert_eq!(g.graph.num_factors(), 3);
        assert_eq!(g.graph.num_variables(), 2);
        assert!(g.atom_id("IsSafe", &[Value::Int(0), Value::from(Point::new(0.0, 0.0))]).is_some());
        assert!(g.atom_id("IsSafe", &[Value::Int(9), Value::Null]).is_none());
    }

    #[test]
    fn null_join_keys_do_not_match_in_grounding() {
        let src = r#"
        A(id bigint).
        B(id bigint).
        Y?(id bigint).
        R: Y(X) :- A(X), B(X).
        "#;
        let program = parse_program(src).unwrap();
        let compiled =
            compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let mut db = Database::new();
        let schema = || TableSchema::new(vec![Column::new("id", DataType::BigInt)]);
        let a = db.create_table("A", schema()).unwrap();
        a.insert(vec![Value::Int(1)]).unwrap();
        a.insert(vec![Value::Null]).unwrap();
        let b = db.create_table("B", schema()).unwrap();
        b.insert(vec![Value::Int(1)]).unwrap();
        b.insert(vec![Value::Null]).unwrap();
        let g = Grounder::new(&compiled, GroundConfig::default())
            .ground(&mut db, &|_, _| None)
            .unwrap();
        // Only id=1 joins; Null never equals Null.
        assert_eq!(g.graph.num_variables(), 1);
        assert_eq!(g.graph.num_factors(), 1);
    }

    #[test]
    fn obs_records_grounding_metrics_and_rule_spans() {
        let program = parse_program(SRC).unwrap();
        let compiled =
            compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let mut db = make_db(10);
        let obs = Obs::enabled();
        let ctx = ExecContext::unbounded().with_obs(obs.clone());
        let g = Grounder::new(&compiled, GroundConfig::default())
            .ground_with(&mut db, &|_, _| None, &ctx)
            .unwrap();

        let m = obs.metrics().unwrap();
        assert_eq!(m.counter_value("ground.rules_total"), Some(g.stats.rules_executed as u64));
        assert_eq!(
            m.counter_value("ground.variables_total"),
            Some(g.stats.variables_created as u64)
        );
        assert_eq!(
            m.counter_value("ground.logical_factors_total"),
            Some(g.stats.logical_factors as u64)
        );
        assert_eq!(
            m.counter_value("ground.spatial_factors_total"),
            Some(g.stats.spatial_factors as u64)
        );
        // Budget checkpoints ran (one full check per rule at minimum).
        assert!(m.counter_value("ground.budget_checks_total").unwrap() >= 2);
        // The R-tree probe of R1's second body atom was chosen and the
        // store recorded the index build + fetches.
        assert!(m.counter_value("store.planner_spatial_probe_total").unwrap() >= 1);
        assert!(m.counter_value("store.spatial_index_builds_total").unwrap() >= 1);
        assert!(m.counter_value("store.rows_fetched_total").unwrap() > 0);

        let spans = obs.trace_snapshot().spans;
        let rule_spans: Vec<_> = spans.iter().filter(|s| s.name == "ground.rule").collect();
        assert_eq!(rule_spans.len(), 2, "one span per rule: {spans:?}");
        assert!(rule_spans
            .iter()
            .any(|s| s.attrs.iter().any(|(k, v)| k == "rule" && v == "R1")));
        assert!(spans.iter().any(|s| s.name == "ground.spatial"));
    }

    #[test]
    fn budget_trip_emits_trace_event_and_trip_counter() {
        let program = parse_program(SRC).unwrap();
        let compiled =
            compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let mut db = make_db(10);
        let obs = Obs::enabled();
        let ctx = ExecContext::new(sya_runtime::RunBudget::unlimited().with_max_factors(1))
            .with_obs(obs.clone());
        let err = Grounder::new(&compiled, GroundConfig::default())
            .ground_with(&mut db, &|_, _| None, &ctx)
            .unwrap_err();
        assert!(matches!(err, GroundError::Budget(_)));
        let m = obs.metrics().unwrap();
        assert_eq!(m.counter_value("runtime.budget_trips_total"), Some(1));
        assert!(obs
            .trace_snapshot()
            .events
            .iter()
            .any(|e| e.severity == sya_runtime::Severity::Warn
                && e.message.contains("budget trip")));
    }

    #[test]
    fn unify_head_inverts_head_values() {
        let src = r#"
        A(id bigint, tag text).
        Y?(id bigint, tag text, twin bigint).
        R1: Y(X, "t", X) :- A(X, _).
        "#;
        let program = parse_program(src).unwrap();
        let compiled =
            compile(&program, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap();
        let head = &compiled.rules[0].head[0];
        let atom = [Value::Int(4), Value::from("t"), Value::Int(4)];
        let seed = unify_head(head, &atom).expect("the head can produce the atom");
        assert_eq!(seed.values.len(), 1, "a repeated slot binds once");
        let mut binding = vec![Value::Null; compiled.rules[0].slots.len()];
        binding[seed.values[0].0] = seed.values[0].1.clone();
        assert_eq!(head_values(head, &binding), atom);
        // The constant disagrees; the repeated slot would need two values.
        assert!(unify_head(head, &[Value::Int(4), Value::from("u"), Value::Int(4)]).is_none());
        assert!(unify_head(head, &[Value::Int(4), Value::from("t"), Value::Int(5)]).is_none());
        // A bound prefix: the query knows the id only.
        assert_eq!(unify_head(head, &[Value::Int(4)]).unwrap().values.len(), 1);
        // A wildcard (the validator rejects one in a head, the compiled
        // form can hold it) materializes as NULL and nothing else.
        let wild = CompiledAtom {
            relation: "Y".to_owned(),
            terms: vec![SlotTerm::Slot(0), SlotTerm::Wildcard],
        };
        assert!(unify_head(&wild, &[Value::Int(4), Value::Null]).is_some());
        assert!(unify_head(&wild, &[Value::Int(4), Value::from("t")]).is_none());
    }

    #[test]
    fn distance_pattern_matcher() {
        use sya_store::Expr;
        let e = Expr::bin(
            BinOp::Lt,
            Expr::distance(Expr::col(1), Expr::col(3)),
            Expr::lit(150.0),
        );
        assert_eq!(distance_lt_pattern(&e), Some((1, 3, 150.0)));
        let mirrored = Expr::bin(
            BinOp::Gt,
            Expr::lit(150.0),
            Expr::distance(Expr::col(1), Expr::col(3)),
        );
        assert_eq!(distance_lt_pattern(&mirrored), Some((1, 3, 150.0)));
        let mirrored_le = Expr::bin(
            BinOp::Ge,
            Expr::lit(150.0),
            Expr::distance(Expr::col(3), Expr::col(1)),
        );
        assert_eq!(distance_lt_pattern(&mirrored_le), Some((3, 1, 150.0)));
        // A lower bound on the distance is no range probe, either way
        // round.
        for op in [BinOp::Gt, BinOp::Ge] {
            let far = Expr::bin(op, Expr::distance(Expr::col(1), Expr::col(3)), Expr::lit(50.0));
            assert_eq!(distance_lt_pattern(&far), None);
        }
        let far_mirrored = Expr::bin(
            BinOp::Lt,
            Expr::lit(50.0),
            Expr::distance(Expr::col(1), Expr::col(3)),
        );
        assert_eq!(distance_lt_pattern(&far_mirrored), None);
        let not_distance = Expr::bin(BinOp::Lt, Expr::col(0), Expr::lit(1.0));
        assert_eq!(distance_lt_pattern(&not_distance), None);
    }
}
