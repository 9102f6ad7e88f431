//! Parity and strictness guarantees of demand-driven grounding
//! (vendored `proptest`).
//!
//! 1. **Parity**: on randomized small KBs, the lazy bound-marginal
//!    answer lands within tolerance of the full ground-and-sample
//!    pipeline, across hop depths and spatial radii. With evidence
//!    blocking expansion, a hop depth past the evidence separators makes
//!    the neighborhood capture the seed's full Markov blanket closure,
//!    so the residual gap is sampler noise, not structure.
//! 2. **Strictness**: the demand-grounded neighborhood never contains an
//!    atom or factor outside the bound atom's closure — every lazy atom
//!    and factor exists in the full grounding, and every lazy atom lies
//!    within `hop_depth` factor hops of the seed (evidence-blocked BFS
//!    in the *full* graph).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use sya_fg::VarId;
use sya_geom::{DistanceMetric, Point};
use sya_ground::{GroundConfig, Grounder, Grounding, Key};
use sya_infer::{spatial_gibbs_with, InferConfig, PyramidIndex};
use sya_lang::{compile, parse_program, CompiledProgram, GeomConstants};
use sya_query::{QueryConfig, QueryGrounder};
use sya_runtime::ExecContext;
use sya_store::{Column, DataType, Database, TableSchema, Value};

/// A GWDB-shaped mini program: one derivation, one spatial-join
/// implication with parametric reach, two unary prior rules.
fn program(rule_radius: f64) -> CompiledProgram {
    let src = format!(
        r#"
    Well(id bigint, location point, arsenic double).
    @spatial(exp)
    IsSafe?(id bigint, location point).
    D1: IsSafe(W, L) = NULL :- Well(W, L, _).
    R1: @weight(0.7) IsSafe(W1, L1) => IsSafe(W2, L2) :-
        Well(W1, L1, A1), Well(W2, L2, A2)
        [distance(L1, L2) < {rule_radius}, A1 < 0.25, A2 < 0.25, W1 != W2].
    R2: @weight(0.8)  IsSafe(W, L) :- Well(W, L, A) [A < 0.1].
    R3: @weight(-0.9) IsSafe(W, L) :- Well(W, L, A) [A > 0.6].
    "#
    );
    let ast = parse_program(&src).unwrap();
    compile(&ast, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap()
}

/// Wells on a jittered line with random arsenic readings; roughly 40%
/// carry evidence correlated with a smooth left-to-right field.
struct MiniKb {
    db: Database,
    evidence: HashMap<i64, u32>,
    n: usize,
}

fn mini_kb(seed: u64, n: usize, spacing: f64) -> MiniKb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let schema = TableSchema::new(vec![
        Column::new("id", DataType::BigInt),
        Column::new("location", DataType::Point),
        Column::new("arsenic", DataType::Double),
    ]);
    let t = db.create_table("Well", schema).unwrap();
    let mut evidence = HashMap::new();
    for i in 0..n {
        let x = i as f64 * spacing;
        let y = rng.gen_range(-0.3..0.3);
        t.insert(vec![
            Value::Int(i as i64),
            Value::from(Point::new(x, y)),
            Value::Double(rng.gen_range(0.0..1.0)),
        ])
        .unwrap();
        if rng.gen_bool(0.4) {
            // Left half of the field tends safe, right half unsafe.
            let safe = (i as f64) < n as f64 / 2.0;
            let flip = rng.gen_bool(0.1);
            evidence.insert(i as i64, u32::from(safe != flip));
        }
    }
    MiniKb { db, evidence, n }
}

impl MiniKb {
    fn evidence_fn(&self) -> impl Fn(&str, &[Value]) -> Option<u32> + '_ {
        move |_, values| {
            values.first().and_then(Value::as_int).and_then(|id| self.evidence.get(&id).copied())
        }
    }

    /// A free (non-evidence) well near the middle of the line.
    fn mid_query_id(&self) -> i64 {
        let mid = self.n as i64 / 2;
        (0..self.n as i64)
            .min_by_key(|id| if self.evidence.contains_key(id) { i64::MAX } else { (id - mid).abs() })
            .unwrap()
    }
}

fn ground_cfg(radius: f64) -> GroundConfig {
    GroundConfig {
        weighting_bandwidth: Some(1.0),
        spatial_radius: Some(radius),
        ..GroundConfig::default()
    }
}

fn chain_cfg(epochs: usize, seed: u64) -> InferConfig {
    InferConfig {
        epochs,
        burn_in: (epochs / 10).max(1),
        instances: 1,
        levels: 3,
        locality_level: 3,
        seed,
        ..InferConfig::default()
    }
}

/// Full ground-and-sample: the reference the lazy path must reproduce.
fn full_scores(
    compiled: &CompiledProgram,
    kb: &MiniKb,
    gcfg: &GroundConfig,
    icfg: &InferConfig,
) -> (Grounding, HashMap<i64, f64>) {
    let mut db = kb.db.clone();
    let mut grounder = Grounder::new(compiled, gcfg.clone());
    let grounding = grounder.ground(&mut db, &kb.evidence_fn()).unwrap();
    let pyramid = PyramidIndex::build(&grounding.graph, icfg.levels, icfg.cell_capacity);
    let counts = spatial_gibbs_with(&grounding.graph, &pyramid, icfg, &ExecContext::unbounded())
        .unwrap()
        .counts;
    let mut scores = HashMap::new();
    for &v in grounding.atoms_of("IsSafe") {
        let (_, values) = &grounding.atom_meta[v as usize];
        let Some(id) = values.first().and_then(Value::as_int) else { continue };
        let var = grounding.graph.variable(v);
        let score = match var.evidence {
            Some(e) => e as f64,
            None => counts.factual_score(v),
        };
        scores.insert(id, score);
    }
    (grounding, scores)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lazy_marginal_matches_full_pipeline_within_tolerance(
        seed in 0u64..10_000,
        n in 18usize..36,
        radius in prop::sample::select(vec![1.6f64, 2.0, 2.5]),
        hop_depth in 4usize..7,
    ) {
        let compiled = program(radius + 0.5);
        let kb = mini_kb(seed, n, 1.0);
        let gcfg = ground_cfg(radius);
        let icfg = chain_cfg(1500, seed ^ 0xFACE);
        let (_, full) = full_scores(&compiled, &kb, &gcfg, &icfg);

        let qcfg = QueryConfig { hop_depth, infer: icfg.clone(), ..QueryConfig::default() };
        let mut qg = QueryGrounder::new(compiled, gcfg, qcfg);
        let mut db = kb.db.clone();
        let id = kb.mid_query_id();
        let answer = qg
            .marginal(&mut db, &kb.evidence_fn(), "IsSafe", id, &ExecContext::unbounded())
            .unwrap();
        let reference = full[&id];
        prop_assert!(
            (answer.score - reference).abs() < 0.2,
            "well {}: lazy {:.3} vs full {:.3} (n={} radius={} hops={})",
            id, answer.score, reference, n, radius, hop_depth
        );
    }

    #[test]
    fn lazy_evidence_answer_is_exact(
        seed in 0u64..10_000,
        n in 18usize..36,
    ) {
        let kb = mini_kb(seed, n, 1.0);
        // 40% evidence density over 18+ wells: an empty map is a
        // one-in-ten-million draw — skip it rather than assume-filter
        // (the vendored proptest has no prop_assume).
        if kb.evidence.is_empty() {
            return Ok(());
        }
        let (&id, &value) = kb.evidence.iter().next().unwrap();
        let mut qg = QueryGrounder::new(program(2.5), ground_cfg(2.0), QueryConfig::default());
        let mut db = kb.db.clone();
        let answer = qg
            .marginal(&mut db, &kb.evidence_fn(), "IsSafe", id, &ExecContext::unbounded())
            .unwrap();
        prop_assert_eq!(answer.evidence, Some(value));
        prop_assert_eq!(answer.score, value as f64);
        prop_assert!(!answer.stats.sampled);
    }
}

/// Evidence-blocked BFS hop distances from `seed` over the full graph's
/// factor adjacency — the closure the lazy path is allowed to ground.
fn full_hops(grounding: &Grounding, seed: VarId) -> HashMap<VarId, usize> {
    let mut hops = HashMap::from([(seed, 0usize)]);
    let mut queue = VecDeque::from([seed]);
    while let Some(v) = queue.pop_front() {
        let hop = hops[&v];
        // Evidence atoms are reachable but d-separate what lies beyond.
        if v != seed && grounding.graph.variable(v).evidence.is_some() {
            continue;
        }
        for u in grounding.graph.neighbours(v) {
            if let std::collections::hash_map::Entry::Vacant(e) = hops.entry(u) {
                e.insert(hop + 1);
                queue.push_back(u);
            }
        }
    }
    hops
}

/// Identity of an atom across the two groundings.
fn atom_key(grounding: &Grounding, v: VarId) -> (String, Key) {
    let (rel, values) = &grounding.atom_meta[v as usize];
    (rel.clone(), Key::of(values))
}

#[test]
fn neighborhood_never_leaves_the_bound_atom_closure() {
    let compiled = program(2.5);
    let kb = mini_kb(77, 30, 1.0);
    let gcfg = ground_cfg(2.0);
    let mut db = kb.db.clone();
    let mut grounder = Grounder::new(&compiled, gcfg.clone());
    let full = grounder.ground(&mut db, &kb.evidence_fn()).unwrap();
    let id = kb.mid_query_id();

    // Full-graph factor signatures the lazy factors must be drawn from.
    let logical: HashSet<(String, Vec<(String, Key)>)> = full
        .graph
        .factors()
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut ends: Vec<_> = f.vars.iter().map(|&v| atom_key(&full, v)).collect();
            ends.sort();
            (full.factor_rule(i as u32).to_owned(), ends)
        })
        .collect();
    let spatial: HashSet<(Vec<(String, Key)>, u64)> = full
        .graph
        .spatial_factors()
        .iter()
        .map(|f| {
            let mut ends = vec![atom_key(&full, f.a), atom_key(&full, f.b)];
            ends.sort();
            (ends, f.weight.to_bits())
        })
        .collect();

    for hop_depth in [1usize, 2, 3] {
        let qcfg = QueryConfig { hop_depth, ..QueryConfig::default() };
        let mut qg = QueryGrounder::new(compiled.clone(), gcfg.clone(), qcfg);
        let mut qdb = kb.db.clone();
        let nh = qg
            .neighborhood(&mut qdb, &kb.evidence_fn(), "IsSafe", id, &ExecContext::unbounded())
            .unwrap();

        // Map lazy atoms into the full grounding and bound their hops.
        let full_seed = full
            .atom_id("IsSafe", &nh.grounding.atom_meta[nh.seed as usize].1)
            .expect("seed exists in the full grounding");
        let hops = full_hops(&full, full_seed);
        let mut lazy_to_full: HashMap<VarId, VarId> = HashMap::new();
        for v in 0..nh.grounding.graph.num_variables() as VarId {
            let (rel, values) = &nh.grounding.atom_meta[v as usize];
            let fv = full
                .atom_id(rel, values)
                .unwrap_or_else(|| panic!("lazy atom {rel}({values:?}) not in full grounding"));
            let hop = hops.get(&fv).copied().unwrap_or(usize::MAX);
            assert!(
                hop <= hop_depth,
                "lazy atom {rel}({values:?}) is {hop} hops from the seed (> {hop_depth})"
            );
            lazy_to_full.insert(v, fv);
        }

        // Every lazy factor exists verbatim in the full grounding, with
        // at least one endpoint strictly inside the horizon.
        for (i, f) in nh.grounding.graph.factors().iter().enumerate() {
            let label = nh.grounding.factor_rule(i as u32).to_owned();
            let mut ends: Vec<_> =
                f.vars.iter().map(|&v| atom_key(&nh.grounding, v)).collect();
            ends.sort();
            assert!(
                logical.contains(&(label.clone(), ends.clone())),
                "lazy logical factor {label} {ends:?} absent from the full grounding"
            );
            let min_hop = f
                .vars
                .iter()
                .map(|v| hops.get(&lazy_to_full[v]).copied().unwrap_or(usize::MAX))
                .min()
                .unwrap();
            assert!(min_hop < hop_depth, "factor {label} has no expanded endpoint");
        }
        for f in nh.grounding.graph.spatial_factors() {
            let mut ends =
                vec![atom_key(&nh.grounding, f.a), atom_key(&nh.grounding, f.b)];
            ends.sort();
            assert!(
                spatial.contains(&(ends.clone(), f.weight.to_bits())),
                "lazy spatial factor {ends:?} (w={}) absent from the full grounding",
                f.weight
            );
        }
    }
}

/// Deeper horizons only ever grow the neighborhood (monotone closure).
#[test]
fn neighborhood_grows_monotonically_with_hop_depth() {
    let compiled = program(2.5);
    let kb = mini_kb(42, 40, 1.0);
    let gcfg = ground_cfg(2.0);
    let id = kb.mid_query_id();
    let mut previous = 0usize;
    for hop_depth in 1..=4 {
        let qcfg = QueryConfig { hop_depth, ..QueryConfig::default() };
        let mut qg = QueryGrounder::new(compiled.clone(), gcfg.clone(), qcfg);
        let mut db = kb.db.clone();
        let nh = qg
            .neighborhood(&mut db, &kb.evidence_fn(), "IsSafe", id, &ExecContext::unbounded())
            .unwrap();
        assert!(
            nh.grounding.graph.num_variables() >= previous,
            "hop {hop_depth} shrank the neighborhood"
        );
        previous = nh.grounding.graph.num_variables();
    }
}
