//! The grounding snapshot corpus: `tests/corpus/<case>.ddlog` + its
//! tables (`<case>.<Relation>.csv`), optional evidence
//! (`<case>.evidence.csv`, header `relation,id,value`) and the expected
//! `<case>.out` — the [`Grounding::signature`] of the knowledge base, or
//! one `error|...` line. Regenerate the `.out` files from the full
//! grounding with `SYA_UPDATE_SNAPSHOTS=1 cargo test --test corpus`.
//!
//! Full, delta and query grounding are one evaluation under different
//! seeds, so every case must reach its `.out` three ways:
//!
//! 1. **full** — `Grounder::ground` over the loaded tables;
//! 2. **delta-replayed** — a knowledge base constructed over *empty*
//!    tables, every row replayed through `ground_delta` in two insert
//!    batches, then every other row retracted and re-inserted
//!    (`sya_delta::apply_updates` drives all of it);
//! 3. **query closure** — from every ground atom, the demand-grounded
//!    neighborhood with the boundary left free and a hop depth no
//!    smaller than the graph must reproduce that atom's connected
//!    component of the `.out` graph (evidence atoms are included but
//!    not expanded through; categorical spatial pairs are compared on
//!    the diagonal only — the closure has no co-occurrence statistics
//!    to prune with, a documented gap).
//!
//! Settings ride in `#!` comment lines of the program: `metric`,
//! `bandwidth`, `radius`, `threshold`, `domain <Relation>`, `stepfn`
//! (step-function bands) and `spatial_factors = off`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use sya_core::{EngineMode, SyaConfig, SyaSession};
use sya_delta::{apply_updates, RowUpdate};
use sya_fg::VarId;
use sya_geom::DistanceMetric;
use sya_ground::{Grounder, Grounding, StepFunctionSpec};
use sya_lang::GeomConstants;
use sya_query::{BoundaryPolicy, QueryConfig, QueryError, QueryGrounder};
use sya_runtime::ExecContext;
use sya_store::{read_csv_into, Column, Database, Row, TableSchema, Value};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

type Evidence = HashMap<(String, i64), u32>;
/// Which rows of a table (`index`, `table length`) a replay step takes.
type Pick<'a> = &'a dyn Fn(usize, usize) -> bool;
type MakeUpdate = fn(String, Row) -> RowUpdate;

struct Case {
    name: String,
    source: String,
    metric: DistanceMetric,
    config: SyaConfig,
    evidence: Evidence,
}

impl Case {
    fn load(name: &str) -> Case {
        let dir = corpus_dir();
        let source = fs::read_to_string(dir.join(format!("{name}.ddlog"))).expect("program");
        let mut config = SyaConfig::sya().with_epochs(8).with_seed(3);
        let mut metric = DistanceMetric::Euclidean;
        for line in source.lines().filter_map(|l| l.strip_prefix("#!")) {
            let (key, value) = line.split_once('=').expect("`#! key = value`");
            let (key, value) = (key.trim(), value.trim());
            let number = || value.parse::<f64>().expect("numeric setting");
            match key.split_whitespace().collect::<Vec<_>>().as_slice() {
                ["metric"] => {
                    metric = match value {
                        "euclidean" => DistanceMetric::Euclidean,
                        "haversine" => DistanceMetric::HaversineMiles,
                        other => panic!("{name}: unknown metric {other:?}"),
                    }
                }
                ["bandwidth"] => config.ground.weighting_bandwidth = Some(number()),
                ["radius"] => config.ground.spatial_radius = Some(number()),
                ["threshold"] => config.ground.pruning_threshold = number(),
                ["domain", relation] => {
                    config.ground.domains.insert((*relation).to_owned(), number() as u32);
                }
                ["stepfn"] => {
                    let spec = StepFunctionSpec { bands: number() as usize, ..Default::default() };
                    config.mode = EngineMode::DeepDiveStepFn(spec);
                }
                ["spatial_factors"] => config.ground.generate_spatial_factors = value != "off",
                other => panic!("{name}: unknown setting {other:?}"),
            }
        }
        let mut evidence = Evidence::new();
        if let Ok(text) = fs::read_to_string(dir.join(format!("{name}.evidence.csv"))) {
            for line in text.lines().skip(1).filter(|l| !l.trim().is_empty()) {
                let cells: Vec<&str> = line.split(',').map(str::trim).collect();
                let [relation, id, value] = cells.as_slice() else {
                    panic!("{name}: evidence row {line:?}");
                };
                evidence.insert(
                    ((*relation).to_owned(), id.parse().expect("evidence id")),
                    value.parse().expect("evidence value"),
                );
            }
        }
        Case { name: name.to_owned(), source, metric, config, evidence }
    }

    fn session(&self) -> Result<SyaSession, String> {
        SyaSession::new(&self.source, GeomConstants::new(), self.metric, self.config.clone())
            .map_err(|e| e.to_string())
    }

    /// The input relations that have a table file, with their rows.
    fn tables(&self, session: &SyaSession) -> Vec<(String, TableSchema, Vec<Row>)> {
        let mut schemas: Vec<_> =
            session.compiled().schemas.values().filter(|s| !s.is_variable).collect();
        schemas.sort_by(|a, b| a.name.cmp(&b.name));
        let mut out = Vec::new();
        for decl in schemas {
            let path = corpus_dir().join(format!("{}.{}.csv", self.name, decl.name));
            let Ok(file) = fs::File::open(&path) else { continue };
            let schema = TableSchema::new(
                decl.columns.iter().map(|(n, t)| Column::new(n.as_str(), *t)).collect(),
            );
            let mut db = Database::new();
            let table = db.create_table(decl.name.as_str(), schema.clone()).unwrap();
            read_csv_into(table, std::io::BufReader::new(file))
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            out.push((decl.name.clone(), schema, table.rows().to_vec()));
        }
        out
    }
}

fn database(tables: &[(String, TableSchema, Vec<Row>)], with_rows: bool) -> Database {
    let mut db = Database::new();
    for (name, schema, rows) in tables {
        let table = db.create_table(name.as_str(), schema.clone()).unwrap();
        if with_rows {
            table.insert_all(rows.iter().cloned()).unwrap();
        }
    }
    db
}

fn error_line(message: impl std::fmt::Display) -> Vec<String> {
    vec![format!("error|{message}")]
}

/// Drops categorical spatial lines off the diagonal.
fn diagonal_only(lines: Vec<String>) -> Vec<String> {
    lines
        .into_iter()
        .filter(|l| {
            let Some(pair) = l.strip_prefix("spatial|").and_then(|l| l.rsplit('|').next()) else {
                return true;
            };
            pair.split_once(',').is_none_or(|(a, b)| a == b)
        })
        .collect()
}

/// What the query closure of `seed` must hold, cut out of the full
/// grounding: the variables reachable from the seed without passing
/// through evidence are *expanded*; every factor touching an expanded
/// variable is in, with all its endpoints.
fn component_of(full: &Grounding, seed: VarId) -> Vec<String> {
    let g = &full.graph;
    let mut expanded: HashSet<VarId> = HashSet::new();
    let mut keep: HashSet<VarId> = HashSet::from([seed]);
    let mut queue = VecDeque::from([seed]);
    while let Some(v) = queue.pop_front() {
        if g.variable(v).evidence.is_some() || !expanded.insert(v) {
            continue;
        }
        let logical = g.factors_of(v).iter().flat_map(|&f| g.factors()[f as usize].vars.clone());
        let spatial = g.spatial_factors_of(v).iter().map(|&f| g.spatial_factors()[f as usize].other(v));
        for u in logical.chain(spatial) {
            keep.insert(u);
            queue.push_back(u);
        }
    }
    let mut cut = full.clone();
    for (i, f) in g.factors().iter().enumerate() {
        if !f.vars.iter().any(|v| expanded.contains(v)) {
            cut.tombstone_factor(i as u32);
        }
    }
    for (i, f) in g.spatial_factors().iter().enumerate() {
        if !expanded.contains(&f.a) && !expanded.contains(&f.b) {
            cut.graph.remove_spatial_factor(i as u32);
        }
    }
    for v in (0..g.num_variables() as VarId).filter(|v| !keep.contains(v)) {
        cut.kill_atom(v);
    }
    cut.signature()
}

/// Runs one case all three ways; returns the first disagreement.
fn run(name: &str) -> Result<(), String> {
    let case = Case::load(name);
    let out_path = corpus_dir().join(format!("{name}.out"));
    let ev = |relation: &str, values: &[Value]| {
        let id = values.first().and_then(Value::as_int)?;
        case.evidence.get(&(relation.to_owned(), id)).copied()
    };

    // ---- Way 1: full grounding.
    let session = case.session();
    let tables = session.as_ref().map(|s| case.tables(s)).unwrap_or_default();
    let full = session.as_ref().map_err(String::clone).and_then(|s| {
        Grounder::new(s.compiled(), s.config().ground.clone())
            .ground(&mut database(&tables, true), &ev)
            .map_err(|e| e.to_string())
    });
    let lines = match &full {
        Ok(g) => g.signature(),
        Err(e) => error_line(e),
    };
    if std::env::var_os("SYA_UPDATE_SNAPSHOTS").is_some() {
        fs::write(&out_path, lines.join("\n") + "\n").expect("snapshot written");
    }
    let expected: Vec<String> = fs::read_to_string(&out_path)
        .map_err(|e| format!("{name}: {}: {e} (run with SYA_UPDATE_SNAPSHOTS=1)", out_path.display()))?
        .lines()
        .map(str::to_owned)
        .collect();
    let check = |way: &str, got: &[String], want: &[String]| {
        if got == want {
            return Ok(());
        }
        // Both sides are sorted multisets; a repeated line is a repeated factor.
        let surplus = |a: &[String], b: &[String]| -> Vec<String> {
            let mut rest = b.to_vec();
            let unmatched = a.iter().filter(|l| match rest.iter().position(|r| r == *l) {
                Some(i) => {
                    rest.swap_remove(i);
                    false
                }
                None => true,
            });
            unmatched.take(5).cloned().collect()
        };
        let (missing, extra) = (surplus(want, got), surplus(got, want));
        Err(format!("{name} [{way}]: missing {missing:#?}, unexpected {extra:#?}"))
    };
    check("full", &lines, &expected)?;
    let Ok(session) = session else {
        return Ok(()); // a program that does not compile grounds no way at all
    };

    // ---- Way 2: delta-replayed. Batch one is the first half of every
    // table, batch two the rest.
    let batch = |pick: Pick, op: MakeUpdate| {
        let mut updates = Vec::new();
        for (relation, _, rows) in &tables {
            let picked = rows.iter().enumerate().filter(|(i, _)| pick(*i, rows.len()));
            updates.extend(picked.map(|(_, row)| op(relation.clone(), row.clone())));
        }
        updates
    };
    let mut db = database(&tables, false);
    let replayed = session.construct(&mut db, &ev).map_err(|e| e.to_string()).and_then(|mut kb| {
        let steps: [(Pick, MakeUpdate); 4] = [
            (&|i, n| i < n.div_ceil(2), RowUpdate::insert),
            (&|i, n| i >= n.div_ceil(2), RowUpdate::insert),
            (&|i, _| i % 2 == 0, RowUpdate::retract),
            (&|i, _| i % 2 == 0, RowUpdate::insert),
        ];
        for (step, (pick, op)) in steps.into_iter().enumerate() {
            let updates = batch(pick, op);
            if !updates.is_empty() {
                apply_updates(&session, &mut kb, &mut db, &ev, &updates)
                    .map_err(|e| e.to_string())?;
            }
            if step == 1 {
                check("delta-replayed", &kb.grounding.signature(), &expected)?;
            }
        }
        Ok(kb.grounding.signature())
    });
    match (&full, replayed) {
        (Ok(_), got) => check("retracted and re-inserted", &got?, &expected)?,
        // The delta path meets the same missing table, wrapped once.
        (Err(e), Err(got)) if got.ends_with(e.as_str()) => {}
        (Err(_), got) => return Err(format!("{name} [delta-replayed]: expected an error, got {got:?}")),
    }

    // ---- Way 3: the query closure of every atom.
    let mut db = database(&tables, true);
    let mut qg = QueryGrounder::new(
        session.compiled().clone(),
        session.config().ground.clone(),
        QueryConfig {
            hop_depth: tables.iter().map(|t| t.2.len()).sum::<usize>() + 1,
            boundary: BoundaryPolicy::Free,
            ..QueryConfig::default()
        },
    );
    let ctx = ExecContext::unbounded();
    let full = match full {
        Ok(full) => full,
        Err(e) => {
            // Any bound atom of a variable relation meets the same error.
            let relation = session.compiled().schemas.values().find(|s| s.is_variable).unwrap();
            return match qg.neighborhood(&mut db, &ev, &relation.name, 0, &ctx) {
                Err(QueryError::Ground(got)) if got.to_string() == e => Ok(()),
                other => Err(format!("{name} [closure]: expected {e:?}, got {:?}", other.err())),
            };
        }
    };
    // A query binds `(relation, id)`; where several atoms share the id
    // the closure is that of the one it seeded.
    let mut queried = HashSet::new();
    for (relation, values) in &full.atom_meta {
        let id = values.first().and_then(Value::as_int).expect("corpus atoms lead with an id");
        if !queried.insert((relation, id)) {
            continue;
        }
        let nh = qg.neighborhood(&mut db, &ev, relation, id, &ctx).map_err(|e| e.to_string())?;
        if !nh.warnings.is_empty() {
            return Err(format!("{name} [closure of {relation}({id})]: {:?}", nh.warnings));
        }
        let (_, seed_values) = &nh.grounding.atom_meta[nh.seed as usize];
        let seed = full.atom_id(relation, seed_values).expect("the seed is an atom of the KB");
        check(
            &format!("closure of {relation}({id})"),
            &diagonal_only(nh.grounding.signature()),
            &diagonal_only(component_of(&full, seed)),
        )?;
    }
    Ok(())
}

#[test]
fn every_case_grounds_the_same_three_ways() {
    let mut names: Vec<String> = fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok()?.file_name().to_str()?.strip_suffix(".ddlog").map(str::to_owned))
        .collect();
    names.sort();
    assert!(names.len() >= 12, "the corpus shrank to {} cases", names.len());
    let failures: Vec<String> = names.iter().filter_map(|n| run(n).err()).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
