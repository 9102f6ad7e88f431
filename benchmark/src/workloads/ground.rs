//! `ground_gwdb`: compile the program and ground the 9,831-well tables,
//! no sampling — what `sya stats` does. `ground`, `store` and `geom`
//! do all the work and `infer` none.

use super::{named, repeat_for, repeated_inputs, EndToEnd, RunArgs, Tally};
use crate::data::{binary_config, gwdb_inputs, Inputs, Scale};
use crate::spec::GWDB_RULES;
use crate::stats::median;
use crate::trace::Tracer;
use std::time::Instant;
use sya_core::{SyaConfig, SyaSession};
use sya_data::gwdb::GWDB_RADIUS;
use sya_geom::{RTree, Rect};
use sya_ground::{BoundSeed, Grounder, Grounding, GroundingStats};
use sya_runtime::{ExecContext, RunOutcome};
use sya_store::Database;

fn compile(inputs: &Inputs, config: SyaConfig) -> Result<SyaSession, String> {
    let d = &inputs.dataset;
    SyaSession::new(&d.program, d.constants.clone(), d.metric, config)
        .map_err(|e| format!("the GWDB program does not compile: {e}"))
}

fn ground(inputs: &Inputs, session: &SyaSession, db: &mut Database) -> Result<Grounding, String> {
    Grounder::new(session.compiled(), session.config().ground.clone())
        .ground_with(db, &inputs.dataset.evidence_fn(), &ExecContext::unbounded())
        .map_err(|e| format!("grounding failed: {e}"))
}

fn check_grounding(g: &Grounding, inputs: &Inputs, tally: &mut Tally) {
    tally.check(g.outcome == RunOutcome::Completed, || {
        format!("grounding ended {}", g.outcome)
    });
    let wells = inputs.query_ids.len() + inputs.dataset.evidence.len();
    tally.check(g.stats.variables_created == wells, || {
        format!("{} variables for {wells} wells", g.stats.variables_created)
    });
}

/// Times compile + ground on a fresh clone of the tables, `seconds`
/// long; checks that every repetition builds the same graph.
fn timed_groundings(
    inputs: &Inputs,
    config: &SyaConfig,
    seconds: f64,
    tally: &mut Tally,
) -> Result<(Vec<f64>, GroundingStats), String> {
    let mut all_stats = Vec::new();
    let ops_ms = repeat_for(seconds, || {
        let mut db = inputs.dataset.db.clone();
        let t = Instant::now();
        let g = ground(inputs, &compile(inputs, config.clone())?, &mut db)?;
        let wall = t.elapsed();
        check_grounding(&g, inputs, tally);
        all_stats.push(g.stats);
        Ok(wall)
    })?;
    let first = all_stats[0].clone();
    tally.check(all_stats.iter().all(|s| *s == first), || {
        "variable and factor counts differ across repetitions".to_owned()
    });
    Ok((ops_ms, first))
}

pub(super) fn end_to_end(
    args: &RunArgs,
    scale: &Scale,
    tally: &mut Tally,
) -> Result<EndToEnd, String> {
    let (inputs, setups_s) = repeated_inputs(scale.wells, false, args.seed)?;
    let config = binary_config(scale.epochs, args.seed);
    let (ops_ms, stats) = timed_groundings(&inputs, &config, args.seconds, tally)?;
    eprintln!(
        "{}: {} variables, {} logical + {} spatial factors",
        args.workload, stats.variables_created, stats.logical_factors, stats.spatial_factors
    );
    Ok(EndToEnd { setups_s, ops_ms })
}

/// Five groundings stage by stage, the R-tree on its own, every rule
/// on its own, and the same tables under the DeepDive configuration.
pub(super) fn traced(
    args: &RunArgs,
    scale: &Scale,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Vec<(String, f64)>, String> {
    let inputs = gwdb_inputs(scale.wells, false, args.seed);
    let config = binary_config(scale.epochs, args.seed);
    // The untraced figure the staged one is compared with.
    let (untraced_ms, _) = timed_groundings(&inputs, &config, args.seconds / 4.0, tally)?;

    let mut stats = GroundingStats::default();
    for op in 0..5 {
        let mut db = tracer.time("store.db_clone", op, None, || inputs.dataset.db.clone());
        let root = tracer.open("ground_op", op, None);
        let session = tracer.time("lang.compile", op, Some(root), || {
            compile(&inputs, config.clone())
        })?;
        let g = tracer.time("ground.ground_with", op, Some(root), || {
            ground(&inputs, &session, &mut db)
        })?;
        tracer.close(root);
        check_grounding(&g, &inputs, tally);
        stats = g.stats;
    }

    // geom on its own: bulk load and one radius probe per well.
    let points: Vec<_> = inputs.dataset.locations.values().copied().collect();
    let items: Vec<_> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (Rect::from_point(*p), i))
        .collect();
    let tree = tracer.time("geom.rtree_build", 100, None, || RTree::bulk_load(items));
    let found = tracer.time("geom.rtree_radius_probes", 100, None, || {
        points
            .iter()
            .map(|p| tree.within_distance(p, GWDB_RADIUS).len())
            .sum::<usize>()
    });
    tally.check(found >= points.len(), || {
        "a radius probe missed its own centre".to_owned()
    });

    // ground rule by rule: seeded evaluation with the empty seed is the
    // full evaluation of one rule's body.
    let session = compile(&inputs, config.clone())?;
    let labels: Vec<&str> = session
        .compiled()
        .rules
        .iter()
        .map(|r| r.label.as_str())
        .collect();
    if labels != GWDB_RULES {
        return Err(format!(
            "the GWDB program's rules are {labels:?}, the benchmark names {GWDB_RULES:?}"
        ));
    }
    let mut db = inputs.dataset.db.clone();
    let mut grounder = Grounder::new(session.compiled(), session.config().ground.clone());
    let mut rule_metrics = Vec::new();
    for (i, rule) in session.compiled().rules.iter().enumerate() {
        let span = format!("ground.rule.{}", rule.label);
        let bindings = tracer
            .time(&span, 200 + i as u64, None, || {
                grounder.eval_rule_seeded(
                    rule,
                    &mut db,
                    &mut Grounding::new_empty(),
                    &BoundSeed::default(),
                )
            })
            .map_err(|e| format!("rule {} failed: {e}", rule.label))?;
        rule_metrics.push((
            format!("ground.rule_ms.{}", rule.label),
            tracer.durations_ms(&span)[0],
        ));
        rule_metrics.push((
            format!("ground.rule_bindings.{}", rule.label),
            bindings.len() as f64,
        ));
    }

    // The paper's "grounding overhead of the spatial factors": the same
    // tables grounded the DeepDive way, without them.
    let mut deepdive = SyaConfig::deepdive();
    deepdive.ground.weighting_bandwidth = config.ground.weighting_bandwidth;
    deepdive.ground.spatial_radius = config.ground.spatial_radius;
    let dd_session = compile(&inputs, deepdive)?;
    for op in 300..303 {
        let mut db = inputs.dataset.db.clone();
        let g = tracer.time("ground.deepdive", op, None, || {
            ground(&inputs, &dd_session, &mut db)
        })?;
        tally.check(g.stats.spatial_factors == 0, || {
            "DeepDive grounding made spatial factors".into()
        });
    }

    let p50 = |name: &str| median(&tracer.durations_ms(name));
    let ground_s = p50("ground.ground_with") / 1e3;
    let deepdive_s = p50("ground.deepdive") / 1e3;
    let factors = (stats.logical_factors + stats.spatial_factors) as f64;
    let mut out = named([
        ("lang.compile_ms", p50("lang.compile")),
        ("store.db_clone_ms", p50("store.db_clone")),
        ("geom.rtree_build_ms", p50("geom.rtree_build")),
        (
            "geom.rtree_radius_probe_us",
            p50("geom.rtree_radius_probes") * 1e3 / points.len() as f64,
        ),
        ("ground.ground_s", ground_s),
        ("ground.factors_per_s", factors / ground_s),
        ("ground.variables", stats.variables_created as f64),
        ("ground.logical_factors", stats.logical_factors as f64),
        ("ground.spatial_factors", stats.spatial_factors as f64),
        ("ground.queries_executed", stats.queries_executed as f64),
        (
            "ground.pruned_domain_pairs",
            stats.pruned_domain_pairs as f64,
        ),
        ("ground.deepdive_ground_s", deepdive_s),
        (
            "ground.spatial_overhead_share",
            (ground_s - deepdive_s) / deepdive_s,
        ),
        (
            "trace.overhead_share",
            p50("ground_op") / median(&untraced_ms) - 1.0,
        ),
    ]);
    out.extend(rule_metrics);
    Ok(out)
}
