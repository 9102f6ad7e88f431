//! `batch_gwdb` and `batch_gwdb_cat`: the paper's headline run, a full
//! construct of the 9,831-well knowledge base. The operation is what
//! `sya run` does after loading its tables: compile, ground, sample,
//! extract every query score.

use super::{ms, named, repeated_inputs, EndToEnd, RunArgs, Tally};
use crate::data::{
    binary_config, categorical_config, f1_binary, f1_categorical, gwdb_inputs, Inputs, Scale,
    RELATION,
};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use sya_core::{KnowledgeBase, SyaConfig, SyaSession, Timings};
use sya_fg::FactorGraph;
use sya_ground::Grounder;
use sya_infer::{min_conclique_cover, sequential_gibbs_with, spatial_gibbs_with, PyramidIndex};
use sya_runtime::{ExecContext, RunOutcome};

/// Seconds of `--seconds` per construct measured: two in ten seconds.
const NOMINAL_CONSTRUCT_S: f64 = 5.0;

fn config(categorical: bool, scale: &Scale, seed: u64) -> SyaConfig {
    if categorical {
        categorical_config(scale.cat_epochs, seed)
    } else {
        binary_config(scale.epochs, seed)
    }
}

fn session(inputs: &Inputs, config: SyaConfig) -> Result<SyaSession, String> {
    let d = &inputs.dataset;
    SyaSession::new(&d.program, d.constants.clone(), d.metric, config)
        .map_err(|e| format!("the GWDB program does not compile: {e}"))
}

fn f1(categorical: bool, inputs: &Inputs, kb: &KnowledgeBase, scores: &[(i64, f64)]) -> f64 {
    if categorical {
        f1_categorical(inputs, kb)
    } else {
        f1_binary(inputs, scores)
    }
}

/// Checks one constructed KB; returns its `(variables, factors)`.
fn check_kb(
    categorical: bool,
    inputs: &Inputs,
    scale: &Scale,
    kb: &KnowledgeBase,
    scores: &[(i64, f64)],
    tally: &mut Tally,
) -> (usize, usize, f64) {
    tally.check(kb.outcome == RunOutcome::Completed, || {
        format!("run ended {}", kb.outcome)
    });
    let ids: Vec<i64> = scores.iter().map(|&(id, _)| id).collect();
    tally.check(ids == inputs.query_ids, || {
        format!(
            "{} query atoms scored, {} expected",
            ids.len(),
            inputs.query_ids.len()
        )
    });
    tally.check(
        scores.iter().all(|&(_, s)| (0.0..=1.0).contains(&s)),
        || "a score lies outside [0, 1]".to_owned(),
    );
    let f1 = f1(categorical, inputs, kb, scores);
    if !categorical {
        tally.check(f1 >= scale.min_f1, || {
            format!("F1 {f1:.4} is below {}", scale.min_f1)
        });
    }
    let graph = &kb.grounding.graph;
    (
        graph.num_variables(),
        graph.num_factors() + graph.num_spatial_factors(),
        f1,
    )
}

/// One finished operation.
struct Built {
    kb: KnowledgeBase,
    scores: Vec<(i64, f64)>,
    wall: Duration,
}

/// The operation: compile, construct, extract every query score, on
/// a fresh clone of the tables (cloned before the clock starts).
fn construct(inputs: &Inputs, config: &SyaConfig) -> Result<Built, String> {
    let mut db = inputs.dataset.db.clone();
    let t = Instant::now();
    let kb = session(inputs, config.clone())?
        .construct(&mut db, &inputs.dataset.evidence_fn())
        .map_err(|e| format!("construct failed: {e}"))?;
    let scores = kb.query_scores_by_id(RELATION);
    let wall = t.elapsed();
    Ok(Built { kb, scores, wall })
}

pub(super) fn end_to_end(
    categorical: bool,
    args: &RunArgs,
    scale: &Scale,
    tally: &mut Tally,
) -> Result<EndToEnd, String> {
    let (inputs, setups_s) = repeated_inputs(scale.wells, categorical, args.seed)?;
    let config = config(categorical, scale, args.seed);
    // A construct takes 5 to 7 s here, so the clock would flip the count
    // between two and three from run to run, and with it the sample and
    // the peak memory (which grows by about 3 MB per construct). The
    // count therefore follows `--seconds`, not the clock.
    let constructs = ((args.seconds / NOMINAL_CONSTRUCT_S) as usize).max(1);
    let mut shapes = Vec::new();
    let mut ops_ms = Vec::new();
    for _ in 0..constructs {
        let b = construct(&inputs, &config)?;
        shapes.push(check_kb(
            categorical,
            &inputs,
            scale,
            &b.kb,
            &b.scores,
            tally,
        ));
        ops_ms.push(ms(b.wall));
    }
    let (vars, factors, f1) = shapes[0];
    tally.check(
        shapes.iter().all(|&(v, f, _)| (v, f) == (vars, factors)),
        || format!("variable and factor counts differ across repetitions: {shapes:?}"),
    );
    eprintln!(
        "{}: {vars} variables, {factors} factors, F1 {f1:.4}",
        args.workload
    );
    Ok(EndToEnd { setups_s, ops_ms })
}

/// Free (non-evidence) variables and the sum of their degrees: one
/// epoch updates each free variable once and visits each of its
/// factors once, so these give the computed update and visit counts.
fn free_vars_and_degree(graph: &FactorGraph) -> (usize, usize) {
    graph
        .variables()
        .iter()
        .filter(|v| !v.is_evidence())
        .fold((0, 0), |(n, deg), v| {
            (
                n + 1,
                deg + graph.factors_of(v.id).len() + graph.spatial_factors_of(v.id).len(),
            )
        })
}

/// One untraced construct, then the same construct stage by stage
/// through the layers' public functions, then the sequential baseline.
pub(super) fn traced(
    categorical: bool,
    args: &RunArgs,
    scale: &Scale,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Vec<(String, f64)>, String> {
    let inputs = gwdb_inputs(scale.wells, categorical, args.seed);
    let config = config(categorical, scale, args.seed);
    let evidence = inputs.dataset.evidence_fn();

    let untraced = construct(&inputs, &config)?;
    let untraced_ms = ms(untraced.wall);
    let untraced_shape = check_kb(
        categorical,
        &inputs,
        scale,
        &untraced.kb,
        &untraced.scores,
        tally,
    );
    drop(untraced);

    let op = 1;
    let mut db = tracer.time("store.db_clone", op, None, || inputs.dataset.db.clone());
    let root = tracer.open("construct", op, None);
    let session = tracer.time("lang.compile", op, Some(root), || session(&inputs, config))?;
    let cfg = session.config().clone();
    let ctx = ExecContext::new(cfg.budget.clone());
    let grounding = tracer
        .time("ground.ground_with", op, Some(root), || {
            Grounder::new(session.compiled(), cfg.ground.clone())
                .ground_with(&mut db, &evidence, &ctx)
        })
        .map_err(|e| format!("grounding failed: {e}"))?;
    let pyramid = tracer.time("infer.pyramid_build", op, Some(root), || {
        PyramidIndex::build(&grounding.graph, cfg.infer.levels, cfg.infer.cell_capacity)
    });
    let run = tracer
        .time("infer.spatial_gibbs", op, Some(root), || {
            spatial_gibbs_with(&grounding.graph, &pyramid, &cfg.infer, &ctx)
        })
        .map_err(|e| format!("sampling failed: {e}"))?;
    let (kb, scores) = tracer.time("core.score_extract", op, Some(root), || {
        let kb = KnowledgeBase {
            outcome: grounding.outcome.combine(run.outcome),
            grounding,
            counts: run.counts,
            pyramid: Some(pyramid),
            timings: Timings::default(),
            config: cfg.clone(),
            warnings: run.warnings,
            telemetry: run.telemetry,
        };
        let scores = kb.query_scores_by_id(RELATION);
        (kb, scores)
    });
    tracer.close(root);
    let staged_shape = check_kb(categorical, &inputs, scale, &kb, &scores, tally);
    tally.check(
        (staged_shape.0, staged_shape.1) == (untraced_shape.0, untraced_shape.1),
        || format!("staged construct built {staged_shape:?}, untraced {untraced_shape:?}"),
    );

    let graph = &kb.grounding.graph;
    let pyramid = kb.pyramid.as_ref().expect("built above");
    let infer = &cfg.infer;
    let level = infer.locality_level.clamp(1, pyramid.levels());
    let cells = pyramid.sampling_cells(level);
    let (free, degree) = free_vars_and_degree(graph);
    let instances = infer.instances.max(1);
    let epochs = (infer.epochs / instances).max(1) * instances;

    let seq_epochs = infer.epochs.min(100);
    let seq = tracer.time("infer.sequential_gibbs", 2, None, || {
        sequential_gibbs_with(
            graph,
            seq_epochs,
            (seq_epochs / 10).max(1),
            infer.seed,
            &ctx,
        )
    });
    tally.check(seq.outcome == RunOutcome::Completed, || {
        format!("sequential baseline ended {}", seq.outcome)
    });

    let span_ms = |name: &str| tracer.durations_ms(name).iter().sum::<f64>();
    let stages_ms: f64 = [
        "lang.compile",
        "ground.ground_with",
        "infer.pyramid_build",
        "infer.spatial_gibbs",
        "core.score_extract",
    ]
    .iter()
    .map(|s| span_ms(s))
    .sum();
    let ground_s = span_ms("ground.ground_with") / 1e3;
    let sample_ns = span_ms("infer.spatial_gibbs") * 1e6;
    let seq_ns = span_ms("infer.sequential_gibbs") * 1e6;
    let stats = &kb.grounding.stats;
    let factors = (stats.logical_factors + stats.spatial_factors) as f64;
    let per = |total_ns: f64, per_epoch: usize, epochs: usize| {
        total_ns / (per_epoch.max(1) * epochs.max(1)) as f64
    };
    Ok(named([
        ("lang.compile_ms", span_ms("lang.compile")),
        ("store.db_clone_ms", span_ms("store.db_clone")),
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
        ("infer.pyramid_build_ms", span_ms("infer.pyramid_build")),
        ("infer.sampling_cells", cells.len() as f64),
        ("infer.concliques", min_conclique_cover(&cells).len() as f64),
        ("infer.sample_s", sample_ns / 1e9),
        ("infer.var_updates", (free * epochs) as f64),
        ("infer.factor_visits", (degree * epochs) as f64),
        ("infer.ns_per_var_update", per(sample_ns, free, epochs)),
        ("infer.ns_per_factor_visit", per(sample_ns, degree, epochs)),
        ("infer.seq_ns_per_var_update", per(seq_ns, free, seq_epochs)),
        (
            "infer.seq_ns_per_factor_visit",
            per(seq_ns, degree, seq_epochs),
        ),
        ("core.score_extract_ms", span_ms("core.score_extract")),
        // What the stage spans leave uncovered of the staged construct.
        // Comparing with the untraced construct instead would add the
        // difference between two 7 s runs (up to 8 % here), which is
        // `trace.overhead_share`, not missing attribution.
        (
            "core.unattributed_share",
            1.0 - stages_ms / span_ms("construct"),
        ),
        ("quality.f1", staged_shape.2),
        (
            "trace.overhead_share",
            span_ms("construct") / untraced_ms - 1.0,
        ),
    ]))
}
