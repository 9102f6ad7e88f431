//! End-to-end integration tests spanning all crates: program text →
//! grounding → inference → evaluation, on all three datasets.

use std::collections::HashSet;
use sya::data::{
    ebola_dataset, gwdb_dataset, nyccas_dataset, supported_ids, Dataset, GwdbConfig,
    NyccasConfig, QualityEval,
};
use sya::{
    EngineMode, ExecContext, FaultPlan, KnowledgeBase, RunOutcome, SamplerKind, SyaConfig,
    SyaError, SyaSession,
};
use sya_store::Value;

fn build(dataset: &Dataset, config: SyaConfig) -> KnowledgeBase {
    let session =
        SyaSession::new(&dataset.program, dataset.constants.clone(), dataset.metric, config)
            .expect("program compiles");
    let mut db = dataset.db.clone();
    let evidence = dataset.evidence.clone();
    session
        .construct(&mut db, &move |_, vals| {
            vals.first()
                .and_then(Value::as_int)
                .and_then(|id| evidence.get(&id).copied())
        })
        .expect("construction succeeds")
}

/// Like [`build`], but under a caller-owned execution context, returning
/// the error instead of unwrapping.
fn build_with(
    dataset: &Dataset,
    config: SyaConfig,
    ctx: &ExecContext,
) -> Result<KnowledgeBase, SyaError> {
    let session =
        SyaSession::new(&dataset.program, dataset.constants.clone(), dataset.metric, config)
            .expect("program compiles");
    let mut db = dataset.db.clone();
    let evidence = dataset.evidence.clone();
    session.construct_with(&mut db, &move |_, vals| {
        vals.first()
            .and_then(Value::as_int)
            .and_then(|id| evidence.get(&id).copied())
    }, ctx)
}

fn quality(dataset: &Dataset, kb: &KnowledgeBase, relation: &str) -> QualityEval {
    let scores = kb.query_scores_by_id(relation);
    let query = dataset.query_ids();
    let supported: HashSet<i64> = supported_ids(
        &dataset.locations,
        dataset.evidence.keys().copied(),
        &query,
        dataset.support_radius,
        dataset.metric,
    );
    QualityEval::evaluate(&scores, &dataset.truth, &supported)
}

fn gwdb_config(sya: bool) -> SyaConfig {
    let base = if sya { SyaConfig::sya() } else { SyaConfig::deepdive() };
    base.with_epochs(600)
        .with_seed(5)
        .with_bandwidth(sya_data::gwdb::GWDB_BANDWIDTH)
        .with_spatial_radius(sya_data::gwdb::GWDB_RADIUS)
}

#[test]
fn convergence_telemetry_recorded_for_both_samplers() {
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 80, ..Default::default() });

    // Spatial Gibbs: a single instance runs every configured epoch
    // itself (K instances each run epochs/K), so the merged series must
    // cover at least the configured epoch count.
    let epochs = 50;
    let mut cfg = gwdb_config(true).with_epochs(epochs);
    cfg.infer.instances = 1;
    let kb = build(&dataset, cfg);
    assert!(
        kb.telemetry.marginal_delta.len() >= epochs,
        "spatial marginal-delta series covers {} of {epochs} epochs",
        kb.telemetry.marginal_delta.len()
    );
    assert_eq!(kb.telemetry.flip_rate.len(), kb.telemetry.marginal_delta.len());
    assert!(kb.telemetry.epochs >= epochs);
    assert!(kb.telemetry.samples_total > 0);

    // Sequential Gibbs (the DeepDive comparator) records the same
    // per-epoch series.
    let kb = build(&dataset, gwdb_config(false).with_epochs(30));
    assert!(kb.telemetry.marginal_delta.len() >= 30, "{}", kb.telemetry.marginal_delta.len());
    assert_eq!(kb.telemetry.flip_rate.len(), kb.telemetry.marginal_delta.len());
}

#[test]
fn sya_beats_deepdive_on_gwdb() {
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 600, ..Default::default() });
    let sya = quality(&dataset, &build(&dataset, gwdb_config(true)), "IsSafe");
    let dd = quality(&dataset, &build(&dataset, gwdb_config(false)), "IsSafe");
    assert!(
        sya.f1() > dd.f1() * 1.5,
        "paper reports +120% F1 on GWDB; got Sya {} vs DeepDive {}",
        sya.f1(),
        dd.f1()
    );
    assert!(sya.precision() > dd.precision(), "precision must improve");
    assert!(sya.recall() > dd.recall(), "recall must improve");
}

#[test]
fn sya_beats_deepdive_on_nyccas_with_smaller_margin() {
    let dataset = nyccas_dataset(&NyccasConfig { grid: 20, ..Default::default() });
    let cfg = |sya: bool| {
        let base = if sya { SyaConfig::sya() } else { SyaConfig::deepdive() };
        base.with_epochs(600)
            .with_seed(5)
            .with_bandwidth(sya_data::nyccas::NYCCAS_BANDWIDTH)
            .with_spatial_radius(sya_data::nyccas::NYCCAS_RADIUS)
    };
    let sya = quality(&dataset, &build(&dataset, cfg(true)), "IsPolluted");
    let dd = quality(&dataset, &build(&dataset, cfg(false)), "IsPolluted");
    assert!(
        sya.f1() > dd.f1(),
        "Sya {} must beat DeepDive {}",
        sya.f1(),
        dd.f1()
    );
}

#[test]
fn ebola_scores_grade_with_distance() {
    let dataset = ebola_dataset();
    let cfg = SyaConfig::sya()
        .with_epochs(2000)
        .with_seed(9)
        .with_bandwidth(sya_data::ebola::EBOLA_BANDWIDTH_MILES)
        .with_spatial_radius(sya_data::ebola::EBOLA_RADIUS_MILES);
    let kb = build(&dataset, cfg);
    let scores = kb.scores_by_id("HasEbola");
    assert!(scores[1].1 > scores[2].1, "Margibi > Bong");
    assert!(scores[2].1 > scores[3].1, "Bong > Gbarpolu");
}

#[test]
fn grounding_overhead_of_spatial_factors_is_bounded() {
    // Paper Fig. 9(b): Sya grounding at most ~15% slower than DeepDive.
    // Structural check (robust to machine noise): Sya's grounding emits
    // the same logical factors plus spatial factors.
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 400, ..Default::default() });
    let sya_kb = build(&dataset, gwdb_config(true).with_epochs(10));
    let dd_kb = build(&dataset, gwdb_config(false).with_epochs(10));
    assert_eq!(
        sya_kb.grounding.stats.logical_factors,
        dd_kb.grounding.stats.logical_factors,
        "logical grounding must be identical"
    );
    assert!(sya_kb.grounding.stats.spatial_factors > 0);
    assert_eq!(dd_kb.grounding.stats.spatial_factors, 0);
}

#[test]
fn all_samplers_produce_consistent_scores() {
    // Three samplers over the same grounded graph must roughly agree on
    // well-determined variables.
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 200, ..Default::default() });
    let mut kbs = Vec::new();
    for sampler in [
        SamplerKind::Spatial,
        SamplerKind::Sequential,
        SamplerKind::ParallelRandom(4),
    ] {
        let mut cfg = gwdb_config(true).with_epochs(2000);
        cfg.sampler = sampler;
        kbs.push(build(&dataset, cfg));
    }
    let scores: Vec<Vec<(i64, f64)>> = kbs.iter().map(|kb| kb.query_scores_by_id("IsSafe")).collect();
    let mut disagreements = 0;
    for i in 0..scores[0].len() {
        let s: Vec<f64> = scores.iter().map(|v| v[i].1).collect();
        let spread = s.iter().cloned().fold(f64::MIN, f64::max)
            - s.iter().cloned().fold(f64::MAX, f64::min);
        if spread > 0.25 {
            disagreements += 1;
        }
    }
    let frac = disagreements as f64 / scores[0].len() as f64;
    assert!(frac < 0.2, "{:.0}% of variables disagree across samplers", frac * 100.0);
}

#[test]
fn incremental_inference_is_cheaper_than_full() {
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 800, ..Default::default() });
    let mut kb = build(&dataset, gwdb_config(true).with_epochs(400));
    let full_ms = kb.timings.inference.as_secs_f64() * 1e3;
    let target = kb
        .grounding
        .atoms_of("IsSafe")
        .iter()
        .copied()
        .find(|&v| !kb.grounding.graph.variable(v).is_evidence())
        .expect("query var exists");
    let (elapsed, resampled) = kb.update_evidence_incremental(&[(target, Some(1))]);
    assert!(resampled < 800 / 4, "incremental touched {resampled} of 800");
    assert!(
        elapsed.as_secs_f64() * 1e3 < full_ms,
        "incremental {:?} must beat full {full_ms} ms",
        elapsed
    );
}

#[test]
fn step_function_rules_scale_grounding_cost() {
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 250, ..Default::default() });
    let mut last_queries = 0;
    for bands in [2usize, 10, 40] {
        let cfg = SyaConfig::deepdive_stepfn(bands).with_epochs(10);
        let kb = build(&dataset, cfg);
        let queries = kb.grounding.stats.queries_executed;
        assert!(queries > last_queries, "bands {bands}: {queries} queries");
        last_queries = queries;
        match &kb.config.mode {
            EngineMode::DeepDiveStepFn(spec) => assert_eq!(spec.bands, bands),
            other => panic!("unexpected mode {other:?}"),
        }
    }
}

#[test]
fn categorical_domains_run_end_to_end() {
    let dataset = gwdb_dataset(&GwdbConfig {
        n_wells: 200,
        domain_h: Some(10),
        ..Default::default()
    });
    let domains = std::collections::HashMap::from([("IsSafe".to_owned(), 10u32)]);
    let cfg = gwdb_config(true).with_epochs(200).with_domains(domains);
    let kb = build(&dataset, cfg);
    // Scores are upper-half probability mass, still in [0, 1].
    for (_, s) in kb.query_scores_by_id("IsSafe") {
        assert!((0.0..=1.0).contains(&s));
    }
    assert!(kb.grounding.stats.spatial_factors > 0);
}

#[test]
fn deterministic_given_seed() {
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 150, ..Default::default() });
    let mut cfg = gwdb_config(true).with_epochs(100);
    cfg.infer.instances = 1;
    let a = build(&dataset, cfg.clone());
    let b = build(&dataset, cfg);
    assert_eq!(a.query_scores_by_id("IsSafe"), b.query_scores_by_id("IsSafe"));
}

/// The determinism contract: same seed ⇒ same counts on any worker
/// count and for any number of instance chains per thread.
#[test]
fn counts_are_identical_across_worker_and_instance_counts() {
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 150, ..Default::default() });
    for instances in [1, 4] {
        let mut cfg = gwdb_config(true).with_epochs(100);
        cfg.infer.instances = instances;
        let reference = build(&dataset, cfg.clone());
        for workers in [Some(1), Some(2), Some(4)] {
            cfg.infer.workers = workers;
            let kb = build(&dataset, cfg.clone());
            assert_eq!(
                kb.counts, reference.counts,
                "workers={workers:?} instances={instances} diverged from workers=None"
            );
        }
    }
}

#[test]
fn evidence_atoms_report_observed_scores() {
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 100, ..Default::default() });
    let kb = build(&dataset, gwdb_config(true).with_epochs(50));
    for (id, &v) in &dataset.evidence {
        let scores = kb.scores_by_id("IsSafe");
        let (_, score) = scores.iter().find(|(i, _)| i == id).expect("evidence atom exists");
        assert_eq!(*score, v as f64);
    }
}

// --------------------------------------------- robustness / governance

#[test]
fn clean_runs_complete_with_no_warnings() {
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 100, ..Default::default() });
    let kb = build(&dataset, gwdb_config(true).with_epochs(50));
    assert_eq!(kb.outcome, RunOutcome::Completed);
    assert!(kb.warnings.is_empty(), "{:?}", kb.warnings);
}

#[test]
fn deadline_returns_partial_marginals_within_twice_the_budget() {
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 200, ..Default::default() });
    let deadline = std::time::Duration::from_millis(400);
    // An epoch budget that would run for minutes: only the deadline can
    // end this run.
    let cfg = gwdb_config(true).with_epochs(50_000_000).with_deadline(deadline);
    let t0 = std::time::Instant::now();
    let kb = build(&dataset, cfg);
    let elapsed = t0.elapsed();
    assert_eq!(kb.outcome, RunOutcome::TimedOut);
    // Graceful stop at the next epoch barrier: well within 2x deadline
    // (epochs on 200 wells are sub-millisecond).
    assert!(
        elapsed < deadline * 2,
        "run took {elapsed:?} against a {deadline:?} deadline"
    );
    // Partial but usable: every query atom has finite samples.
    let scores = kb.query_scores_by_id("IsSafe");
    assert!(!scores.is_empty());
    for (id, s) in scores {
        assert!(s.is_finite() && (0.0..=1.0).contains(&s), "well {id}: score {s}");
    }
}

#[test]
fn factor_budget_fails_fast_on_step_function_blowup() {
    // The paper's Fig. 10 blow-up: a step-function ladder of thousands
    // of rules. The bands partition the distance radius, so the factor
    // count stays pair-bound while grounding cost scales with the rule
    // count — a factor cap below the pair count must abort the rule
    // sweep early with a structured budget error instead of executing
    // all 11k rules.
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 150, ..Default::default() });
    let session = SyaSession::new(
        &dataset.program,
        dataset.constants.clone(),
        dataset.metric,
        SyaConfig::deepdive_stepfn(11_000).with_epochs(10).with_max_factors(8),
    )
    .expect("program compiles");
    let mut db = dataset.db.clone();
    let evidence = dataset.evidence.clone();
    let t0 = std::time::Instant::now();
    let result = session.construct(&mut db, &move |_, vals| {
        vals.first()
            .and_then(Value::as_int)
            .and_then(|id| evidence.get(&id).copied())
    });
    let elapsed = t0.elapsed();
    match result {
        Err(SyaError::BudgetExceeded(b)) => {
            assert!(b.observed > b.limit);
            assert_eq!(b.limit, 8);
        }
        Err(other) => panic!("expected BudgetExceeded, got {other}"),
        Ok(_) => panic!("11k-rule blow-up must trip the factor budget"),
    }
    // Fail-fast: nowhere near the cost of grounding all 11k rules.
    assert!(elapsed.as_secs() < 30, "budget abort took {elapsed:?}");
}

#[test]
fn injected_instance_panic_degrades_with_marginals_near_clean_run() {
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 200, ..Default::default() });
    let mut cfg = gwdb_config(true).with_epochs(1200);
    cfg.infer.instances = 2;
    let clean = build(&dataset, cfg.clone());
    assert_eq!(clean.outcome, RunOutcome::Completed);

    let plan = FaultPlan {
        panic_instances: vec![1],
        panic_at_epoch: 3,
        ..FaultPlan::none()
    };
    let ctx = ExecContext::unbounded().with_faults(plan);
    let kb = build_with(&dataset, cfg, &ctx).expect("one surviving instance suffices");
    assert_eq!(kb.outcome, RunOutcome::Degraded);
    assert!(
        kb.warnings.iter().any(|w| w.contains("instance 1")),
        "{:?}",
        kb.warnings
    );

    // Count-average over the surviving instance: same marginals, half
    // the samples. Allow sampling noise, but the runs must agree.
    let a = clean.query_scores_by_id("IsSafe");
    let b = kb.query_scores_by_id("IsSafe");
    assert_eq!(a.len(), b.len());
    let mut disagreements = 0usize;
    for ((id_a, sa), (id_b, sb)) in a.iter().zip(&b) {
        assert_eq!(id_a, id_b);
        if (sa - sb).abs() > 0.25 {
            disagreements += 1;
        }
    }
    let frac = disagreements as f64 / a.len() as f64;
    assert!(
        frac < 0.15,
        "{:.0}% of scores drifted beyond 0.25 after dropping an instance",
        frac * 100.0
    );
}

#[test]
fn cancellation_stops_the_pipeline_with_partial_results() {
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 150, ..Default::default() });
    let cfg = gwdb_config(true).with_epochs(50_000_000);
    let ctx = ExecContext::unbounded();
    ctx.token().cancel();
    let kb = build_with(&dataset, cfg, &ctx).expect("cancellation is graceful");
    assert_eq!(kb.outcome, RunOutcome::Cancelled);
    // Inference's first-epoch guarantee still scores every atom.
    for (id, s) in kb.query_scores_by_id("IsSafe") {
        assert!(s.is_finite() && (0.0..=1.0).contains(&s), "well {id}: score {s}");
    }
}

#[test]
fn injected_slowdown_makes_the_deadline_fire_in_grounding() {
    let dataset = gwdb_dataset(&GwdbConfig { n_wells: 100, ..Default::default() });
    let cfg = gwdb_config(true).with_epochs(200);
    let plan = FaultPlan {
        slowdown: Some((sya::Phase::Grounding, std::time::Duration::from_millis(30))),
        ..FaultPlan::none()
    };
    let mut ctx_budget = sya::RunBudget::unlimited();
    ctx_budget.deadline = Some(std::time::Duration::from_millis(50));
    let ctx = ExecContext::new(ctx_budget).with_faults(plan);
    let kb = build_with(&dataset, cfg, &ctx).expect("slow grounding degrades, not fails");
    assert_eq!(kb.outcome, RunOutcome::TimedOut);
    assert!(
        kb.warnings.iter().any(|w| w.contains("grounding stopped early")),
        "{:?}",
        kb.warnings
    );
}
