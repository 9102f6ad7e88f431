//! # sya-bench — experiment harness and benchmarks
//!
//! Shared plumbing for the `experiments` binary (one subcommand per table
//! / figure of the paper's Section VI) and the Criterion micro-benches.

pub mod http;

use std::collections::HashSet;
use sya_core::{KnowledgeBase, SyaConfig, SyaSession};
use sya_data::{supported_ids, Dataset, QualityEval};
use sya_store::Value;

/// Builds a knowledge base from a dataset under a configuration,
/// calibrating the spatial weighting to the dataset's scale.
pub fn build_kb(dataset: &Dataset, config: SyaConfig) -> KnowledgeBase {
    let config = calibrate(dataset, config);
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

/// The random-partition baseline (paper §V) as the benches run it: `k`
/// random buckets, one chain.
pub fn parallel_random_gibbs(
    graph: &sya_fg::FactorGraph,
    epochs: usize,
    burn_in: usize,
    k: usize,
    seed: u64,
) -> sya_infer::SamplerRun {
    let cfg = sya_infer::InferConfig { epochs, burn_in, seed, instances: 1, ..Default::default() };
    sya_infer::run_gibbs(
        graph,
        &sya_infer::Schedule::random_buckets(graph, k, seed),
        &cfg,
        None,
        &sya_runtime::ExecContext::unbounded(),
        sya_infer::CheckpointOptions::none(),
        None,
        sya_infer::Owners::RoundRobin,
    )
    .expect("a fresh single-instance run completes")
}

/// Applies the per-dataset bandwidth/radius calibration (unless the
/// caller already fixed them).
pub fn calibrate(dataset: &Dataset, mut config: SyaConfig) -> SyaConfig {
    if config.ground.weighting_bandwidth.is_none() {
        let bw = match dataset.name.as_str() {
            "GWDB" => sya_data::gwdb::GWDB_BANDWIDTH,
            "NYCCAS" => sya_data::nyccas::NYCCAS_BANDWIDTH,
            "EbolaKB" => sya_data::ebola::EBOLA_BANDWIDTH_MILES,
            _ => return config,
        };
        config.ground.weighting_bandwidth = Some(bw);
    }
    if config.ground.spatial_radius.is_none() {
        let r = match dataset.name.as_str() {
            "GWDB" => sya_data::gwdb::GWDB_RADIUS,
            "NYCCAS" => sya_data::nyccas::NYCCAS_RADIUS,
            "EbolaKB" => sya_data::ebola::EBOLA_RADIUS_MILES,
            _ => return config,
        };
        config.ground.spatial_radius = Some(r);
    }
    config
}

/// The variable relation each generated dataset infers.
pub fn target_relation(dataset: &Dataset) -> &'static str {
    match dataset.name.as_str() {
        "GWDB" => "IsSafe",
        "NYCCAS" => "IsPolluted",
        "EbolaKB" => "HasEbola",
        other => panic!("unknown dataset {other}"),
    }
}

/// [`build_kb`] with observability on: the run is traced and measured,
/// and the returned handle's registry renders to the same
/// `sya.metrics.v1` JSON that `sya run --metrics-out` emits — the
/// substrate for `BENCH_*.json`-compatible records.
pub fn build_kb_observed(dataset: &Dataset, config: SyaConfig) -> (KnowledgeBase, sya_core::Obs) {
    let config = calibrate(dataset, config);
    let obs = sya_core::Obs::enabled();
    let session = SyaSession::new_with_obs(
        &dataset.program,
        dataset.constants.clone(),
        dataset.metric,
        config,
        obs.clone(),
    )
    .expect("program compiles");
    let mut db = dataset.db.clone();
    let evidence = dataset.evidence.clone();
    let kb = session
        .construct(&mut db, &move |_, vals| {
            vals.first()
                .and_then(Value::as_int)
                .and_then(|id| evidence.get(&id).copied())
        })
        .expect("construction succeeds");
    (kb, obs)
}

/// Renders an observed run's metrics registry as the JSON document
/// `sya run --metrics-out` writes (schema `sya.metrics.v1`).
pub fn metrics_record(obs: &sya_core::Obs) -> String {
    sya_obs::export::render_metrics_json(&obs.metrics_snapshot())
}

/// Validates a `sya.metrics.v1` JSON dump: it must parse, carry the
/// schema tag, and contain the phase/grounding/sweep-plan/convergence
/// keys that the benchmark tables and the CI smoke check depend on.
/// Assumes a spatial-engine run (the `sya` default) for the convergence
/// series.
pub fn validate_metrics_json(text: &str) -> Result<(), String> {
    let v: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if v["schema"] != sya_obs::export::METRICS_SCHEMA {
        return Err(format!("bad schema tag: {}", v["schema"]));
    }
    let gauges = [
        "phase.grounding_seconds",
        "phase.inference_seconds",
        "infer.plan.rows",
        "infer.plan.general_rows",
        "infer.plan.bytes",
        "infer.plan.build_ms",
    ];
    for key in gauges {
        if !v["gauges"][key].is_number() {
            return Err(format!("missing gauge {key:?}"));
        }
    }
    let counters = [
        "ground.variables_total",
        "ground.logical_factors_total",
        "ground.spatial_factors_total",
        "ground.pruned_pairs_total",
    ];
    for key in counters {
        if !v["counters"][key].is_number() {
            return Err(format!("missing counter {key:?}"));
        }
    }
    let series = ["infer.spatial.flip_rate", "infer.spatial.marginal_delta"];
    for key in series {
        match v["series"][key].as_array() {
            Some(points) if !points.is_empty() => {}
            _ => return Err(format!("missing or empty series {key:?}")),
        }
    }
    Ok(())
}

/// Validates a `sya.bench.sampler.v1` document (`BENCH_sampler.json`,
/// written by the `sampler_hotpath` bin): it must parse, carry the
/// schema tag, and report a positive `samples_per_sec` for each of the
/// three samplers on at least three distinct graph sizes — the floor
/// the ROADMAP 10× sampler item measures against.
pub fn validate_sampler_bench_json(text: &str) -> Result<(), String> {
    let v: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if v["schema"] != "sya.bench.sampler.v1" {
        return Err(format!("bad schema tag: {}", v["schema"]));
    }
    let runs = v["runs"].as_array().ok_or("missing runs array")?;
    let mut sizes_of: std::collections::HashMap<String, HashSet<u64>> =
        std::collections::HashMap::new();
    for (i, r) in runs.iter().enumerate() {
        let sampler = r["sampler"]
            .as_str()
            .ok_or_else(|| format!("run {i}: missing sampler name"))?;
        for key in ["wall_seconds", "samples_per_sec", "ns_per_delta_energy"] {
            if !r[key].is_number() {
                return Err(format!("run {i} ({sampler}): missing {key:?}"));
            }
        }
        if r["samples_per_sec"].as_f64().unwrap_or(0.0) <= 0.0 {
            return Err(format!("run {i} ({sampler}): samples_per_sec is not positive"));
        }
        let grid = r["grid"]
            .as_u64()
            .ok_or_else(|| format!("run {i} ({sampler}): missing grid size"))?;
        sizes_of.entry(sampler.to_owned()).or_default().insert(grid);
    }
    for sampler in ["sequential", "parallel_random", "spatial"] {
        let n = sizes_of.get(sampler).map_or(0, HashSet::len);
        if n < 3 {
            return Err(format!("sampler {sampler:?} covers {n} graph size(s), want >= 3"));
        }
    }
    Ok(())
}

/// Validates a `sya.bench.serve.v1` document (`BENCH_serve.json`,
/// written by the `serve_load` bin): it must parse, carry the schema
/// tag, and hold at least one sweep whose accounting balances
/// (`sent == accepted + shed + errors`, sheds carrying `Retry-After`
/// never exceed sheds, p50 ≤ p99) with at least one sweep actually
/// accepting traffic — the floor the overload smoke and the serving
/// throughput trajectory measure against.
pub fn validate_serve_bench_json(text: &str) -> Result<(), String> {
    let v: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if v["schema"] != "sya.bench.serve.v1" {
        return Err(format!("bad schema tag: {}", v["schema"]));
    }
    for key in ["target", "mode"] {
        if !v[key].is_string() {
            return Err(format!("missing field {key:?}"));
        }
    }
    let sweeps = v["sweeps"].as_array().ok_or("missing sweeps array")?;
    if sweeps.is_empty() {
        return Err("sweeps array is empty".into());
    }
    let mut any_accepted = false;
    for (i, s) in sweeps.iter().enumerate() {
        for key in [
            "offered_rps",
            "sent",
            "accepted",
            "shed",
            "shed_with_retry_after",
            "errors",
            "elapsed_seconds",
            "sustained_rps",
            "p50_seconds",
            "p99_seconds",
        ] {
            if !s[key].is_number() {
                return Err(format!("sweep {i}: missing {key:?}"));
            }
        }
        let n = |key: &str| s[key].as_f64().unwrap_or(0.0);
        if n("sent") != n("accepted") + n("shed") + n("errors") {
            return Err(format!(
                "sweep {i}: accounting does not balance: sent {} != accepted {} + shed {} + errors {}",
                n("sent"),
                n("accepted"),
                n("shed"),
                n("errors")
            ));
        }
        if n("shed_with_retry_after") > n("shed") {
            return Err(format!("sweep {i}: more Retry-After sheds than sheds"));
        }
        if n("p50_seconds") > n("p99_seconds") {
            return Err(format!("sweep {i}: p50 exceeds p99"));
        }
        if n("accepted") > 0.0 {
            any_accepted = true;
        }
    }
    if !any_accepted {
        return Err("no sweep accepted any request".into());
    }
    Ok(())
}

/// Evaluates a knowledge base with the paper's quality metrics.
pub fn evaluate(dataset: &Dataset, kb: &KnowledgeBase) -> QualityEval {
    let relation = target_relation(dataset);
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

/// Average KL divergence between the generator's smooth probability
/// field and the knowledge base's factual scores over query atoms — the
/// calibration-sensitive quality view (used by Fig. 10 and Fig. 14).
pub fn kl_vs_truth(dataset: &Dataset, kb: &KnowledgeBase) -> f64 {
    let relation = target_relation(dataset);
    let graph = &kb.grounding.graph;
    let (truth, est): (Vec<f64>, Vec<f64>) = kb
        .grounding
        .atoms_of(relation)
        .iter()
        .copied()
        .filter(|&v| !graph.variable(v).is_evidence())
        .filter_map(|v| {
            let (_, values) = &kb.grounding.atom_meta[v as usize];
            let id = values.first().and_then(Value::as_int)?;
            Some((dataset.truth_prob.get(&id).copied()?, kb.score_of(v)))
        })
        .unzip();
    sya_infer::average_kl_divergence(&truth, &est)
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Runs `runs` seeded repetitions (the paper averages over 5 runs) and
/// returns per-run `(quality, kb)` pairs.
pub fn repeat_runs(
    dataset: &Dataset,
    config: &SyaConfig,
    runs: usize,
) -> Vec<(QualityEval, KnowledgeBase)> {
    (0..runs)
        .map(|r| {
            let cfg = config.clone().with_seed(1000 + r as u64);
            let kb = build_kb(dataset, cfg);
            (evaluate(dataset, &kb), kb)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sya_data::{gwdb_dataset, GwdbConfig};

    #[test]
    fn calibration_fills_bandwidth_and_radius() {
        let d = gwdb_dataset(&GwdbConfig { n_wells: 20, ..Default::default() });
        let c = calibrate(&d, SyaConfig::sya());
        assert_eq!(c.ground.weighting_bandwidth, Some(sya_data::gwdb::GWDB_BANDWIDTH));
        assert_eq!(c.ground.spatial_radius, Some(sya_data::gwdb::GWDB_RADIUS));
        // Caller-fixed values are preserved.
        let fixed = calibrate(&d, SyaConfig::sya().with_bandwidth(3.0));
        assert_eq!(fixed.ground.weighting_bandwidth, Some(3.0));
    }

    #[test]
    fn build_and_evaluate_smoke() {
        let d = gwdb_dataset(&GwdbConfig { n_wells: 120, ..Default::default() });
        let kb = build_kb(&d, SyaConfig::sya().with_epochs(100));
        let eval = evaluate(&d, &kb);
        assert!(eval.predicted > 0);
        assert!(eval.f1() > 0.0);
    }

    #[test]
    fn observed_build_emits_valid_metrics_record() {
        let d = gwdb_dataset(&GwdbConfig { n_wells: 60, ..Default::default() });
        let (kb, obs) = build_kb_observed(&d, SyaConfig::sya().with_epochs(40));
        assert!(!kb.telemetry.is_empty());
        validate_metrics_json(&metrics_record(&obs)).unwrap();
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate_metrics_json("not json").is_err());
        assert!(validate_metrics_json("{\"schema\": \"other\"}").is_err());
        let empty = sya_obs::export::render_metrics_json(&Default::default());
        assert!(validate_metrics_json(&empty).is_err());
    }

    #[test]
    fn sampler_bench_validator_accepts_complete_and_rejects_partial() {
        let run = |sampler: &str, grid: u64| {
            format!(
                "{{\"sampler\": \"{sampler}\", \"grid\": {grid}, \"wall_seconds\": 0.5, \
                 \"samples_per_sec\": 1000.0, \"ns_per_delta_energy\": 120.0}}"
            )
        };
        let mut rows = Vec::new();
        for sampler in ["sequential", "parallel_random", "spatial"] {
            for grid in [16, 24, 32] {
                rows.push(run(sampler, grid));
            }
        }
        let good = format!(
            "{{\"schema\": \"sya.bench.sampler.v1\", \"runs\": [{}]}}",
            rows.join(",")
        );
        validate_sampler_bench_json(&good).unwrap();

        assert!(validate_sampler_bench_json("not json").is_err());
        assert!(validate_sampler_bench_json("{\"schema\": \"other\", \"runs\": []}").is_err());
        // A sampler missing one graph size must be rejected.
        let partial = format!(
            "{{\"schema\": \"sya.bench.sampler.v1\", \"runs\": [{}]}}",
            rows[..8].join(",")
        );
        assert!(validate_sampler_bench_json(&partial).is_err());
    }

    #[test]
    fn serve_bench_validator_balances_the_books() {
        let sweep = |sent: u64, accepted: u64, shed: u64, shed_ra: u64, errors: u64| {
            format!(
                "{{\"offered_rps\": 100.0, \"sent\": {sent}, \"accepted\": {accepted}, \
                 \"shed\": {shed}, \"shed_with_retry_after\": {shed_ra}, \
                 \"errors\": {errors}, \"elapsed_seconds\": 2.0, \"sustained_rps\": 50.0, \
                 \"p50_seconds\": 0.001, \"p99_seconds\": 0.01}}"
            )
        };
        let doc = |sweeps: &[String]| {
            format!(
                "{{\"schema\": \"sya.bench.serve.v1\", \"target\": \"127.0.0.1:1\", \
                 \"mode\": \"marginal\", \"connections\": 4, \"duration_secs\": 2.0, \
                 \"sweeps\": [{}]}}",
                sweeps.join(",")
            )
        };

        validate_serve_bench_json(&doc(&[sweep(100, 90, 10, 10, 0)])).unwrap();
        // Saturated sweeps are fine as long as one sweep accepted.
        validate_serve_bench_json(&doc(&[sweep(100, 90, 10, 10, 0), sweep(400, 0, 400, 400, 0)]))
            .unwrap();

        assert!(validate_serve_bench_json("not json").is_err());
        assert!(validate_serve_bench_json("{\"schema\": \"other\"}").is_err());
        assert!(validate_serve_bench_json(&doc(&[])).is_err(), "empty sweeps");
        assert!(
            validate_serve_bench_json(&doc(&[sweep(100, 80, 10, 10, 0)])).is_err(),
            "sent != accepted + shed + errors"
        );
        assert!(
            validate_serve_bench_json(&doc(&[sweep(100, 90, 5, 10, 5)])).is_err(),
            "retry-after sheds exceed sheds"
        );
        assert!(
            validate_serve_bench_json(&doc(&[sweep(400, 0, 400, 400, 0)])).is_err(),
            "no sweep accepted anything"
        );
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
