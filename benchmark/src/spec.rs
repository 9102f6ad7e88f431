//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! root of the repository repeats them; a test keeps the two equal.

/// Harness version, stamped into every output. Bump when a metric's
/// definition changes, so numbers are never compared across meanings.
pub const HARNESS_VERSION: &str = env!("CARGO_PKG_VERSION");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_owned(),
        unit,
        better,
        bound,
    }
}

pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "batch_gwdb",
        "paper-scale binary GWDB construct (9,831 wells, 1,000 epochs): infer is 93% of the wall, one long chain, so cost per factor visit dominates",
    ),
    (
        "batch_gwdb_cat",
        "Fig. 11 categorical setting at paper scale (h=10, T=0.3, 400 epochs): the categorical kernel and pruning, which a binary-only fast path must not move",
    ),
    (
        "ground_gwdb",
        "compile + full grounding of the 9,831-well tables, no sampling: ground/store/geom do all the work, the bypass workload for every sampler change",
    ),
    (
        "lazy_query",
        "cold LazyKb marginals on a never-grounded 9,831-well KB: seeded evaluator plus hundreds of short chains, where per-chain set-up rather than per-visit cost dominates",
    ),
    (
        "serve_mixed",
        "open-loop 200 rps GET /v1/marginal beside a POST /v1/rows every 2 s on a 3,000-well live server: the accept path, and the KB write lock as the read tail",
    ),
    (
        "serve_rows",
        "closed-loop single-row POST /v1/rows on the same live server: delta grounding plus the warm conclique-restricted chain, per write",
    ),
];

/// End-to-end metrics, reported by every workload with tracing off.
/// `op` is the workload's own operation (see the README's table).
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("op_p50_ms", "ms", Better::Lower, Some(0.20)),
        def("op_tail_ms", "ms", Better::Lower, Some(0.25)),
        def("peak_rss_mb", "MB", Better::Lower, Some(0.20)),
        def("setup_s", "s", Better::Lower, Some(0.25)),
    ]
}

/// Rule labels of the GWDB program, in source order.
pub const GWDB_RULES: [&str; 11] = [
    "D1", "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10",
];

/// Per-layer metrics, reported by every workload in the traced run. A
/// workload that does not drive a layer reports 0 for it.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut out = vec![
        def("lang.compile_ms", "ms", Lower, None),
        def("store.db_clone_ms", "ms", Lower, None),
        def("geom.rtree_build_ms", "ms", Lower, None),
        def("geom.rtree_radius_probe_us", "us", Lower, None),
        def("ground.ground_s", "s", Lower, None),
        def("ground.factors_per_s", "1/s", Higher, None),
        def("ground.variables", "count", Lower, None),
        def("ground.logical_factors", "count", Lower, None),
        def("ground.spatial_factors", "count", Lower, None),
        def("ground.queries_executed", "count", Lower, None),
        def("ground.pruned_domain_pairs", "count", Higher, None),
    ];
    for label in GWDB_RULES {
        out.push(def(&format!("ground.rule_ms.{label}"), "ms", Lower, None));
    }
    for label in GWDB_RULES {
        out.push(def(
            &format!("ground.rule_bindings.{label}"),
            "count",
            Lower,
            None,
        ));
    }
    out.extend([
        def("ground.deepdive_ground_s", "s", Lower, None),
        def("ground.spatial_overhead_share", "ratio", Lower, None),
        def("infer.pyramid_build_ms", "ms", Lower, None),
        def("infer.sampling_cells", "count", Lower, None),
        def("infer.concliques", "count", Lower, None),
        def("infer.sample_s", "s", Lower, None),
        def("infer.var_updates", "count", Lower, None),
        def("infer.factor_visits", "count", Lower, None),
        def("infer.ns_per_var_update", "ns", Lower, None),
        def("infer.ns_per_factor_visit", "ns", Lower, None),
        def("infer.seq_ns_per_var_update", "ns", Lower, None),
        def("infer.seq_ns_per_factor_visit", "ns", Lower, None),
        def("core.score_extract_ms", "ms", Lower, None),
        def("core.unattributed_share", "ratio", Lower, None),
        def("quality.f1", "ratio", Higher, None),
        def("query.neighborhood_ms_p50", "ms", Lower, None),
        def("query.answer_ms_p50", "ms", Lower, None),
        def("query.nh_variables_mean", "count", Lower, None),
        def("query.nh_factors_mean", "count", Lower, None),
        def("query.boundary_clamped_mean", "count", Lower, None),
        def("query.chain_ns_per_var_update", "ns", Lower, None),
        def("query.parity_mean_abs_delta", "ratio", Lower, None),
        def("serve.cache_hit_share_cold", "ratio", Lower, None),
        def("serve.cache_hit_share_hot", "ratio", Higher, None),
        def("serve.cache_entries", "count", Lower, None),
        def("serve.cache_hit_us_p50", "us", Lower, None),
        def("serve.connect_ms_p50", "ms", Lower, None),
        def("serve.ttfb_ms_p50", "ms", Lower, None),
        def("serve.handler_ms_mean", "ms", Lower, None),
        def("serve.accept_queue_ms_mean", "ms", Lower, None),
        def("serve.shed_total", "count", Lower, None),
        def("serve.marginal_ms_p50", "ms", Lower, None),
        def("serve.rows_ms_p50", "ms", Lower, None),
        def("delta.apply_ms_p50", "ms", Lower, None),
        def("delta.infer_ms_p50", "ms", Lower, None),
        def("delta.resampled_mean", "count", Lower, None),
        def("delta.factors_added_mean", "count", Lower, None),
        def("loadgen.offered_rps", "1/s", Higher, None),
        def("loadgen.achieved_rps", "1/s", Higher, None),
        def("loadgen.lag_p99_ms", "ms", Lower, None),
        def("trace.overhead_share", "ratio", Lower, None),
    ]);
    out
}

/// Whether a name fits the benchmark contract: it starts with a letter
/// or digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(end_to_end().into_iter().map(|m| m.name))
            .chain(per_layer().into_iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(&name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "duplicate name {name:?}");
        }
        assert!(per_layer().len() <= 128);
        assert!(end_to_end().len() <= 16);
    }

    /// `BENCHMARK.json` is what the driver reads; the harness's own
    /// tables are what the program reports. They must not drift apart.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let keys: Vec<&String> = doc.as_object().expect("an object").keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc["paths"].as_array().unwrap().len(), 1);
        assert_eq!(doc["paths"][0], "benchmark");
        let secs = doc["run_seconds"].as_u64().unwrap();
        assert!((1..=60).contains(&secs));

        let workloads: Vec<(String, String)> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w["name"].as_str().unwrap().into(),
                    w["why"].as_str().unwrap().into(),
                )
            })
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);
        for (_, why) in &workloads {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }

        // (name, unit, direction, bound) of each listed metric.
        type Row = (String, String, String, Option<f64>);
        let listed = |key: &str| -> Vec<Row> {
            doc[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let text = |k: &str| m[k].as_str().unwrap().to_owned();
                    (
                        text("name"),
                        text("unit"),
                        text("better"),
                        m.get("bound").and_then(|b| b.as_f64()),
                    )
                })
                .collect()
        };
        let defined = |defs: Vec<MetricDef>| -> Vec<Row> {
            defs.into_iter()
                .map(|d| {
                    (
                        d.name,
                        d.unit.to_owned(),
                        d.better.as_str().to_owned(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), defined(end_to_end()));
        assert_eq!(listed("per_layer"), defined(per_layer()));
        for m in end_to_end() {
            assert!(m.bound.unwrap() <= 0.25);
        }
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
