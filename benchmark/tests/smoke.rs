//! Every workload end to end at a tiny scale (120 wells, 20 epochs),
//! correctness checks included, with tracing off and on.

use sya_benchmark::data::Scale;
use sya_benchmark::report::{parse_result, result_line};
use sya_benchmark::spec;
use sya_benchmark::workloads::{run, trace_path, RunArgs};

fn smoke(workload: &str, seconds: f64) {
    for trace in [false, true] {
        let args = RunArgs {
            workload: workload.to_owned(),
            seed: 3,
            seconds,
            trace,
        };
        let report = run(&args, &Scale::smoke()).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(
            report.correct(),
            "{workload} (trace {trace}) failed: {:?}",
            report.failures
        );
        assert!(report.attempted >= 2, "{workload} checked nothing");

        // What the run prints is what the harness's own schema accepts.
        let parsed = parse_result(&result_line(&report, trace), trace).unwrap();
        assert!(parsed.correct);
        if trace {
            assert!(
                parsed.metrics.iter().any(|(_, v)| *v != 0.0),
                "{workload} drove no layer"
            );
            let spans = std::fs::read_to_string(trace_path(workload)).unwrap();
            assert!(spans.lines().count() >= 3);
            for line in spans.lines() {
                let span: serde_json::Value = serde_json::from_str(line).unwrap();
                assert!(span["end_ns"].as_u64() >= span["start_ns"].as_u64());
                assert!(span["self_ns"].as_u64().is_some() && span["op"].as_u64().is_some());
            }
        } else {
            for (name, value) in &parsed.metrics {
                assert!(
                    *value > 0.0,
                    "{workload}: end-to-end metric {name} is {value}"
                );
            }
        }
    }
}

#[test]
fn batch_gwdb() {
    smoke("batch_gwdb", 0.2);
}

#[test]
fn batch_gwdb_cat() {
    smoke("batch_gwdb_cat", 0.2);
}

#[test]
fn ground_gwdb() {
    smoke("ground_gwdb", 0.2);
}

#[test]
fn lazy_query() {
    smoke("lazy_query", 0.2);
}

#[test]
fn serve_mixed() {
    smoke("serve_mixed", 1.0);
}

#[test]
fn serve_rows() {
    smoke("serve_rows", 0.5);
}

#[test]
fn every_workload_has_a_smoke_test() {
    let tested = [
        "batch_gwdb",
        "batch_gwdb_cat",
        "ground_gwdb",
        "lazy_query",
        "serve_mixed",
        "serve_rows",
    ];
    let named: Vec<&str> = spec::WORKLOADS.iter().map(|(name, _)| *name).collect();
    assert_eq!(named, tested);
}
