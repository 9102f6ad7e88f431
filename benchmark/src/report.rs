//! One run's output, and the `run` / `trace` / `repeat` commands that
//! run every workload — each in a child process of its own, so one
//! workload's heap, threads and peak memory never reach the next.

use crate::machine::{json_str, MachineStamp};
use crate::spec::{self, Better, MetricDef};
use crate::workloads::{Report, RunArgs};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The run's context: first line of every output.
pub fn context_line(stamp: &MachineStamp, args: &RunArgs) -> String {
    format!(
        "{{\"machine\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        stamp.to_json(),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace
    )
}

/// Sample counts behind the metrics: second-to-last line.
pub fn info_line(report: &Report) -> String {
    let fields: Vec<String> = report
        .info
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{\"info\":{{{}}}}}", fields.join(","))
}

/// The result: last line of standard output, exactly these four keys.
pub fn result_line(report: &Report, trace: bool) -> String {
    let defs = if trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .zip(&defs)
        .map(|((name, value), def)| {
            debug_assert_eq!(name, &def.name);
            // JSON has no NaN or infinity; a metric that is one is a bug
            // the validator will name.
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

/// A result line, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Parses a result line and checks it against the harness's schema:
/// exactly the four keys, `attempted >= 1`, and exactly the metrics of
/// the run's kind, each a finite number with its declared unit.
pub fn parse_result(line: &str, trace: bool) -> Result<Parsed, String> {
    let doc: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("result is not JSON: {e}"))?;
    let obj = doc.as_object().ok_or("result is not an object")?;
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result has keys {keys:?}"));
    }
    let correct = doc["correct"]
        .as_bool()
        .ok_or("`correct` is not a boolean")?;
    let attempted = doc["attempted"]
        .as_u64()
        .ok_or("`attempted` is not a whole number")?;
    let failed = doc["failed"]
        .as_u64()
        .ok_or("`failed` is not a whole number")?;
    if attempted < 1 {
        return Err("`attempted` is below 1".to_owned());
    }
    let defs = if trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let reported = doc["metrics"]
        .as_object()
        .ok_or("`metrics` is not an object")?;
    if reported.len() != defs.len() {
        return Err(format!(
            "{} metrics reported, {} defined",
            reported.len(),
            defs.len()
        ));
    }
    let mut metrics = Vec::with_capacity(defs.len());
    for def in &defs {
        let m = reported
            .get(&def.name)
            .ok_or_else(|| format!("metric {} is missing", def.name))?;
        if !spec::valid_name(&def.name) {
            return Err(format!("metric name {:?} is not valid", def.name));
        }
        let value = m["value"]
            .as_f64()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} has no finite value", def.name))?;
        if m["unit"].as_str() != Some(def.unit) {
            return Err(format!(
                "metric {} has unit {}, not {}",
                def.name, m["unit"], def.unit
            ));
        }
        metrics.push((def.name.clone(), value));
    }
    Ok(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// One workload as run in a child process.
#[derive(Debug, Clone)]
pub struct ChildRun {
    pub workload: String,
    pub parsed: Parsed,
    /// Sample counts from the child's info line.
    pub info: Vec<(String, f64)>,
    pub wall_s: f64,
}

/// Runs one workload in a child process of this executable and parses
/// what it printed. The child's diagnostics pass through on stderr.
pub fn run_child(args: &RunArgs) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let t = Instant::now();
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", args.workload))?;
    let wall_s = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("{} exited with {}", args.workload, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{} printed nothing", args.workload))?;
    let parsed = parse_result(result, args.trace).map_err(|e| format!("{}: {e}", args.workload))?;
    let info = lines
        .next()
        .and_then(|l| serde_json::from_str::<serde_json::Value>(l).ok())
        .and_then(|v| {
            v["info"].as_object().map(|o| {
                o.iter()
                    .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                    .collect()
            })
        })
        .unwrap_or_default();
    Ok(ChildRun {
        workload: args.workload.clone(),
        parsed,
        info,
        wall_s,
    })
}

/// Runs every workload once. Returns the runs and the whole wall time.
pub fn run_set(seed: u64, seconds: f64, trace: bool) -> Result<(Vec<ChildRun>, f64), String> {
    let t = Instant::now();
    let runs = spec::WORKLOADS
        .iter()
        .map(|(name, _)| {
            run_child(&RunArgs {
                workload: name.to_string(),
                seed,
                seconds,
                trace,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((runs, t.elapsed().as_secs_f64()))
}

fn info_of(run: &ChildRun, key: &str) -> Option<f64> {
    run.info.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// Sample count behind an end-to-end metric of a run.
fn samples(run: &ChildRun, metric: &str) -> String {
    let n = match metric {
        "op_p50_ms" | "op_tail_ms" => info_of(run, "ops"),
        "setup_s" => info_of(run, "setups"),
        "peak_rss_mb" => Some(1.0),
        _ => None,
    };
    n.map_or_else(|| "-".to_owned(), |n| format!("{n}"))
}

fn bound_text(def: &MetricDef) -> String {
    def.bound.map_or_else(|| "-".to_owned(), |b| format!("{b}"))
}

/// Prints every metric of every run by name, with unit, direction,
/// sample count and regression bound.
pub fn print_runs(runs: &[ChildRun], trace: bool) {
    let defs = if trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    println!(
        "{:<16} {:<34} {:>16} {:<6} {:<7} {:>6} {:>6}",
        "workload", "metric", "value", "unit", "better", "n", "bound"
    );
    for run in runs {
        for ((name, value), def) in run.parsed.metrics.iter().zip(&defs) {
            // A traced run lists only the layers the workload drives.
            if trace && *value == 0.0 {
                continue;
            }
            let label = match (name.as_str(), info_of(run, "tail_percentile")) {
                ("op_tail_ms", Some(p)) => format!("{name} (p{p})"),
                _ => name.clone(),
            };
            println!(
                "{:<16} {:<34} {:>16.4} {:<6} {:<7} {:>6} {:>6}",
                run.workload,
                label,
                value,
                def.unit,
                def.better.as_str(),
                if trace {
                    "-".to_owned()
                } else {
                    samples(run, name)
                },
                bound_text(def)
            );
        }
        println!(
            "{:<16} {:<34} {:>16} {:<6} {:<7} {:>6} {:>6}",
            run.workload,
            "failed_share",
            format!("{}/{}", run.parsed.failed, run.parsed.attempted),
            "ratio",
            "lower",
            run.parsed.attempted,
            0
        );
    }
}

/// The whole set as one JSON document: what `baseline.json` holds.
pub fn set_document(
    stamp: &MachineStamp,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: &[ChildRun],
    wall_s: f64,
) -> String {
    let workloads: Vec<String> = runs
        .iter()
        .map(|run| {
            let metrics: Vec<String> =
                run.parsed.metrics.iter().map(|(n, v)| format!("{}:{v}", json_str(n))).collect();
            format!(
                "{}:{{\"correct\":{},\"attempted\":{},\"failed\":{},\"wall_s\":{},\"metrics\":{{{}}}}}",
                json_str(&run.workload),
                run.parsed.correct,
                run.parsed.attempted,
                run.parsed.failed,
                run.wall_s,
                metrics.join(",")
            )
        })
        .collect();
    format!(
        "{{\"machine\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"wall_s\":{wall_s},\"workloads\":{{{}}}}}",
        stamp.to_json(),
        workloads.join(",")
    )
}

/// `run` and `trace`: every workload once. `Ok(false)` when a workload
/// reported an incorrect run.
pub fn run_command(seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let stamp = MachineStamp::collect();
    println!("{{\"machine\":{}}}", stamp.to_json());
    let (runs, wall_s) = run_set(seed, seconds, trace)?;
    print_runs(&runs, trace);
    println!("whole set: {wall_s:.1} s wall, seed {seed}, {seconds} s per workload");
    println!(
        "{}",
        set_document(&stamp, seed, seconds, trace, &runs, wall_s)
    );
    Ok(runs.iter().all(|r| r.parsed.correct))
}

/// By how much `b` is worse than `a`, as a share of `a`; negative when
/// it is better.
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `repeat`: the full set `sets` times per seed; prints every value
/// and how far the sets of one seed lie apart. `Ok(false)` when a pair
/// of sets differs by more than a metric's bound or a run is incorrect.
pub fn repeat_command(seeds: &[u64], sets: usize, seconds: f64) -> Result<bool, String> {
    let stamp = MachineStamp::collect();
    println!("{{\"machine\":{}}}", stamp.to_json());
    let defs = spec::end_to_end();
    let mut ok = true;
    let t = Instant::now();
    for &seed in seeds {
        let mut all = Vec::new();
        for set in 0..sets {
            let (runs, wall_s) = run_set(seed, seconds, false)?;
            println!("seed {seed} set {}: {wall_s:.1} s wall", set + 1);
            ok &= runs
                .iter()
                .all(|r| r.parsed.correct && r.parsed.failed == 0);
            all.push(runs);
        }
        println!(
            "{:<16} {:<12} {:<40} {:>8} {:>6}  seed {seed}",
            "workload", "metric", "values", "apart", "bound"
        );
        for (w, (workload, _)) in spec::WORKLOADS.iter().enumerate() {
            for (m, def) in defs.iter().enumerate() {
                let values: Vec<f64> = all.iter().map(|runs| runs[w].parsed.metrics[m].1).collect();
                let (lo, hi) = values
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                        (lo.min(v), hi.max(v))
                    });
                let apart = worsening(def, lo, hi).abs();
                let bound = def.bound.expect("end-to-end metrics have bounds");
                let within = apart <= bound;
                ok &= within;
                let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
                println!(
                    "{:<16} {:<12} {:<40} {:>7.1}% {:>5.0}%{}",
                    workload,
                    def.name,
                    shown.join(" "),
                    apart * 100.0,
                    bound * 100.0,
                    if within { "" } else { "  EXCEEDS" }
                );
            }
        }
    }
    println!("all sets: {:.1} s wall", t.elapsed().as_secs_f64());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(trace: bool) -> Report {
        let defs = if trace {
            spec::per_layer()
        } else {
            spec::end_to_end()
        };
        Report {
            attempted: 12,
            failed: 0,
            metrics: defs
                .iter()
                .enumerate()
                .map(|(i, d)| (d.name.clone(), 1.5 + i as f64))
                .collect(),
            failures: Vec::new(),
            info: vec![("ops".to_owned(), 12.0)],
        }
    }

    #[test]
    fn emitted_result_validates_against_the_schema() {
        for trace in [false, true] {
            let r = report(trace);
            let parsed = parse_result(&result_line(&r, trace), trace).unwrap();
            assert!(parsed.correct);
            assert_eq!((parsed.attempted, parsed.failed), (12, 0));
            assert_eq!(parsed.metrics, r.metrics);
            // The other kind's schema must refuse it.
            assert!(parse_result(&result_line(&r, trace), !trace).is_err());
        }
    }

    #[test]
    fn schema_refuses_malformed_results() {
        let good = result_line(&report(false), false);
        assert!(parse_result("not json", false).is_err());
        assert!(parse_result(&good.replace("\"attempted\":12", "\"attempted\":0"), false).is_err());
        assert!(parse_result(&good.replace("\"unit\":\"ms\"", "\"unit\":\"s\""), false).is_err());
        assert!(parse_result(&good.replace("\"failed\":0,", ""), false).is_err());
        assert!(parse_result(&good.replace("op_p50_ms", "op_p51_ms"), false).is_err());
        let mut nan = report(false);
        nan.metrics[0].1 = f64::NAN;
        assert!(parse_result(&result_line(&nan, false), false).is_err());
    }

    #[test]
    fn failed_run_reads_incorrect() {
        let mut r = report(false);
        r.failed = 1;
        let parsed = parse_result(&result_line(&r, false), false).unwrap();
        assert!(!parsed.correct);
        assert_eq!(parsed.failed, 1);
    }

    #[test]
    fn worsening_follows_the_direction() {
        let lower = &spec::end_to_end()[0];
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(worsening(lower, 10.0, 9.0) < 0.0);
        let higher = MetricDef {
            better: Better::Higher,
            ..lower.clone()
        };
        assert!((worsening(&higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn context_and_info_lines_are_json() {
        let args = RunArgs {
            workload: "ground_gwdb".into(),
            seed: 14,
            seconds: 10.0,
            trace: false,
        };
        let ctx: serde_json::Value =
            serde_json::from_str(&context_line(&MachineStamp::collect(), &args)).unwrap();
        assert_eq!(ctx["seed"], 14u64);
        assert!(ctx["machine"]["nproc"].as_u64().unwrap() >= 1);
        let info: serde_json::Value = serde_json::from_str(&info_line(&report(false))).unwrap();
        assert_eq!(info["info"]["ops"].as_f64(), Some(12.0));
    }
}
