//! The six workloads. Each has an end-to-end run (tracing off) that
//! times its operation for `--seconds`, and a shortened traced run
//! that drives the layers stage by stage through their public
//! functions and reads the per-layer numbers off the spans.

mod batch;
mod ground;
mod lazy;
mod serve;

use crate::data::{gwdb_inputs, Inputs, Scale};
use crate::machine::peak_rss_mb;
use crate::stats::{percentile, sorted, supported_tail};
use crate::trace::Tracer;
use crate::{spec, stats};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What `--workload --seed --seconds --trace` asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run reports: the last line of standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (tracing off) or every per-layer metric
    /// (traced), in the order `spec` lists them.
    pub metrics: Vec<(String, f64)>,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// Sample counts behind the metrics (tracing off): `ops`,
    /// `setups`, `tail_percentile`.
    pub info: Vec<(String, f64)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Counts operations and correctness checks; a failed check is a
/// failed operation.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Counts one operation or check; `why` is rendered on failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // A run that fails everywhere need not say so 5,000 times.
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }
}

/// What a workload's untraced run hands back.
struct EndToEnd {
    /// Wall time of each set-up repetition, seconds.
    setups_s: Vec<f64>,
    /// Latency of each operation, milliseconds.
    ops_ms: Vec<f64>,
}

/// Runs `setup` `reps` times and times each; every instance but the
/// last goes to `teardown` (untimed). The median is the set-up time a
/// later change is held to, so work moved into set-up shows.
fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repetition"), times))
}

/// Repeats `op` until `seconds` have passed (at least once) and
/// returns each repetition's wall time in milliseconds.
fn repeat_for(
    seconds: f64,
    mut op: impl FnMut() -> Result<Duration, String>,
) -> Result<Vec<f64>, String> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(ms(op()?));
        if start.elapsed() >= budget {
            return Ok(out);
        }
    }
}

/// Repetitions of a set-up that takes about 20 ms: a median of five
/// still moved by a third when a noisy moment covered three of them.
const CHEAP_SETUPS: usize = 9;

/// The tables, generated nine times over: the set-up of every
/// workload that builds nothing else before its timed part.
fn repeated_inputs(
    wells: usize,
    categorical: bool,
    seed: u64,
) -> Result<(Inputs, Vec<f64>), String> {
    repeat_setup(
        CHEAP_SETUPS,
        || Ok(gwdb_inputs(wells, categorical, seed)),
        |_| Ok(()),
    )
}

/// Per-layer metrics as a traced run hands them back.
fn named<const N: usize>(metrics: [(&str, f64); N]) -> Vec<(String, f64)> {
    metrics
        .into_iter()
        .map(|(name, value)| (name.to_owned(), value))
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Where a workload's spans are written.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"))
}

/// Runs one workload at `scale` and reports its metrics.
pub fn run(args: &RunArgs, scale: &Scale) -> Result<Report, String> {
    if !spec::WORKLOADS
        .iter()
        .any(|(name, _)| *name == args.workload)
    {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload {:?}; one of {}",
            args.workload,
            names.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    let mut tally = Tally::default();
    let mut info = Vec::new();
    let metrics = if args.trace {
        let tracer = Tracer::new();
        let measured = match args.workload.as_str() {
            "batch_gwdb" => batch::traced(false, args, scale, &tracer, &mut tally),
            "batch_gwdb_cat" => batch::traced(true, args, scale, &tracer, &mut tally),
            "ground_gwdb" => ground::traced(args, scale, &tracer, &mut tally),
            "lazy_query" => lazy::traced(args, scale, &tracer, &mut tally),
            "serve_mixed" => serve::traced(true, args, scale, &tracer, &mut tally),
            _ => serve::traced(false, args, scale, &tracer, &mut tally),
        }?;
        tracer
            .write_jsonl(&trace_path(&args.workload))
            .map_err(|e| format!("cannot write the trace: {e}"))?;
        let defs = spec::per_layer();
        if let Some((name, _)) = measured
            .iter()
            .find(|(n, _)| !defs.iter().any(|m| m.name == *n))
        {
            return Err(format!("{name} is not a per-layer metric of the benchmark"));
        }
        // A layer the workload does not drive reads 0.
        defs.into_iter()
            .map(|m| {
                let value = measured
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name, value)
            })
            .collect()
    } else {
        let e2e = match args.workload.as_str() {
            "batch_gwdb" => batch::end_to_end(false, args, scale, &mut tally),
            "batch_gwdb_cat" => batch::end_to_end(true, args, scale, &mut tally),
            "ground_gwdb" => ground::end_to_end(args, scale, &mut tally),
            "lazy_query" => lazy::end_to_end(args, scale, &mut tally),
            "serve_mixed" => serve::end_to_end(true, args, scale, &mut tally),
            _ => serve::end_to_end(false, args, scale, &mut tally),
        }?;
        let ops = sorted(e2e.ops_ms);
        let tail = supported_tail(ops.len());
        info = vec![
            ("ops".to_owned(), ops.len() as f64),
            ("setups".to_owned(), e2e.setups_s.len() as f64),
            ("tail_percentile".to_owned(), tail),
        ];
        let value = |name: &str| match name {
            "op_p50_ms" => percentile(&ops, 50.0),
            "op_tail_ms" => percentile(&ops, tail),
            "peak_rss_mb" => peak_rss_mb(),
            "setup_s" => stats::median(&e2e.setups_s),
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        spec::end_to_end()
            .into_iter()
            .map(|m| (m.name.clone(), value(&m.name)))
            .collect()
    };
    Ok(Report {
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
        failures: tally.failures,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_repeated_and_only_the_last_instance_survives() {
        let mut built = 0;
        let mut torn = Vec::new();
        let (last, times) = repeat_setup(
            3,
            || {
                built += 1;
                Ok(built)
            },
            |i| {
                torn.push(i);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!((last, times.len()), (3, 3));
        assert_eq!(torn, vec![1, 2]);
        let failed = repeat_setup(3, || Err::<u8, _>("no".to_owned()), |_| Ok(()));
        assert_eq!(failed.unwrap_err(), "no");
    }

    #[test]
    fn repeat_for_runs_at_least_once_and_until_the_budget() {
        let once = repeat_for(1e-9, || Ok(Duration::from_millis(3))).unwrap();
        assert_eq!(once, vec![3.0]);
        let ops = repeat_for(0.03, || {
            std::thread::sleep(Duration::from_millis(10));
            Ok(Duration::from_millis(10))
        })
        .unwrap();
        assert!((3..=4).contains(&ops.len()), "{ops:?}");
        assert!(repeat_for(1.0, || Err("broken".to_owned())).is_err());
    }

    #[test]
    fn unknown_workload_and_bad_seconds_are_refused() {
        let args = |w: &str, s: f64| RunArgs {
            workload: w.into(),
            seed: 1,
            seconds: s,
            trace: false,
        };
        assert!(run(&args("nope", 1.0), &Scale::smoke()).is_err());
        assert!(run(&args("ground_gwdb", 0.0), &Scale::smoke()).is_err());
    }
}
