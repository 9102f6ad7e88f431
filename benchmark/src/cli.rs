//! Command line of `sya-benchmark`.

use crate::data::Scale;
use crate::machine::MachineStamp;
use crate::report::{context_line, info_line, repeat_command, result_line, run_command};
use crate::workloads::{self, RunArgs};

/// Seconds each workload measures unless `--seconds` says otherwise;
/// equal to `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;
const DEFAULT_SEED: u64 = 14;

pub const USAGE: &str = "\
usage:
  sya-benchmark --workload NAME --seed N --seconds S --trace 0|1
      one workload in this process; the last line of standard output is
      {\"correct\", \"attempted\", \"failed\", \"metrics\"}
  sya-benchmark run    [--seed N] [--seconds S]
      every workload, each in a child process: end-to-end metrics
  sya-benchmark trace  [--seed N] [--seconds S]
      every workload shortened and traced: per-layer metrics, and
      benchmark/out/trace-<workload>.jsonl
  sya-benchmark repeat [--sets K] [--seed N]... [--seconds S]
      the full set K times per seed; fails if two sets of one seed lie
      further apart than a metric's bound";

#[derive(Debug, Clone, PartialEq)]
pub enum Invocation {
    One(RunArgs),
    Run {
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Repeat {
        seeds: Vec<u64>,
        sets: usize,
        seconds: f64,
    },
}

fn number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}

pub fn parse(argv: &[String]) -> Result<Invocation, String> {
    let (command, flags) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "repeat")) => (Some(c), &argv[1..]),
        _ => (None, argv),
    };
    let (mut workload, mut seeds, mut seconds, mut trace, mut sets) =
        (None, vec![], None, None, None);
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = Some(it.next().ok_or("--workload needs a value")?.clone()),
            "--seed" => seeds.push(number::<u64>(flag, it.next())?),
            "--seconds" => seconds = Some(number::<f64>(flag, it.next())?),
            "--trace" => trace = Some(number::<u8>(flag, it.next())?),
            "--sets" => sets = Some(number::<usize>(flag, it.next())?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if trace.is_some_and(|t| t > 1) {
        return Err("--trace takes 0 or 1".to_owned());
    }
    let seconds = seconds.unwrap_or(DEFAULT_SECONDS);
    let one_seed = || match seeds.as_slice() {
        [] => Ok(DEFAULT_SEED),
        [seed] => Ok(*seed),
        _ => Err("only `repeat` takes more than one --seed".to_owned()),
    };
    match command {
        None => {
            let workload = workload.ok_or("--workload is required")?;
            Ok(Invocation::One(RunArgs {
                workload,
                seed: one_seed()?,
                seconds,
                trace: trace == Some(1),
            }))
        }
        Some(_) if workload.is_some() => Err("--workload goes without a subcommand".to_owned()),
        Some("repeat") => {
            if seeds.is_empty() {
                seeds.push(DEFAULT_SEED);
            }
            let sets = sets.unwrap_or(2);
            if sets < 2 {
                return Err("--sets must be at least 2".to_owned());
            }
            Ok(Invocation::Repeat {
                seeds,
                sets,
                seconds,
            })
        }
        Some(c) => Ok(Invocation::Run {
            seed: one_seed()?,
            seconds,
            trace: c == "trace",
        }),
    }
}

/// Runs the invocation; the returned code is the process's exit code.
pub fn main(argv: &[String]) -> i32 {
    let invocation = match parse(argv) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("sya-benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    let outcome = match invocation {
        Invocation::One(args) => {
            println!("{}", context_line(&MachineStamp::collect(), &args));
            workloads::run(&args, &Scale::paper()).map(|report| {
                for failure in &report.failures {
                    eprintln!("{}: FAILED: {failure}", args.workload);
                }
                println!("{}", info_line(&report));
                println!("{}", result_line(&report, args.trace));
                // The result says whether the run was correct; the exit
                // code says whether there is a result.
                true
            })
        }
        Invocation::Run {
            seed,
            seconds,
            trace,
        } => run_command(seed, seconds, trace),
        Invocation::Repeat {
            seeds,
            sets,
            seconds,
        } => repeat_command(&seeds, sets, seconds),
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("sya-benchmark: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_form() {
        let got = parse(&argv(
            "--workload lazy_query --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        let want = RunArgs {
            workload: "lazy_query".into(),
            seed: 7,
            seconds: 3.0,
            trace: true,
        };
        assert!(
            matches!(got, Invocation::One(a) if a.workload == want.workload
            && a.seed == 7 && a.seconds == 3.0 && a.trace)
        );
    }

    #[test]
    fn parses_the_subcommands() {
        assert_eq!(
            parse(&argv("run --seed 14")).unwrap(),
            Invocation::Run {
                seed: 14,
                seconds: DEFAULT_SECONDS,
                trace: false
            }
        );
        assert_eq!(
            parse(&argv("trace")).unwrap(),
            Invocation::Run {
                seed: DEFAULT_SEED,
                seconds: DEFAULT_SECONDS,
                trace: true
            }
        );
        assert_eq!(
            parse(&argv("repeat --sets 3 --seed 14 --seed 15 --seconds 5")).unwrap(),
            Invocation::Repeat {
                seeds: vec![14, 15],
                sets: 3,
                seconds: 5.0
            }
        );
    }

    #[test]
    fn refuses_bad_arguments() {
        for bad in [
            "",
            "--seed 1",
            "--workload x --trace 2",
            "--workload x --seed nope",
            "run --workload x",
            "run --seed 1 --seed 2",
            "repeat --sets 1",
            "run --frobnicate",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn default_seconds_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(doc["run_seconds"].as_f64(), Some(DEFAULT_SECONDS));
    }
}
