//! The `sya` command-line tool: validate, translate, and run spatial
//! DDlog programs against CSV data — the domain-expert entry point of
//! the paper's Fig. 2 architecture, packaged as a binary.
//!
//! ```text
//! sya validate  <program.ddlog>
//! sya translate <program.ddlog> [--constant name=WKT ...]
//! sya stats     <program.ddlog> --table NAME=FILE.csv ... [options]
//! sya run       <program.ddlog> --table NAME=FILE.csv ... [options]
//! sya query     <program.ddlog> --table NAME=FILE.csv --relation R --id N [options]
//! sya serve     <program.ddlog> --table NAME=FILE.csv ... [options]
//! sya shard-coordinator <program.ddlog> --shards N [options]
//! sya shard-worker      <program.ddlog> --shard I --connect HOST:PORT [options]
//!
//! options:
//!   --table NAME=FILE.csv     input relation data (repeatable)
//!   --evidence FILE.csv       evidence rows: header `relation,id,value`
//!   --constant NAME=WKT       named geometry constant (repeatable)
//!   --engine sya|deepdive     engine mode            [default: sya]
//!   --metric euclidean|haversine-miles               [default: euclidean]
//!   --epochs N                inference epochs       [default: 1000]
//!   --seed N                  RNG seed               [default: 42]
//!   --bandwidth B             spatial weighting bandwidth
//!   --radius R                spatial factor cutoff
//!   --output FILE.csv         factual scores as CSV  [default: stdout]
//!   --geojson FILE.json       located scores as GeoJSON
//!   --min-score S             only emit scores >= S  [default: 0]
//!   --timeout SECS            wall-clock deadline; on expiry the run
//!                             stops at the next epoch barrier and emits
//!                             partial scores (outcome on stderr)
//!   --checkpoint-dir DIR      persist CRC-checked sampler checkpoints
//!                             (plus the factor graph) into DIR
//!   --checkpoint-every N      checkpoint every N epochs [default: 25]
//!   --resume                  resume from the newest valid checkpoint
//!                             in --checkpoint-dir; damaged checkpoints
//!                             are skipped for older good ones
//!   --workers N               thread cap for the sampler's lanes (the
//!                             scores never depend on it)
//!   --shards N                cut the KB into N spatial shards, each
//!                             sweeping its own cells (sya engine
//!                             only); scores match --shards 1 exactly
//!   --partition-level L       pyramid level of the shard cut
//!                             [default: 4]
//!   --max-factors N           abort grounding past N ground factors
//!   --max-vars N              abort grounding past N ground variables
//!   --max-memory-mb N         abort grounding past N MiB (estimated)
//!   --metrics-out FILE        write the metrics registry after the run:
//!                             JSON dump, or Prometheus text exposition
//!                             when FILE ends in `.prom`
//!   --trace                   print the span trace as an indented tree
//!                             on stderr (also enabled by SYA_TRACE=1)
//!   --trace-out FILE          write spans and events as JSON lines
//!   --profile                 record hot-path timing histograms
//!                             (delta-energy eval, conclique sweeps,
//!                             halo publish/apply, checkpoint writes)
//!                             into the metrics registry; also enabled
//!                             by SYA_PROFILE=1
//!
//! query-only options (DESIGN.md §16):
//!   `sya query` answers ONE bound marginal without grounding the KB:
//!   a magic-sets backward pass grounds only the factor neighborhood
//!   of the named atom and runs a short restricted chain over it.
//!   The answer is a single JSON object on stdout.
//!
//!   --relation NAME           variable relation of the queried atom
//!   --id N                    entity id of the queried atom
//!   --hop-depth N             factor hops expanded around the seed
//!                             [default: 2]
//!   --epochs here defaults to the short restricted-chain budget (240),
//!   not the full pipeline's 1000.
//!
//! serve-only options (`--shards` on serve only shapes construction:
//! the constructed KB is served as one live state, as if unsharded):
//!   --lazy                    never ground the full KB: demand-ground
//!                             each /v1/marginal neighborhood through
//!                             the query grounder, behind an
//!                             epoch-keyed answer cache that /v1/evidence
//!                             invalidates (incompatible with --shards
//!                             and checkpointing)
//!   --hop-depth N             (with --lazy) per-request hop depth
//!                             [default: 2]
//!   --query-cache N           (with --lazy) cached answers; 0 disables
//!                             [default: 1024]
//!   --listen HOST:PORT        bind address [default: 127.0.0.1:7171];
//!                             port 0 picks an ephemeral port
//!   --serve-workers N         request worker threads [default: 4]
//!   --request-timeout-ms N    per-request deadline   [default: 10000];
//!                             queue wait counts against it — a request
//!                             that waited it out is shed at dequeue
//!   --max-queue N             bounded accept queue; overflow is shed
//!                             with 503 + Retry-After before the body
//!                             is read [default: 8 x workers]
//!   --max-inflight N          concurrently executing expensive
//!                             requests; /healthz and /metrics bypass
//!                             the gate [default: workers]
//!   --refresh-checkpoint-every SECS
//!                             background-checkpoint the live marginals
//!                             every SECS seconds (needs --checkpoint-dir)
//!
//! cluster options (DESIGN.md §13):
//!   shard-coordinator spawns one `sya shard-worker` process per shard,
//!   sequences the halo exchange over TCP, restarts crashed workers
//!   from their checkpoints, and degrades (frozen halo, partial merge)
//!   when a shard exhausts its restart budget; shard-worker is spawned
//!   by the coordinator and rarely run by hand.
//!
//!   --cluster-listen H:P      coordinator bind address
//!                             [default: 127.0.0.1:0 (ephemeral)]
//!   --restart-budget N        restarts allowed per shard before it is
//!                             declared lost [default: 2]
//!   --heartbeat-ms N          per-worker frame deadline [default: 2000]
//!   --backoff-ms N            base of the exponential restart backoff
//!                             [default: 100]
//!   --status-listen H:P       serve the cluster health board over HTTP
//!                             (one JSON document per GET)
//!   --status-linger           keep the status server up after the run
//!                             until SIGTERM (CI reads the final health)
//!   --shard I                 (worker) this worker's shard index
//!   --connect H:P             (worker) coordinator address to join
//! ```

use std::collections::HashMap;
use std::io::Write;
use sya_core::{to_geojson, EngineMode, Obs, SyaConfig, SyaSession};
use sya_geom::DistanceMetric;
use sya_lang::{parse_program, validate, GeomConstants};
use sya_store::{read_csv_into, write_csv, Column, Database, TableSchema, Value};

/// Runs the CLI; returns the process exit code. All output goes to the
/// provided writers so tests can capture it.
pub fn run_cli(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> i32 {
    match dispatch(args, out, err) {
        Ok(()) => 0,
        // A closed stdout (e.g. `sya translate | head`) is the reader's
        // choice, not a failure — follow the Unix convention and exit 0.
        Err(msg) if msg.to_ascii_lowercase().contains("broken pipe") => 0,
        Err(msg) => {
            let _ = writeln!(err, "error: {msg}");
            1
        }
    }
}

fn dispatch(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(USAGE.trim().to_owned());
    };
    match cmd.as_str() {
        "validate" => cmd_validate(&args[1..], out),
        "translate" => cmd_translate(&args[1..], out),
        "stats" => cmd_run(&args[1..], out, err, true),
        "run" => cmd_run(&args[1..], out, err, false),
        "query" => cmd_query(&args[1..], out, err),
        "serve" => cmd_serve(&args[1..], out, err),
        "shard-coordinator" => cmd_coordinator(&args[1..], out, err),
        "shard-worker" => cmd_worker(&args[1..], out, err),
        "--help" | "-h" | "help" => {
            writeln!(out, "{}", USAGE.trim()).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown command {other:?}\n{}", USAGE.trim())),
    }
}

const USAGE: &str = r#"
usage: sya <validate|translate|stats|run|query|serve|shard-coordinator|shard-worker> <program.ddlog> [options]
run `sya help` for the option list
"#;

/// Parsed common options.
struct Options {
    program_path: String,
    tables: Vec<(String, String)>,
    evidence_path: Option<String>,
    constants: GeomConstants,
    /// Raw `NAME=WKT` strings, kept so the coordinator can forward them
    /// verbatim to spawned workers.
    constant_args: Vec<String>,
    engine: EngineMode,
    metric: DistanceMetric,
    /// `None` means "subcommand default": 1000 epochs for the full
    /// pipeline, the short restricted-chain budget for `query`/`--lazy`.
    epochs: Option<usize>,
    seed: u64,
    bandwidth: Option<f64>,
    radius: Option<f64>,
    output: Option<String>,
    geojson: Option<String>,
    min_score: f64,
    timeout: Option<f64>,
    max_factors: Option<u64>,
    max_vars: Option<u64>,
    max_memory_mb: Option<u64>,
    metrics_out: Option<String>,
    trace: bool,
    trace_out: Option<String>,
    profile: bool,
    checkpoint_dir: Option<String>,
    checkpoint_every: usize,
    resume: bool,
    workers: Option<usize>,
    shards: usize,
    partition_level: Option<u8>,
    cluster_listen: String,
    restart_budget: usize,
    heartbeat_ms: u64,
    backoff_ms: u64,
    status_listen: Option<String>,
    status_linger: bool,
    shard: Option<usize>,
    connect: Option<String>,
    listen: String,
    serve_workers: usize,
    request_timeout_ms: u64,
    refresh_checkpoint_every: Option<u64>,
    max_queue: usize,
    max_inflight: usize,
    lazy: bool,
    hop_depth: Option<usize>,
    query_cache: usize,
    relation: Option<String>,
    id: Option<i64>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        program_path: String::new(),
        tables: Vec::new(),
        evidence_path: None,
        constants: GeomConstants::new(),
        constant_args: Vec::new(),
        engine: EngineMode::Sya,
        metric: DistanceMetric::Euclidean,
        epochs: None,
        seed: 42,
        bandwidth: None,
        radius: None,
        output: None,
        geojson: None,
        min_score: 0.0,
        timeout: None,
        max_factors: None,
        max_vars: None,
        max_memory_mb: None,
        metrics_out: None,
        trace: false,
        trace_out: None,
        profile: false,
        checkpoint_dir: None,
        checkpoint_every: 25,
        resume: false,
        workers: None,
        shards: 0,
        partition_level: None,
        cluster_listen: "127.0.0.1:0".to_owned(),
        restart_budget: 2,
        heartbeat_ms: 2000,
        backoff_ms: 100,
        status_listen: None,
        status_linger: false,
        shard: None,
        connect: None,
        listen: "127.0.0.1:7171".to_owned(),
        serve_workers: 4,
        request_timeout_ms: 10_000,
        refresh_checkpoint_every: None,
        max_queue: 0,
        max_inflight: 0,
        lazy: false,
        hop_depth: None,
        query_cache: 1024,
        relation: None,
        id: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--table" => {
                let v = value("--table")?;
                let (name, path) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--table expects NAME=FILE, got {v:?}"))?;
                opts.tables.push((name.to_owned(), path.to_owned()));
            }
            "--evidence" => opts.evidence_path = Some(value("--evidence")?),
            "--constant" => {
                let v = value("--constant")?;
                let (name, wkt) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--constant expects NAME=WKT, got {v:?}"))?;
                let g = sya_geom::parse_wkt(wkt).map_err(|e| e.to_string())?;
                opts.constants.insert(name, g);
                opts.constant_args.push(v);
            }
            "--engine" => {
                opts.engine = match value("--engine")?.as_str() {
                    "sya" => EngineMode::Sya,
                    "deepdive" => EngineMode::DeepDive,
                    other => return Err(format!("unknown engine {other:?}")),
                }
            }
            "--metric" => {
                opts.metric = match value("--metric")?.as_str() {
                    "euclidean" => DistanceMetric::Euclidean,
                    "haversine-miles" | "haversine" => DistanceMetric::HaversineMiles,
                    other => return Err(format!("unknown metric {other:?}")),
                }
            }
            "--epochs" => {
                opts.epochs = Some(
                    value("--epochs")?
                        .parse()
                        .map_err(|e| format!("bad --epochs: {e}"))?,
                )
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--bandwidth" => {
                opts.bandwidth = Some(
                    value("--bandwidth")?
                        .parse()
                        .map_err(|e| format!("bad --bandwidth: {e}"))?,
                )
            }
            "--radius" => {
                opts.radius = Some(
                    value("--radius")?
                        .parse()
                        .map_err(|e| format!("bad --radius: {e}"))?,
                )
            }
            "--output" => opts.output = Some(value("--output")?),
            "--geojson" => opts.geojson = Some(value("--geojson")?),
            "--min-score" => {
                opts.min_score = value("--min-score")?
                    .parse()
                    .map_err(|e| format!("bad --min-score: {e}"))?
            }
            "--timeout" => {
                let secs: f64 = value("--timeout")?
                    .parse()
                    .map_err(|e| format!("bad --timeout: {e}"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!("bad --timeout: {secs} (want seconds >= 0)"));
                }
                opts.timeout = Some(secs);
            }
            "--max-factors" => {
                opts.max_factors = Some(
                    value("--max-factors")?
                        .parse()
                        .map_err(|e| format!("bad --max-factors: {e}"))?,
                )
            }
            "--max-vars" => {
                opts.max_vars = Some(
                    value("--max-vars")?
                        .parse()
                        .map_err(|e| format!("bad --max-vars: {e}"))?,
                )
            }
            "--max-memory-mb" => {
                opts.max_memory_mb = Some(
                    value("--max-memory-mb")?
                        .parse()
                        .map_err(|e| format!("bad --max-memory-mb: {e}"))?,
                )
            }
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--trace" => opts.trace = true,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--profile" => opts.profile = true,
            "--checkpoint-dir" => opts.checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--checkpoint-every" => {
                opts.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-every: {e}"))?
            }
            "--resume" => opts.resume = true,
            "--listen" => opts.listen = value("--listen")?,
            "--serve-workers" => {
                let n: usize = value("--serve-workers")?
                    .parse()
                    .map_err(|e| format!("bad --serve-workers: {e}"))?;
                if n == 0 {
                    return Err("bad --serve-workers: 0 (want at least 1 thread)".to_owned());
                }
                opts.serve_workers = n;
            }
            "--request-timeout-ms" => {
                let ms: u64 = value("--request-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad --request-timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("bad --request-timeout-ms: 0 (want milliseconds >= 1)".to_owned());
                }
                opts.request_timeout_ms = ms;
            }
            "--max-queue" => {
                let n: usize = value("--max-queue")?
                    .parse()
                    .map_err(|e| format!("bad --max-queue: {e}"))?;
                if n == 0 {
                    return Err("bad --max-queue: 0 (want at least 1 queued connection)"
                        .to_owned());
                }
                opts.max_queue = n;
            }
            "--max-inflight" => {
                let n: usize = value("--max-inflight")?
                    .parse()
                    .map_err(|e| format!("bad --max-inflight: {e}"))?;
                if n == 0 {
                    return Err(
                        "bad --max-inflight: 0 (want at least 1 in-flight request)".to_owned()
                    );
                }
                opts.max_inflight = n;
            }
            "--refresh-checkpoint-every" => {
                opts.refresh_checkpoint_every = Some(
                    value("--refresh-checkpoint-every")?
                        .parse()
                        .map_err(|e| format!("bad --refresh-checkpoint-every: {e}"))?,
                )
            }
            "--shards" => {
                opts.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?
            }
            "--partition-level" => {
                opts.partition_level = Some(
                    value("--partition-level")?
                        .parse()
                        .map_err(|e| format!("bad --partition-level: {e}"))?,
                )
            }
            "--cluster-listen" => opts.cluster_listen = value("--cluster-listen")?,
            "--restart-budget" => {
                opts.restart_budget = value("--restart-budget")?
                    .parse()
                    .map_err(|e| format!("bad --restart-budget: {e}"))?
            }
            "--heartbeat-ms" => {
                let ms: u64 = value("--heartbeat-ms")?
                    .parse()
                    .map_err(|e| format!("bad --heartbeat-ms: {e}"))?;
                if ms == 0 {
                    return Err("bad --heartbeat-ms: 0 (want milliseconds >= 1)".to_owned());
                }
                opts.heartbeat_ms = ms;
            }
            "--backoff-ms" => {
                let ms: u64 = value("--backoff-ms")?
                    .parse()
                    .map_err(|e| format!("bad --backoff-ms: {e}"))?;
                if ms == 0 {
                    return Err("bad --backoff-ms: 0 (want milliseconds >= 1)".to_owned());
                }
                opts.backoff_ms = ms;
            }
            "--status-listen" => opts.status_listen = Some(value("--status-listen")?),
            "--status-linger" => opts.status_linger = true,
            "--shard" => {
                opts.shard = Some(
                    value("--shard")?
                        .parse()
                        .map_err(|e| format!("bad --shard: {e}"))?,
                )
            }
            "--connect" => opts.connect = Some(value("--connect")?),
            "--lazy" => opts.lazy = true,
            "--hop-depth" => {
                opts.hop_depth = Some(
                    value("--hop-depth")?
                        .parse()
                        .map_err(|e| format!("bad --hop-depth: {e}"))?,
                )
            }
            "--query-cache" => {
                opts.query_cache = value("--query-cache")?
                    .parse()
                    .map_err(|e| format!("bad --query-cache: {e}"))?
            }
            "--relation" => opts.relation = Some(value("--relation")?),
            "--id" => {
                opts.id = Some(
                    value("--id")?
                        .parse()
                        .map_err(|e| format!("bad --id: {e}"))?,
                )
            }
            "--workers" => {
                let n: usize = value("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
                if n == 0 {
                    return Err("bad --workers: 0 (want at least 1 thread)".to_owned());
                }
                opts.workers = Some(n);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag:?}")),
            path if opts.program_path.is_empty() => opts.program_path = path.to_owned(),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    if opts.program_path.is_empty() {
        return Err("missing program file".to_owned());
    }
    if opts.resume && opts.checkpoint_dir.is_none() {
        return Err("--resume requires --checkpoint-dir".to_owned());
    }
    if opts.refresh_checkpoint_every.is_some() && opts.checkpoint_dir.is_none() {
        return Err("--refresh-checkpoint-every requires --checkpoint-dir".to_owned());
    }
    if opts.status_linger && opts.status_listen.is_none() {
        return Err("--status-linger requires --status-listen".to_owned());
    }
    if opts.lazy && opts.shards > 0 {
        return Err(
            "--lazy is incompatible with --shards: lazy serving never grounds the KB, \
             so there is nothing to shard"
                .to_owned(),
        );
    }
    if opts.lazy && (opts.checkpoint_dir.is_some() || opts.refresh_checkpoint_every.is_some()) {
        return Err(
            "--lazy is incompatible with checkpointing: there is no materialized state to \
             checkpoint"
                .to_owned(),
        );
    }
    Ok(opts)
}

fn read_program(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))
}

fn cmd_validate(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let opts = parse_options(args)?;
    let src = read_program(&opts.program_path)?;
    let program = parse_program(&src).map_err(|e| e.to_string())?;
    validate(&program).map_err(|e| e.to_string())?;
    let schemas = program.schemas().count();
    let rules = program.rules().count();
    writeln!(out, "ok: {schemas} relations, {rules} rules").map_err(|e| e.to_string())
}

fn cmd_translate(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let opts = parse_options(args)?;
    let src = read_program(&opts.program_path)?;
    let program = parse_program(&src).map_err(|e| e.to_string())?;
    let compiled =
        sya_lang::compile(&program, &opts.constants, opts.metric).map_err(|e| e.to_string())?;
    for rule in &compiled.rules {
        writeln!(out, "-- rule {}", rule.label).map_err(|e| e.to_string())?;
        for (i, q) in sya_ground::translate_rule(rule).iter().enumerate() {
            writeln!(out, "  stage {i} [{}]: {}", q.operator, q.sql).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Loads input tables declared by the program's non-variable relations.
fn load_database(
    compiled: &sya_lang::CompiledProgram,
    tables: &[(String, String)],
) -> Result<Database, String> {
    let mut db = Database::new();
    let mut seen = std::collections::HashSet::new();
    for (name, path) in tables {
        if !seen.insert(name.as_str()) {
            return Err(format!(
                "duplicate --table {name:?}; each relation takes exactly one file"
            ));
        }
        let schema_decl = compiled
            .schema(name)
            .ok_or_else(|| format!("program declares no relation {name:?}"))?;
        if schema_decl.is_variable {
            return Err(format!("{name:?} is a variable relation; it takes no input data"));
        }
        let columns: Vec<Column> = schema_decl
            .columns
            .iter()
            .map(|(n, t)| Column::new(n.clone(), *t))
            .collect();
        let table = db
            .create_table(name.clone(), TableSchema::new(columns))
            .map_err(|e| e.to_string())?;
        let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
        let n = read_csv_into(table, std::io::BufReader::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
        if n == 0 {
            return Err(format!("{path}: no data rows"));
        }
    }
    Ok(db)
}

/// Loads evidence rows (`relation,id,value` header) and validates them
/// against the program: the relation must be a declared variable
/// relation, the value must fit its domain, and a `(relation, id)` pair
/// may appear only once. Bad evidence is rejected up front — silently
/// dropping a row would let a typo'd observation vanish into a run that
/// then reports wrong scores with full confidence.
fn load_evidence(
    path: &str,
    compiled: &sya_lang::CompiledProgram,
    domains: &HashMap<String, u32>,
) -> Result<HashMap<(String, i64), u32>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| format!("{path}: empty file"))?;
    let names = sya_store::split_csv_line(header);
    let pos = |want: &str| -> Result<usize, String> {
        names
            .iter()
            .position(|n| n.trim() == want)
            .ok_or_else(|| format!("{path}: missing column {want:?}"))
    };
    let (rp, ip, vp) = (pos("relation")?, pos("id")?, pos("value")?);
    let mut out = HashMap::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = sya_store::split_csv_line(line);
        let get = |p: usize| {
            fields
                .get(p)
                .map(|s| s.trim().to_owned())
                .ok_or_else(|| format!("{path}: row {} too short", i + 2))
        };
        let relation = get(rp)?;
        let id: i64 = get(ip)?
            .parse()
            .map_err(|e| format!("{path}: row {}: bad id: {e}", i + 2))?;
        let value: u32 = get(vp)?
            .parse()
            .map_err(|e| format!("{path}: row {}: bad value: {e}", i + 2))?;
        let schema = compiled.schema(&relation).ok_or_else(|| {
            format!(
                "{path}: row {}: evidence references undeclared relation {relation:?}",
                i + 2
            )
        })?;
        if !schema.is_variable {
            return Err(format!(
                "{path}: row {}: {relation:?} is an input relation; evidence applies only \
                 to variable relations",
                i + 2
            ));
        }
        let cardinality = domains.get(&relation).copied().unwrap_or(2);
        if value >= cardinality {
            return Err(format!(
                "{path}: row {}: value {value} is out of range for {relation:?} \
                 (domain 0..{cardinality})",
                i + 2
            ));
        }
        if out.insert((relation.clone(), id), value).is_some() {
            return Err(format!(
                "{path}: row {}: duplicate evidence for {relation:?} id {id}",
                i + 2
            ));
        }
    }
    Ok(out)
}

/// CLI diagnostics, routed through the observability event layer: every
/// message is recorded as a severity-tagged event (so it shows up in
/// `--trace` / `--trace-out` output in run order), and `warn`/`info`
/// additionally render on stderr in the historical format that
/// operators and the existing tests rely on. `debug` messages are
/// trace-only.
struct Diag<'a> {
    err: &'a mut dyn Write,
    obs: Obs,
}

impl Diag<'_> {
    fn warn(&mut self, msg: &str) -> Result<(), String> {
        self.obs.warn(msg.to_owned());
        writeln!(self.err, "warning: {msg}").map_err(|e| e.to_string())
    }

    fn info(&mut self, msg: &str) -> Result<(), String> {
        self.obs.info(msg.to_owned());
        writeln!(self.err, "{msg}").map_err(|e| e.to_string())
    }

    fn debug(&mut self, msg: String) {
        self.obs.debug(msg);
    }
}

/// Arms the hot-path profiler for this process when `--profile` or
/// `SYA_PROFILE=1` asks for it. While off, every instrumentation hook
/// costs one relaxed atomic load.
fn init_profiler(opts: &Options) {
    if opts.profile {
        sya_obs::profile::set_enabled(true);
    }
    sya_obs::profile::enable_from_env();
}

/// Writes the post-run observability artifacts requested on the command
/// line: the metrics registry dump (JSON, or Prometheus text for a
/// `.prom` path), the JSON-lines trace, and the indented trace tree on
/// stderr.
fn write_observability(
    opts: &Options,
    obs: &Obs,
    trace_stderr: bool,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), String> {
    // Fold any profiler histograms into the registry so a `--profile
    // --metrics-out` run lands them in the dump (no-op when disabled).
    sya_obs::profile::publish(obs);
    if let Some(path) = &opts.metrics_out {
        let snap = obs.metrics_snapshot();
        let text = if path.ends_with(".prom") {
            sya_obs::export::render_prometheus(&snap)
        } else {
            sya_obs::export::render_metrics_json(&snap)
        };
        std::fs::write(path, text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        writeln!(out, "wrote {path}").map_err(|e| e.to_string())?;
    }
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, sya_obs::export::render_trace_jsonl(&obs.trace_snapshot()))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        writeln!(out, "wrote {path}").map_err(|e| e.to_string())?;
    }
    if trace_stderr {
        write!(err, "{}", sya_obs::export::render_trace_text(&obs.trace_snapshot()))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Builds the engine configuration from the parsed common options —
/// shared by `run`/`stats` and `serve` so both construct the KB the
/// same way.
fn config_from_opts(opts: &Options) -> SyaConfig {
    let mut config = match opts.engine {
        EngineMode::Sya => SyaConfig::sya(),
        EngineMode::DeepDive => SyaConfig::deepdive(),
        EngineMode::DeepDiveStepFn(_) => unreachable!("not constructible from CLI"),
    };
    config = config.with_epochs(opts.epochs.unwrap_or(1000)).with_seed(opts.seed);
    if let Some(b) = opts.bandwidth {
        config = config.with_bandwidth(b);
    }
    if let Some(r) = opts.radius {
        config = config.with_spatial_radius(r);
    }
    if let Some(secs) = opts.timeout {
        config = config.with_deadline(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(n) = opts.max_factors {
        config = config.with_max_factors(n);
    }
    if let Some(n) = opts.max_vars {
        config = config.with_max_variables(n);
    }
    if let Some(mb) = opts.max_memory_mb {
        config = config.with_max_memory_bytes(mb.saturating_mul(1024 * 1024));
    }
    if let Some(n) = opts.workers {
        config.infer.workers = Some(n);
    }
    if let Some(dir) = &opts.checkpoint_dir {
        config = config
            .with_checkpoints(dir.as_str(), opts.checkpoint_every)
            .with_resume(opts.resume);
    }
    if opts.shards > 0 {
        config = config.with_shards(opts.shards);
    }
    if let Some(level) = opts.partition_level {
        config = config.with_partition_level(level);
    }
    config
}

/// Boxed evidence lookup handed to the pipeline: `(relation, args) ->
/// clamped value`.
type EvidenceFn = Box<dyn Fn(&str, &[Value]) -> Option<u32>>;

/// Loaded evidence rows: `(relation, id) -> observed value`.
type EvidenceMap = HashMap<(String, i64), u32>;

/// The session + data + evidence map shared by every data-bearing
/// subcommand (`run`, `stats`, `query`, `serve`, and both cluster
/// roles): reads the program, builds the config from the flags, loads
/// the tables, and validates the evidence file. The evidence comes back
/// as the raw map — pipeline callers wrap it with [`evidence_closure`],
/// the lazy paths (`query`, `serve --lazy`) hand it over whole.
fn prepare_run(
    opts: &Options,
    obs: &Obs,
) -> Result<(SyaSession, Database, EvidenceMap), String> {
    let src = read_program(&opts.program_path)?;
    let config = config_from_opts(opts);
    let session =
        SyaSession::new_with_obs(&src, opts.constants.clone(), opts.metric, config, obs.clone())
            .map_err(|e| e.to_string())?;
    let db = load_database(session.compiled(), &opts.tables)?;
    let evidence = match &opts.evidence_path {
        Some(p) => load_evidence(p, session.compiled(), &session.config().ground.domains)?,
        None => HashMap::new(),
    };
    Ok((session, db, evidence))
}

/// Wraps the loaded evidence map as the `(relation, args) -> value`
/// lookup the pipeline expects.
fn evidence_closure(evidence: EvidenceMap) -> EvidenceFn {
    Box::new(move |relation: &str, values: &[Value]| -> Option<u32> {
        values
            .first()
            .and_then(Value::as_int)
            .and_then(|id| evidence.get(&(relation.to_owned(), id)).copied())
    })
}

/// Emits the factual scores of a constructed KB the way `sya run` does:
/// sorted `relation,id,score` CSV to stdout or `--output`, plus the
/// optional GeoJSON artifact. Shared with `shard-coordinator`, whose
/// merged cluster scores go through the identical emission path.
fn emit_scores(
    opts: &Options,
    session: &SyaSession,
    kb: &sya_core::KnowledgeBase,
    out: &mut dyn Write,
) -> Result<(), String> {
    let variable_relations: Vec<String> = session
        .compiled()
        .schemas
        .values()
        .filter(|s| s.is_variable)
        .map(|s| s.name.clone())
        .collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut facts = Vec::new();
    for relation in &variable_relations {
        for fact in kb.query(relation).min_score(opts.min_score).run() {
            let id = fact
                .values
                .first()
                .and_then(Value::as_int)
                .map(|i| i.to_string())
                .unwrap_or_default();
            rows.push(vec![relation.clone(), id, format!("{:.4}", fact.score)]);
            facts.push(fact);
        }
    }
    rows.sort();

    match &opts.output {
        None => write_csv(&mut *out, &["relation", "id", "score"], rows)
            .map_err(|e| e.to_string())?,
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create {path:?}: {e}"))?;
            write_csv(std::io::BufWriter::new(file), &["relation", "id", "score"], rows)
                .map_err(|e| e.to_string())?;
            writeln!(out, "wrote {path}").map_err(|e| e.to_string())?;
        }
    }
    if let Some(path) = &opts.geojson {
        std::fs::write(path, to_geojson(&facts))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        writeln!(out, "wrote {path}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_run(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
    stats_only: bool,
) -> Result<(), String> {
    let opts = parse_options(args)?;
    init_profiler(&opts);
    let trace_stderr = opts.trace || std::env::var("SYA_TRACE").is_ok_and(|v| v == "1");
    let observed = trace_stderr || opts.metrics_out.is_some() || opts.trace_out.is_some();
    let obs = if observed { Obs::enabled() } else { Obs::disabled() };
    let (session, mut db, evidence) = prepare_run(&opts, &obs)?;
    let mut diag = Diag { err, obs: obs.clone() };
    diag.debug(format!(
        "loaded {} input table(s), {} evidence row(s)",
        opts.tables.len(),
        evidence.len()
    ));
    let ev_fn = evidence_closure(evidence);
    let kb = session.construct(&mut db, &ev_fn).map_err(|e| e.to_string())?;

    // Degradation report: partial/degraded runs still emit scores, but
    // the operator learns how the run ended and what was lost.
    for w in &kb.warnings {
        diag.warn(w)?;
    }
    if !kb.outcome.is_completed() {
        diag.info(&format!("run outcome: {}", kb.outcome))?;
    }
    write_observability(&opts, &obs, trace_stderr, out, diag.err)?;

    if stats_only {
        writeln!(
            out,
            "variables: {}\nlogical factors: {}\nspatial factors: {}\n\
             grounding: {:.1} ms\ninference: {:.1} ms\noutcome: {}",
            kb.grounding.graph.num_variables(),
            kb.grounding.graph.num_factors(),
            kb.grounding.graph.num_spatial_factors(),
            kb.timings.grounding.as_secs_f64() * 1e3,
            kb.timings.inference.as_secs_f64() * 1e3,
            kb.outcome,
        )
        .map_err(|e| e.to_string())?;
        return Ok(());
    }

    // Factual scores for every variable relation.
    emit_scores(&opts, &session, &kb, out)
}

/// The demand-grounding configuration shared by `sya query` and
/// `sya serve --lazy`: the short restricted-chain defaults, reshaped by
/// the relevant flags. `--epochs` here overrides the *chain* budget
/// (default 240), not the full pipeline's 1000.
fn query_config_from_opts(opts: &Options) -> sya_query::QueryConfig {
    let mut qcfg = sya_query::QueryConfig::default();
    if let Some(h) = opts.hop_depth {
        qcfg.hop_depth = h;
    }
    if let Some(e) = opts.epochs {
        qcfg.infer.epochs = e;
    }
    qcfg.infer.seed = opts.seed;
    if let Some(n) = opts.workers {
        qcfg.infer.workers = Some(n);
    }
    qcfg
}

/// `sya query`: answer one bound marginal without constructing the KB
/// (DESIGN.md §16). A magic-sets backward pass grounds only the factor
/// neighborhood of `--relation`/`--id` and a short restricted chain
/// samples it; the answer is a single JSON object on stdout.
fn cmd_query(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), String> {
    let opts = parse_options(args)?;
    init_profiler(&opts);
    let Some(relation) = opts.relation.clone() else {
        return Err("query requires --relation".to_owned());
    };
    let Some(id) = opts.id else {
        return Err("query requires --id".to_owned());
    };
    let trace_stderr = opts.trace || std::env::var("SYA_TRACE").is_ok_and(|v| v == "1");
    let observed = trace_stderr || opts.metrics_out.is_some() || opts.trace_out.is_some();
    let obs = if observed { Obs::enabled() } else { Obs::disabled() };
    let (session, mut db, evidence) = prepare_run(&opts, &obs)?;
    let mut diag = Diag { err, obs: obs.clone() };
    diag.debug(format!(
        "loaded {} input table(s), {} evidence row(s)",
        opts.tables.len(),
        evidence.len()
    ));

    let mut grounder = sya_query::QueryGrounder::new(
        session.compiled().clone(),
        session.config().ground.clone(),
        query_config_from_opts(&opts),
    );
    let ev_fn = |rel: &str, values: &[Value]| -> Option<u32> {
        values
            .first()
            .and_then(Value::as_int)
            .and_then(|vid| evidence.get(&(rel.to_owned(), vid)).copied())
    };
    let ctx = sya_core::ExecContext::new(session.config().budget.clone()).with_obs(obs.clone());
    let answer = grounder
        .marginal(&mut db, &ev_fn, &relation, id, &ctx)
        .map_err(|e| e.to_string())?;

    for w in &answer.warnings {
        diag.warn(w)?;
    }
    if !answer.outcome.is_completed() {
        diag.info(&format!("query outcome: {}", answer.outcome))?;
    }
    write_observability(&opts, &obs, trace_stderr, out, diag.err)?;

    let rendered = serde_json::json!({
        "relation": answer.relation,
        "id": answer.id,
        "score": answer.score,
        "evidence": answer.evidence,
        "outcome": answer.outcome.to_string(),
        "stats": {
            "variables": answer.stats.variables,
            "logical_factors": answer.stats.logical_factors,
            "spatial_factors": answer.stats.spatial_factors,
            "boundary_clamped": answer.stats.boundary_clamped,
            "sampled": answer.stats.sampled,
            "ground_ms": answer.stats.ground_time.as_secs_f64() * 1e3,
            "infer_ms": answer.stats.infer_time.as_secs_f64() * 1e3,
        },
    });
    writeln!(out, "{rendered}").map_err(|e| e.to_string())
}

/// `sya serve`: construct the KB once (optionally warm-started via
/// `--checkpoint-dir --resume`), then keep it live behind the HTTP
/// serving layer until SIGTERM/SIGINT or a cancelled token. `--shards
/// N` deals the construction's sampling units to N owners exactly as
/// `sya run --shards N` does; the result is the same one live KB. With
/// `--lazy` the construction is skipped entirely: requests demand-ground
/// their neighborhoods through the query grounder (DESIGN.md §16).
fn cmd_serve(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), String> {
    let opts = parse_options(args)?;
    init_profiler(&opts);
    if matches!(opts.engine, EngineMode::DeepDive) {
        return Err(
            "serve requires the sya engine: incremental re-inference needs the pyramid index"
                .to_owned(),
        );
    }
    // Serving is always observed: /metrics is an endpoint, not an
    // opt-in artifact.
    let obs = Obs::enabled();
    let (session, mut db, evidence) = prepare_run(&opts, &obs)?;
    let mut diag = Diag { err, obs: obs.clone() };
    diag.debug(format!(
        "loaded {} input table(s), {} evidence row(s)",
        opts.tables.len(),
        evidence.len()
    ));

    let state: sya_serve::ServeState = if opts.lazy {
        diag.info("lazy mode: serving demand-grounded neighborhoods, no full KB")?;
        let cfg = sya_serve::LazyConfig {
            query: query_config_from_opts(&opts),
            budget: session.config().budget.clone(),
            cache_capacity: opts.query_cache,
        };
        sya_serve::LazyKb::new(
            session.compiled().clone(),
            session.config().ground.clone(),
            db,
            evidence,
            cfg,
            obs,
        )
        .map_err(|e| e.to_string())?
        .into()
    } else {
        let ev_fn = evidence_closure(evidence.clone());
        let kb = session.construct(&mut db, &ev_fn).map_err(|e| e.to_string())?;
        for w in &kb.warnings {
            diag.warn(w)?;
        }
        if !kb.outcome.is_completed() {
            diag.info(&format!("run outcome: {}", kb.outcome))?;
        }
        // Keep the input tables and evidence map alive behind the
        // serving state: POST /v1/rows replays base-row deltas against
        // them through sya-delta instead of re-grounding.
        sya_serve::ServingKb::with_live(session, kb, db, evidence, obs)
            .map_err(|e| e.to_string())?
            .into()
    };
    let cfg = sya_serve::ServeConfig {
        listen: opts.listen.clone(),
        workers: opts.serve_workers,
        request_timeout: std::time::Duration::from_millis(opts.request_timeout_ms),
        checkpoint_refresh: opts
            .refresh_checkpoint_every
            .map(std::time::Duration::from_secs),
        max_queue: opts.max_queue,
        max_inflight: opts.max_inflight,
        ..Default::default()
    };
    sya_serve::install_termination_handler();
    let server = sya_serve::SyaServer::start(state, cfg).map_err(|e| e.to_string())?;
    // The smoke scripts parse this line for the bound (ephemeral) port.
    writeln!(out, "serving on http://{}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    let token = server.token();
    while !sya_serve::termination_requested() && !token.is_cancelled() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    diag.info("shutting down")?;
    server
        .shutdown(std::time::Duration::from_secs(10))
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The worker argv a coordinator forwards to every spawned process:
/// the subset of its own flags that shapes the graph, the plan, and the
/// sampler — so each worker grounds the *identical* factor graph (the
/// rendezvous verifies this by fingerprint). Output/trace flags are
/// deliberately dropped: workers produce frames, not artifacts.
fn worker_args(opts: &Options) -> Vec<String> {
    let mut a: Vec<String> = vec!["shard-worker".to_owned(), opts.program_path.clone()];
    for (name, path) in &opts.tables {
        a.extend(["--table".to_owned(), format!("{name}={path}")]);
    }
    if let Some(p) = &opts.evidence_path {
        a.extend(["--evidence".to_owned(), p.clone()]);
    }
    for c in &opts.constant_args {
        a.extend(["--constant".to_owned(), c.clone()]);
    }
    let engine = match opts.engine {
        EngineMode::Sya => "sya",
        _ => "deepdive",
    };
    let metric = match opts.metric {
        DistanceMetric::Euclidean => "euclidean",
        DistanceMetric::HaversineMiles => "haversine-miles",
    };
    a.extend(["--engine".to_owned(), engine.to_owned()]);
    a.extend(["--metric".to_owned(), metric.to_owned()]);
    a.extend(["--epochs".to_owned(), opts.epochs.unwrap_or(1000).to_string()]);
    a.extend(["--seed".to_owned(), opts.seed.to_string()]);
    if let Some(b) = opts.bandwidth {
        a.extend(["--bandwidth".to_owned(), b.to_string()]);
    }
    if let Some(r) = opts.radius {
        a.extend(["--radius".to_owned(), r.to_string()]);
    }
    if let Some(n) = opts.max_factors {
        a.extend(["--max-factors".to_owned(), n.to_string()]);
    }
    if let Some(n) = opts.max_vars {
        a.extend(["--max-vars".to_owned(), n.to_string()]);
    }
    if let Some(mb) = opts.max_memory_mb {
        a.extend(["--max-memory-mb".to_owned(), mb.to_string()]);
    }
    if let Some(n) = opts.workers {
        a.extend(["--workers".to_owned(), n.to_string()]);
    }
    a.extend(["--shards".to_owned(), opts.shards.to_string()]);
    if let Some(level) = opts.partition_level {
        a.extend(["--partition-level".to_owned(), level.to_string()]);
    }
    if let Some(dir) = &opts.checkpoint_dir {
        a.extend(["--checkpoint-dir".to_owned(), dir.clone()]);
        a.extend(["--checkpoint-every".to_owned(), opts.checkpoint_every.to_string()]);
    }
    a.extend(["--heartbeat-ms".to_owned(), opts.heartbeat_ms.to_string()]);
    // Profiling is forwarded: per-site timings ride each worker's
    // telemetry frames back to the fleet board.
    if opts.profile {
        a.push("--profile".to_owned());
    }
    a
}

/// A spawned `sya shard-worker` process.
struct ChildHandle(std::process::Child);

impl sya_core::WorkerHandle for ChildHandle {
    fn kill(&mut self) {
        // Reap after killing so restarts don't accumulate zombies over a
        // long supervised run. Both calls are idempotent-enough: a dead
        // child just returns an error we don't care about.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns workers as child processes of the coordinator: the same `sya`
/// binary, `shard-worker` subcommand, identical graph-shaping flags.
struct ProcessLauncher {
    exe: std::path::PathBuf,
    base_args: Vec<String>,
    /// `--resume` was given to the coordinator (first attempts then
    /// advertise existing checkpoints too, not just restarts).
    resume: bool,
    /// Whether a checkpoint dir is configured; without one `--resume`
    /// would be rejected by the worker's own flag validation.
    has_ckpt: bool,
}

impl sya_core::WorkerLauncher for ProcessLauncher {
    fn launch(
        &self,
        spec: &sya_core::WorkerSpec,
    ) -> Result<Box<dyn sya_core::WorkerHandle>, String> {
        let mut cmd = std::process::Command::new(&self.exe);
        cmd.args(&self.base_args)
            .arg("--shard")
            .arg(spec.shard.to_string())
            .arg("--connect")
            .arg(&spec.connect)
            // Workers write no artifacts; their stderr (warnings, crash
            // reasons) stays attached to the coordinator's stderr.
            .stdout(std::process::Stdio::null());
        if (self.resume || spec.attempt > 0) && self.has_ckpt {
            cmd.arg("--resume");
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn worker for shard {}: {e}", spec.shard))?;
        Ok(Box::new(ChildHandle(child)))
    }
}

/// `sya shard-coordinator`: the multi-process cluster front end
/// (DESIGN.md §13). Grounds the graph, spawns one `shard-worker`
/// process per shard, supervises the fleet over TCP, and emits the
/// merged scores through the same path as `sya run` — a crashed worker
/// is restarted from its checkpoint, an exhausted restart budget
/// degrades the run instead of failing it.
fn cmd_coordinator(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), String> {
    let opts = parse_options(args)?;
    init_profiler(&opts);
    if opts.shards == 0 {
        return Err("shard-coordinator requires --shards >= 1".to_owned());
    }
    let trace_stderr = opts.trace || std::env::var("SYA_TRACE").is_ok_and(|v| v == "1");
    let observed = trace_stderr || opts.metrics_out.is_some() || opts.trace_out.is_some();
    let obs = if observed { Obs::enabled() } else { Obs::disabled() };
    let (session, mut db, evidence) = prepare_run(&opts, &obs)?;
    let mut diag = Diag { err, obs: obs.clone() };
    diag.debug(format!(
        "loaded {} input table(s), {} evidence row(s)",
        opts.tables.len(),
        evidence.len()
    ));
    let ev_fn = evidence_closure(evidence);

    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the sya binary to spawn workers: {e}"))?;
    let launcher = ProcessLauncher {
        exe,
        base_args: worker_args(&opts),
        resume: opts.resume,
        has_ckpt: opts.checkpoint_dir.is_some(),
    };
    let backoff_base = std::time::Duration::from_millis(opts.backoff_ms);
    let cluster = sya_core::ClusterConfig {
        listen: opts.cluster_listen.clone(),
        heartbeat: std::time::Duration::from_millis(opts.heartbeat_ms),
        backoff: sya_core::Backoff::new(backoff_base, backoff_base.saturating_mul(8)),
        restart_budget: opts.restart_budget,
    };
    let status = match &opts.status_listen {
        Some(listen) => {
            let server = sya_core::StatusServer::start(listen)?;
            // The smoke scripts parse this line for the bound port.
            writeln!(out, "status on http://{}", server.addr()).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Some(server)
        }
        None => None,
    };

    let ctx = sya_core::ExecContext::new(session.config().budget.clone()).with_obs(obs.clone());
    let kb = session
        .construct_cluster(&mut db, &ev_fn, &launcher, &cluster, status.as_ref(), &ctx)
        .map_err(|e| e.to_string())?;
    for w in &kb.warnings {
        diag.warn(w)?;
    }
    if !kb.outcome.is_completed() {
        diag.info(&format!("run outcome: {}", kb.outcome))?;
    }
    write_observability(&opts, &obs, trace_stderr, out, diag.err)?;
    emit_scores(&opts, &session, &kb, out)?;
    out.flush().map_err(|e| e.to_string())?;

    // --status-linger keeps the final health board queryable after the
    // run (the CI chaos smoke reads the degraded verdict here), until a
    // SIGTERM/SIGINT arrives.
    if opts.status_linger {
        sya_serve::install_termination_handler();
        while !sya_serve::termination_requested() {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
    Ok(())
}

/// `sya shard-worker`: one shard of a cluster run. Spawned by the
/// coordinator; grounds the identical graph from the identical flags,
/// joins the coordinator, samples with socket halo exchange, and
/// checkpoints locally so a restarted successor can resume.
fn cmd_worker(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), String> {
    let opts = parse_options(args)?;
    init_profiler(&opts);
    let Some(shard) = opts.shard else {
        return Err("shard-worker requires --shard".to_owned());
    };
    let Some(connect) = opts.connect.clone() else {
        return Err("shard-worker requires --connect".to_owned());
    };
    if opts.shards == 0 {
        return Err(
            "shard-worker requires --shards >= 1 (the same value as the coordinator)"
                .to_owned(),
        );
    }
    let obs = Obs::disabled();
    let (session, mut db, evidence) = prepare_run(&opts, &obs)?;
    let ev_fn = evidence_closure(evidence);
    let mut diag = Diag { err, obs: obs.clone() };
    let wopts = sya_core::WorkerOptions {
        shard,
        connect,
        resume: opts.resume,
        // The read deadline must ride out a full coordinator-side
        // rollback (backoff + relaunch + re-grounding of the successor).
        read_timeout: std::time::Duration::from_millis(opts.heartbeat_ms.saturating_mul(15))
            .max(std::time::Duration::from_secs(30)),
        ..Default::default()
    };
    let ctx = sya_core::ExecContext::new(session.config().budget.clone()).with_obs(obs.clone());
    session
        .run_cluster_worker(&mut db, &ev_fn, &wopts, &ctx)
        .map_err(|e| e.to_string())?;
    diag.info(&format!("shard {shard} worker finished"))?;
    let _ = out;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sya_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_file(dir: &std::path::Path, name: &str, content: &str) -> String {
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn run(args: &[&str]) -> (i32, String, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run_cli(&args, &mut out, &mut err);
        (
            code,
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        )
    }

    const PROGRAM: &str = "\
Well(id bigint, location point, arsenic double).\n\
@spatial(exp)\n\
IsSafe?(id bigint, location point).\n\
D1: IsSafe(W, L) = NULL :- Well(W, L, _).\n\
R1: @weight(0.8) IsSafe(W1, L1) => IsSafe(W2, L2) :- \
Well(W1, L1, A1), Well(W2, L2, A2) \
[distance(L1, L2) < 3, A1 < 0.3, A2 < 0.3, W1 != W2].\n";

    const WELLS: &str = "\
id,location,arsenic\n\
0,POINT(0 0),0.1\n\
1,POINT(1 0),0.1\n\
2,POINT(2 0),0.2\n\
3,POINT(9 0),0.9\n";

    #[test]
    fn validate_ok_and_errors() {
        let dir = tmpdir();
        let program = write_file(&dir, "ok.ddlog", PROGRAM);
        let (code, out, _) = run(&["validate", &program]);
        assert_eq!(code, 0);
        assert!(out.contains("2 relations, 2 rules"), "{out}");

        let broken = write_file(&dir, "broken.ddlog", "Well(id bigint");
        let (code, _, err) = run(&["validate", &broken]);
        assert_eq!(code, 1);
        assert!(err.contains("parse error"), "{err}");
    }

    #[test]
    fn translate_prints_stages() {
        let dir = tmpdir();
        let program = write_file(&dir, "t.ddlog", PROGRAM);
        let (code, out, _) = run(&["translate", &program]);
        assert_eq!(code, 0);
        assert!(out.contains("SPATIAL JOIN"), "{out}");
        assert!(out.contains("ST_Distance"), "{out}");
    }

    #[test]
    fn run_produces_scores_csv() {
        let dir = tmpdir();
        let program = write_file(&dir, "run.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells.csv", WELLS);
        let evidence = write_file(&dir, "ev.csv", "relation,id,value\nIsSafe,0,1\n");
        let (code, out, err) = run(&[
            "run",
            &program,
            "--table",
            &format!("Well={wells}"),
            "--evidence",
            &evidence,
            "--epochs",
            "300",
            "--bandwidth",
            "2",
            "--radius",
            "4",
        ]);
        assert_eq!(code, 0, "stderr: {err}");
        assert!(out.starts_with("relation,id,score"), "{out}");
        // 4 wells -> 4 scored atoms; evidence well reports 1.0.
        assert_eq!(out.lines().count(), 5, "{out}");
        assert!(out.contains("IsSafe,0,1.0000"), "{out}");
    }

    #[test]
    fn run_writes_geojson_and_output_files() {
        let dir = tmpdir();
        let program = write_file(&dir, "g.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells2.csv", WELLS);
        let out_csv = dir.join("scores.csv");
        let out_gj = dir.join("scores.json");
        let (code, _, err) = run(&[
            "run",
            &program,
            "--table",
            &format!("Well={wells}"),
            "--epochs",
            "100",
            "--output",
            out_csv.to_str().unwrap(),
            "--geojson",
            out_gj.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "stderr: {err}");
        let csv = std::fs::read_to_string(&out_csv).unwrap();
        assert!(csv.starts_with("relation,id,score"));
        let gj: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out_gj).unwrap()).unwrap();
        assert_eq!(gj["type"], "FeatureCollection");
    }

    #[test]
    fn stats_reports_graph_shape() {
        let dir = tmpdir();
        let program = write_file(&dir, "s.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells3.csv", WELLS);
        let (code, out, _) = run(&[
            "stats",
            &program,
            "--table",
            &format!("Well={wells}"),
            "--epochs",
            "10",
            "--radius",
            "4",
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("variables: 4"), "{out}");
        assert!(out.contains("spatial factors:"), "{out}");
    }

    #[test]
    fn broken_pipe_exits_cleanly() {
        struct Closed;
        impl std::io::Write for Closed {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let dir = tmpdir();
        let program = write_file(&dir, "bp.ddlog", PROGRAM);
        let mut err = Vec::new();
        let code = run_cli(
            &["translate".into(), program],
            &mut Closed,
            &mut err,
        );
        assert_eq!(code, 0, "stderr: {}", String::from_utf8_lossy(&err));
        assert!(err.is_empty());
    }

    #[test]
    fn out_of_domain_evidence_is_rejected_up_front() {
        let dir = tmpdir();
        let program = write_file(&dir, "ood.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_ood.csv", WELLS);
        // Value 7 is outside the binary domain: the run must refuse to
        // start rather than silently drop the observation.
        let evidence = write_file(&dir, "ev_ood.csv", "relation,id,value
IsSafe,0,7
");
        let (code, _, err) = run(&[
            "run",
            &program,
            "--table",
            &format!("Well={wells}"),
            "--evidence",
            &evidence,
            "--epochs",
            "50",
        ]);
        assert_eq!(code, 1, "stderr: {err}");
        assert!(err.contains("out of range"), "{err}");
        assert!(err.contains("row 2"), "{err}");
    }

    #[test]
    fn duplicate_and_undeclared_evidence_are_rejected() {
        let dir = tmpdir();
        let program = write_file(&dir, "dup.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_dup.csv", WELLS);
        let run_with = |evidence: &str| {
            run(&[
                "run",
                &program,
                "--table",
                &format!("Well={wells}"),
                "--evidence",
                evidence,
                "--epochs",
                "50",
            ])
        };
        // The same atom observed twice (even consistently) is a data bug.
        let dup = write_file(&dir, "ev_dup.csv", "relation,id,value\nIsSafe,0,1\nIsSafe,0,1\n");
        let (code, _, err) = run_with(&dup);
        assert_eq!(code, 1);
        assert!(err.contains("duplicate evidence"), "{err}");
        // Evidence for a relation the program never declares.
        let unk = write_file(&dir, "ev_unk.csv", "relation,id,value\nNope,0,1\n");
        let (code, _, err) = run_with(&unk);
        assert_eq!(code, 1);
        assert!(err.contains("undeclared relation"), "{err}");
        // Evidence for an input (non-variable) relation.
        let inp = write_file(&dir, "ev_inp.csv", "relation,id,value\nWell,0,1\n");
        let (code, _, err) = run_with(&inp);
        assert_eq!(code, 1);
        assert!(err.contains("input relation"), "{err}");
    }

    #[test]
    fn duplicate_table_flag_is_rejected() {
        let dir = tmpdir();
        let program = write_file(&dir, "dt.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_dt.csv", WELLS);
        let spec = format!("Well={wells}");
        let (code, _, err) =
            run(&["run", &program, "--table", &spec, "--table", &spec, "--epochs", "10"]);
        assert_eq!(code, 1);
        assert!(err.contains("duplicate --table"), "{err}");
    }

    #[test]
    fn resume_requires_a_checkpoint_dir() {
        let dir = tmpdir();
        let program = write_file(&dir, "rr.ddlog", PROGRAM);
        let (code, _, err) = run(&["run", &program, "--resume"]);
        assert_eq!(code, 1);
        assert!(err.contains("--resume requires --checkpoint-dir"), "{err}");
    }

    #[test]
    fn checkpointed_cli_run_resumes_with_identical_scores() {
        let dir = tmpdir();
        let program = write_file(&dir, "ck.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_ck.csv", WELLS);
        let ckpt_dir = dir.join("cli_ckpts");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let base = [
            "run".to_owned(),
            program.clone(),
            "--table".to_owned(),
            format!("Well={wells}"),
            "--engine".to_owned(),
            "deepdive".to_owned(),
            "--epochs".to_owned(),
            "60".to_owned(),
            "--checkpoint-dir".to_owned(),
            ckpt_dir.to_string_lossy().into_owned(),
            "--checkpoint-every".to_owned(),
            "10".to_owned(),
        ];
        let base: Vec<&str> = base.iter().map(String::as_str).collect();
        let (code, out1, err) = run(&base);
        assert_eq!(code, 0, "stderr: {err}");
        assert!(ckpt_dir.join("factor-graph.json").exists());
        // A resumed run of the finished job replays nothing and prints
        // the exact same scores.
        let mut resumed = base.clone();
        resumed.push("--resume");
        let (code, out2, err) = run(&resumed);
        assert_eq!(code, 0, "stderr: {err}");
        assert_eq!(out1, out2);
        std::fs::remove_dir_all(&ckpt_dir).ok();
    }

    #[test]
    fn timeout_yields_partial_scores_and_reports_outcome() {
        let dir = tmpdir();
        let program = write_file(&dir, "to.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_to.csv", WELLS);
        // A zero deadline with a huge epoch budget: the run must still
        // succeed, emit a score for every well, and report timed-out.
        let (code, out, err) = run(&[
            "run",
            &program,
            "--table",
            &format!("Well={wells}"),
            "--epochs",
            "100000000",
            "--timeout",
            "0",
            "--radius",
            "4",
        ]);
        assert_eq!(code, 0, "stderr: {err}");
        assert!(out.starts_with("relation,id,score"), "{out}");
        assert_eq!(out.lines().count(), 5, "{out}");
        assert!(err.contains("run outcome: timed-out"), "{err}");
    }

    #[test]
    fn max_factors_budget_fails_fast() {
        let dir = tmpdir();
        let program = write_file(&dir, "mf.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_mf.csv", WELLS);
        let (code, _, err) = run(&[
            "run",
            &program,
            "--table",
            &format!("Well={wells}"),
            "--epochs",
            "50",
            "--radius",
            "4",
            "--max-factors",
            "1",
        ]);
        assert_eq!(code, 1);
        assert!(err.contains("budget exceeded"), "{err}");
    }

    #[test]
    fn stats_reports_outcome() {
        let dir = tmpdir();
        let program = write_file(&dir, "so.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_so.csv", WELLS);
        let (code, out, _) = run(&[
            "stats",
            &program,
            "--table",
            &format!("Well={wells}"),
            "--epochs",
            "10",
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("outcome: completed"), "{out}");
    }

    #[test]
    fn run_emits_metrics_json_and_jsonl_trace() {
        let dir = tmpdir();
        let program = write_file(&dir, "obs.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_obs.csv", WELLS);
        let metrics = dir.join("m.json");
        let trace = dir.join("t.jsonl");
        let (code, out, err) = run(&[
            "run",
            &program,
            "--table",
            &format!("Well={wells}"),
            "--epochs",
            "60",
            "--radius",
            "4",
            "--trace",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "stderr: {err}");
        assert!(out.contains("wrote "), "{out}");

        let m: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert_eq!(m["schema"], "sya.metrics.v1");
        assert!(m["gauges"]["phase.grounding_seconds"].is_number(), "{m:?}");
        assert!(m["gauges"]["phase.inference_seconds"].is_number(), "{m:?}");
        assert!(m["gauges"]["infer.concliques"].is_number(), "{m:?}");
        assert!(m["counters"]["ground.logical_factors_total"].is_number(), "{m:?}");
        assert!(m["counters"]["ground.spatial_factors_total"].is_number(), "{m:?}");
        assert!(m["counters"]["ground.pruned_pairs_total"].is_number(), "{m:?}");
        // Per-epoch convergence series from the spatial sampler.
        assert!(m["series"]["infer.spatial.flip_rate"].is_array(), "{m:?}");
        assert!(m["series"]["infer.spatial.marginal_delta"].is_array(), "{m:?}");

        // Every trace line is a JSON record; rule spans nest under the
        // grounding phase span.
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        let mut saw_nested_rule = false;
        for line in jsonl.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            if v["name"] == "ground.rule" {
                saw_nested_rule = v["parent"].is_number();
            }
        }
        assert!(saw_nested_rule, "{jsonl}");

        // --trace renders the indented tree on stderr.
        assert!(err.contains("pipeline.ground "), "{err}");
        assert!(err.contains("  ground.rule "), "{err}");
    }

    #[test]
    fn metrics_out_prom_writes_prometheus_text() {
        let dir = tmpdir();
        let program = write_file(&dir, "prom.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_prom.csv", WELLS);
        let prom = dir.join("m.prom");
        let (code, _, err) = run(&[
            "stats",
            &program,
            "--table",
            &format!("Well={wells}"),
            "--epochs",
            "20",
            "--metrics-out",
            prom.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "stderr: {err}");
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE sya_phase_grounding_seconds gauge"), "{text}");
        assert!(text.contains("sya_ground_logical_factors_total"), "{text}");
    }

    #[test]
    fn diagnostics_keep_stderr_format_and_become_events() {
        let dir = tmpdir();
        let program = write_file(&dir, "ev.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_ev.csv", WELLS);
        let trace = dir.join("t2.jsonl");
        let (code, _, err) = run(&[
            "run",
            &program,
            "--table",
            &format!("Well={wells}"),
            "--epochs",
            "100000000",
            "--timeout",
            "0",
            "--radius",
            "4",
            "--trace-out",
            trace.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "stderr: {err}");
        // The stderr contract is unchanged...
        assert!(err.contains("run outcome: timed-out"), "{err}");
        // ...and the same diagnostics are severity-tagged trace events.
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        let mut severities = Vec::new();
        for line in jsonl.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            if v["type"] == "event" {
                severities.push(v["severity"].as_str().unwrap_or_default().to_owned());
                if v["severity"] == "info" {
                    assert!(
                        v["message"].as_str().unwrap_or_default().starts_with("run outcome"),
                        "{v:?}"
                    );
                }
            }
        }
        assert!(severities.iter().any(|s| s == "info"), "{jsonl}");
        assert!(severities.iter().any(|s| s == "debug"), "{jsonl}");
    }

    #[test]
    fn sharded_run_reproduces_the_unsharded_scores_exactly() {
        let dir = tmpdir();
        let program = write_file(&dir, "sh.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_sh.csv", WELLS);
        let base = |shards: &str| {
            run(&[
                "run",
                &program,
                "--table",
                &format!("Well={wells}"),
                "--epochs",
                "200",
                "--bandwidth",
                "2",
                "--radius",
                "4",
                "--shards",
                shards,
                "--partition-level",
                "2",
            ])
        };
        let (code, reference, err) = base("1");
        assert_eq!(code, 0, "stderr: {err}");
        let (code, sharded, err) = base("2");
        assert_eq!(code, 0, "stderr: {err}");
        assert_eq!(reference, sharded, "--shards 2 must match --shards 1");

        // Sharding is a spatial-sampler feature.
        let (code, _, err) = run(&[
            "run",
            &program,
            "--table",
            &format!("Well={wells}"),
            "--engine",
            "deepdive",
            "--epochs",
            "20",
            "--shards",
            "2",
        ]);
        assert_eq!(code, 1);
        assert!(err.contains("configuration error"), "{err}");
    }

    #[test]
    fn query_answers_one_bound_marginal_as_json() {
        let dir = tmpdir();
        let program = write_file(&dir, "q.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_q.csv", WELLS);
        let (code, out, err) = run(&[
            "query",
            &program,
            "--table",
            &format!("Well={wells}"),
            "--relation",
            "IsSafe",
            "--id",
            "1",
            "--bandwidth",
            "2",
            "--radius",
            "4",
        ]);
        assert_eq!(code, 0, "stderr: {err}");
        let v: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(v["relation"], "IsSafe");
        assert_eq!(v["id"], 1);
        let score = v["score"].as_f64().unwrap();
        assert!((0.0..=1.0).contains(&score), "{v}");
        assert_eq!(v["evidence"], serde_json::Value::Null);
        assert_eq!(v["outcome"], "completed");
        // Well 1 sits in a 3-well cluster: the neighborhood is larger
        // than the seed but never the whole KB's 4 wells + isolated 3.
        assert!(v["stats"]["variables"].as_u64().unwrap() >= 2, "{v}");
        assert_eq!(v["stats"]["sampled"], true);
    }

    #[test]
    fn query_reports_evidence_atoms_without_sampling() {
        let dir = tmpdir();
        let program = write_file(&dir, "qe.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_qe.csv", WELLS);
        let evidence = write_file(&dir, "ev_qe.csv", "relation,id,value\nIsSafe,0,1\n");
        let (code, out, err) = run(&[
            "query",
            &program,
            "--table",
            &format!("Well={wells}"),
            "--evidence",
            &evidence,
            "--relation",
            "IsSafe",
            "--id",
            "0",
            "--radius",
            "4",
        ]);
        assert_eq!(code, 0, "stderr: {err}");
        let v: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(v["score"].as_f64(), Some(1.0));
        assert_eq!(v["evidence"].as_u64(), Some(1));
        assert_eq!(v["stats"]["sampled"], false);
    }

    #[test]
    fn query_flag_and_atom_errors() {
        let dir = tmpdir();
        let program = write_file(&dir, "qerr.ddlog", PROGRAM);
        let wells = write_file(&dir, "wells_qerr.csv", WELLS);
        let table = format!("Well={wells}");

        let (code, _, err) = run(&["query", &program, "--table", &table, "--id", "1"]);
        assert_eq!(code, 1);
        assert!(err.contains("requires --relation"), "{err}");

        let (code, _, err) =
            run(&["query", &program, "--table", &table, "--relation", "IsSafe"]);
        assert_eq!(code, 1);
        assert!(err.contains("requires --id"), "{err}");

        // An id no rule derives is an error, not a silent 0.5.
        let (code, _, err) = run(&[
            "query", &program, "--table", &table, "--relation", "IsSafe", "--id", "99",
            "--radius", "4",
        ]);
        assert_eq!(code, 1);
        assert!(err.contains("no ground atom"), "{err}");
    }

    #[test]
    fn lazy_flag_rejects_sharding_and_checkpointing() {
        let dir = tmpdir();
        let program = write_file(&dir, "lz.ddlog", PROGRAM);
        let (code, _, err) = run(&["serve", &program, "--lazy", "--shards", "2"]);
        assert_eq!(code, 1);
        assert!(err.contains("--lazy is incompatible with --shards"), "{err}");
        let (code, _, err) =
            run(&["serve", &program, "--lazy", "--checkpoint-dir", "/tmp/nope"]);
        assert_eq!(code, 1);
        assert!(err.contains("incompatible with checkpointing"), "{err}");
    }

    #[test]
    fn helpful_errors() {
        let (code, _, err) = run(&["bogus"]);
        assert_eq!(code, 1);
        assert!(err.contains("unknown command"));
        let (code, _, err) = run(&["run"]);
        assert_eq!(code, 1);
        assert!(err.contains("missing program"));
        let dir = tmpdir();
        let program = write_file(&dir, "e.ddlog", PROGRAM);
        let (code, _, err) = run(&["run", &program, "--table", "Nope=missing.csv"]);
        assert_eq!(code, 1);
        assert!(err.contains("no relation"), "{err}");
        let (code, _, err) = run(&["run", &program, "--engine", "magic"]);
        assert_eq!(code, 1);
        assert!(err.contains("unknown engine"), "{err}");
    }
}
