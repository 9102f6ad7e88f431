//! `serve_mixed` and `serve_rows`: an in-process `SyaServer` over a
//! live 3,000-well knowledge base, driven over loopback HTTP.
//!
//! `serve_mixed` is an open loop: `GET /v1/marginal` at a fixed rate
//! (uniform over the query atoms) beside one single-row `POST /v1/rows`
//! every few seconds, inserting a synthetic well and retracting it on
//! the next turn. A read is a hash lookup; a write is delta grounding
//! plus a warm conclique-restricted chain under the KB write lock, so
//! the read tail is the write. Its operation is the read.
//!
//! `serve_rows` is a closed loop of the same writes from one client,
//! back to back. Its operation is the write.
//!
//! Both generate load from this process with at most two threads and
//! connections: the box has two cores and the server needs one.

use super::{ms, named, repeat_setup, EndToEnd, RunArgs, Tally};
use crate::data::{binary_config, gwdb_inputs, Inputs, Rng, Scale, RELATION};
use crate::http::{self, Reply};
use crate::loadgen::{run_open_loop, Due, Sent};
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::Tracer;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use sya_core::SyaSession;
use sya_obs::Obs;
use sya_serve::{ServeConfig, ServingKb, SyaServer};

/// Generator threads, and so connections at a time.
const GENERATORS: usize = 2;
/// Sites `serve_rows` cycles through; a run makes about as many inserts.
const ROWS_SITES: usize = 16;
/// Ids of the synthetic wells, far above the generated id space. The
/// seed is folded in so two phases on one server never share an id.
fn first_new_id(seed: u64) -> i64 {
    900_000 + (seed % 1000) as i64 * 100_000
}

struct Live {
    server: SyaServer,
    addr: SocketAddr,
    inputs: Inputs,
}

/// Everything `sya serve --live` does before it accepts: load the
/// tables, construct the KB, start the server on an ephemeral port.
fn start(scale: &Scale, seed: u64) -> Result<Live, String> {
    let inputs = gwdb_inputs(scale.serve_wells, false, seed);
    let d = &inputs.dataset;
    let obs = Obs::enabled();
    let session = SyaSession::new_with_obs(
        &d.program,
        d.constants.clone(),
        d.metric,
        binary_config(scale.epochs, seed),
        obs.clone(),
    )
    .map_err(|e| format!("the GWDB program does not compile: {e}"))?;
    let mut db = d.db.clone();
    let kb = session
        .construct(&mut db, &d.evidence_fn())
        .map_err(|e| format!("cannot construct the served KB: {e}"))?;
    let state = ServingKb::with_live(session, kb, db, inputs.evidence_by_atom(), obs)
        .map_err(|e| format!("cannot serve the KB: {e}"))?;
    let config = ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    };
    let server =
        SyaServer::start(state, config).map_err(|e| format!("cannot start the server: {e}"))?;
    let addr = server.local_addr();
    Ok(Live {
        server,
        addr,
        inputs,
    })
}

fn stop(live: Live) -> Result<(), String> {
    live.server
        .shutdown(Duration::from_secs(10))
        .map_err(|e| format!("server shutdown: {e}"))
}

/// A synthetic well, placed beside an existing query well.
#[derive(Debug, Clone)]
struct NewWell {
    id: i64,
    x: f64,
    y: f64,
}

/// `n` wells to insert. What a write costs depends on where it lands
/// (how many cells and factors it touches), several-fold over the
/// field, and a run makes few writes; so the sites are fixed by the
/// tables — beside every k-th query well, spread over the whole field —
/// and the seed draws their order and a sub-mile offset.
fn new_wells(inputs: &Inputs, seed: u64, n: usize) -> Vec<NewWell> {
    let mut rng = Rng::new(seed ^ 0x3E11);
    let mut wells: Vec<NewWell> = (0..n)
        .map(|k| {
            let near = inputs.query_ids[(2 * k + 1) * inputs.query_ids.len() / (2 * n)];
            let p = inputs.dataset.locations[&near];
            NewWell {
                id: 0,
                x: p.x + 0.5 + 0.4 * rng.unit(),
                y: p.y + 0.5 + 0.4 * rng.unit(),
            }
        })
        .collect();
    rng.shuffle(&mut wells);
    for (k, well) in wells.iter_mut().enumerate() {
        well.id = first_new_id(seed) + k as i64;
    }
    wells
}

#[derive(Debug, Clone)]
enum Ask {
    Read(i64),
    Write { insert: bool, well: NewWell },
}

/// One request as answered, with the read that checks a write.
struct Answer {
    reply: Result<Reply, String>,
    /// After a write: `GET` of the synthetic well.
    verify: Option<Result<Reply, String>>,
}

fn marginal_path(id: i64) -> String {
    format!("/v1/marginal/{RELATION}?args={id}")
}

/// Sends one request; with a tracer, records the client's view of it.
fn send(addr: SocketAddr, ask: &Ask, tracer: Option<(&Tracer, &AtomicU64)>) -> Answer {
    let (name, reply, verify) = match ask {
        Ask::Read(id) => ("serve.marginal", http::get(addr, &marginal_path(*id)), None),
        Ask::Write { insert, well } => {
            let body = format!(
                "{{\"updates\":[{{\"op\":\"{}\",\"relation\":\"Well\",\
                 \"row\":[{},{{\"x\":{},\"y\":{}}},0.05,0.1]}}]}}",
                if *insert { "insert" } else { "retract" },
                well.id,
                well.x,
                well.y
            );
            let reply = http::post_json(addr, "/v1/rows", &body);
            (
                "serve.rows",
                reply,
                Some(http::get(addr, &marginal_path(well.id))),
            )
        }
    };
    if let (Some((tracer, ops)), Ok(r)) = (tracer, &reply) {
        // Relaxed: the counter only hands out ids.
        let op = ops.fetch_add(1, Ordering::Relaxed);
        let root = tracer.record(name, op, None, r.started, r.ended);
        tracer.record("http.connect", op, Some(root), r.started, r.connected);
        tracer.record("http.first_byte", op, Some(root), r.connected, r.first_byte);
        tracer.record("http.body", op, Some(root), r.first_byte, r.ended);
    }
    Answer { reply, verify }
}

/// What the checks and the per-layer metrics need from a run.
#[derive(Default)]
struct Observed {
    /// Read latency from the due instant, ms.
    reads_ms: Vec<f64>,
    /// Write latency from the due instant, ms.
    writes_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    /// Request start to first byte, reads only, ms.
    ttfb_ms: Vec<f64>,
    /// Connected to first byte, every request, ms: what the server's
    /// own clock (started at dequeue) plus the wait before it covers.
    server_side_ms: Vec<f64>,
    /// Generator lag of reads not due during a write, ms.
    lag_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    infer_ms: Vec<f64>,
    resampled: Vec<f64>,
    factors_added: Vec<f64>,
    /// First due instant to last byte, seconds.
    span_s: f64,
}

fn score_of(reply: &Reply) -> Option<f64> {
    reply
        .json()
        .and_then(|j| j["score"].as_f64())
        .filter(|s| (0.0..=1.0).contains(s))
}

/// Checks every answer and sorts the timings out.
fn observe(asks: &[Ask], sent: &[Sent<Answer>], tally: &mut Tally) -> Observed {
    let mut o = Observed::default();
    // A write holds the KB lock, so reads due while it runs wait, and
    // the backlog they leave takes about as long again to drain. (A
    // write ends with its reply; its checking read is extra.)
    let stalls: Vec<(Instant, Instant)> = sent
        .iter()
        .filter(|s| matches!(asks[s.index], Ask::Write { .. }))
        .filter_map(|s| {
            s.result
                .reply
                .as_ref()
                .ok()
                .map(|r| (s.started, r.ended + (r.ended - s.started)))
        })
        .collect();
    let mut epoch = 0;
    for s in sent {
        let reply = match &s.result.reply {
            Ok(reply) => reply,
            Err(e) => {
                tally.check(false, || format!("{:?}: {e}", asks[s.index]));
                continue;
            }
        };
        let latency = ms(reply.ended.saturating_duration_since(s.due));
        o.server_side_ms
            .push(ms(reply.first_byte.duration_since(reply.connected)));
        match &asks[s.index] {
            Ask::Read(id) => {
                tally.check(score_of(reply).is_some(), || {
                    format!(
                        "GET {RELATION}({id}): status {} body {}",
                        reply.status, reply.body
                    )
                });
                o.reads_ms.push(latency);
                o.connect_ms
                    .push(ms(reply.connected.duration_since(reply.started)));
                o.ttfb_ms
                    .push(ms(reply.first_byte.duration_since(reply.started)));
                if !stalls
                    .iter()
                    .any(|&(from, to)| s.due >= from && s.due <= to)
                {
                    o.lag_ms.push(ms(s.lag()));
                }
            }
            Ask::Write { insert, well } => {
                let json = reply.json();
                let bumped = json
                    .as_ref()
                    .and_then(|j| j["epoch"].as_u64())
                    .filter(|&e| e > epoch);
                tally.check(bumped.is_some(), || {
                    format!(
                        "POST /v1/rows for well {}: status {} body {}",
                        well.id, reply.status, reply.body
                    )
                });
                epoch = bumped.unwrap_or(epoch);
                o.writes_ms.push(latency);
                if let Some(j) = &json {
                    let field = |key: &str| j[key].as_f64().unwrap_or(0.0);
                    o.apply_ms.push(field("apply_seconds") * 1e3);
                    o.infer_ms.push(field("infer_seconds") * 1e3);
                    o.resampled.push(field("resampled"));
                    o.factors_added
                        .push(field("factors_added") + field("spatial_factors_added"));
                }
                // An inserted well is queryable; a retracted one is gone.
                let verified = match &s.result.verify {
                    Some(Ok(v)) if *insert => score_of(v).is_some(),
                    Some(Ok(v)) => v.status == 404,
                    _ => false,
                };
                tally.check(verified, || {
                    let seen = s
                        .result
                        .verify
                        .as_ref()
                        .map(|v| v.as_ref().map(|r| r.status));
                    format!(
                        "well {} after {}: {seen:?}",
                        well.id,
                        if *insert { "insert" } else { "retract" }
                    )
                });
                if let Some(Ok(v)) = &s.result.verify {
                    o.server_side_ms
                        .push(ms(v.first_byte.duration_since(v.connected)));
                }
            }
        }
    }
    if let (Some(first), Some(last)) = (sent.first(), sent.iter().map(|s| s.ended).max()) {
        o.span_s = last.saturating_duration_since(first.due).as_secs_f64();
    }
    o
}

/// The open-loop schedule of `serve_mixed`: reads at `read_rps`, a
/// write every `write_every_s` (insert, then retract of the same well).
fn mixed_schedule(inputs: &Inputs, scale: &Scale, seed: u64, seconds: f64) -> Vec<Due<Ask>> {
    let mut rng = Rng::new(seed ^ 0x5C4E);
    // One read per 1/rate slot, at a random instant within it. Evenly
    // spaced reads at 100 rps would beat against the acceptor's 10 ms
    // poll, and each run would measure the phase it happened to start
    // in; fully random arrivals would bunch, and two connections would
    // then measure their own queue.
    let reads = (seconds * scale.read_rps) as usize;
    let mut schedule: Vec<Due<Ask>> = (0..reads)
        .map(|i| Due {
            at: Duration::from_secs_f64((i as f64 + rng.unit()) / scale.read_rps),
            what: Ask::Read(inputs.query_ids[rng.below(inputs.query_ids.len())]),
        })
        .collect();
    let writes = (seconds / scale.write_every_s) as usize;
    let wells = new_wells(inputs, seed, writes.div_ceil(2));
    schedule.extend((0..writes).map(|k| Due {
        // Half a period in, so a write never coincides with the start.
        at: Duration::from_secs_f64((k as f64 + 0.5) * scale.write_every_s),
        what: Ask::Write {
            insert: k % 2 == 0,
            well: wells[k / 2].clone(),
        },
    }));
    schedule.sort_by_key(|d| d.at);
    schedule
}

fn run_mixed(
    live: &Live,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> (Observed, f64) {
    let schedule = mixed_schedule(&live.inputs, scale, seed, seconds);
    let ops = AtomicU64::new(0);
    let sent = run_open_loop(&schedule, GENERATORS, |ask| {
        send(live.addr, ask, tracer.map(|t| (t, &ops)))
    });
    let asks: Vec<Ask> = schedule.into_iter().map(|d| d.what).collect();
    let offered = asks.iter().filter(|a| matches!(a, Ask::Read(_))).count() as f64 / seconds;
    (observe(&asks, &sent, tally), offered)
}

/// The closed loop of `serve_rows`: one client, write after write,
/// each timed from when it was sent.
fn run_rows(
    live: &Live,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Observed {
    let budget = Duration::from_secs_f64(seconds);
    let ops = AtomicU64::new(0);
    let wells = new_wells(&live.inputs, seed, ROWS_SITES);
    let (mut asks, mut sent) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget {
        let well = wells[(asks.len() / 2) % wells.len()].clone();
        // Always retract what was inserted, whatever the clock says.
        for insert in [true, false] {
            let ask = Ask::Write {
                insert,
                well: well.clone(),
            };
            let started = Instant::now();
            let result = send(live.addr, &ask, tracer.map(|t| (t, &ops)));
            // The write ends with its reply; the checking read is extra.
            let ended = result
                .reply
                .as_ref()
                .map_or_else(|_| Instant::now(), |r| r.ended);
            sent.push(Sent {
                index: asks.len(),
                due: started,
                started,
                ended,
                result,
            });
            asks.push(ask);
        }
    }
    observe(&asks, &sent, tally)
}

pub(super) fn end_to_end(
    mixed: bool,
    args: &RunArgs,
    scale: &Scale,
    tally: &mut Tally,
) -> Result<EndToEnd, String> {
    // Three times over, stopping all but the last.
    let (live, setups_s) = repeat_setup(3, || start(scale, args.seed), stop)?;
    let ops_ms = if mixed {
        let (o, offered) = run_mixed(&live, scale, args.seed, args.seconds, None, tally);
        report_lag(&args.workload, &o, offered);
        o.reads_ms
    } else {
        run_rows(&live, args.seed, args.seconds, None, tally).writes_ms
    };
    stop(live)?;
    Ok(EndToEnd { setups_s, ops_ms })
}

/// A generator that runs late outside the write stalls did not offer
/// the load it claims; say so.
fn report_lag(workload: &str, o: &Observed, offered_rps: f64) -> f64 {
    let lag_p99 = percentile(&sorted(o.lag_ms.clone()), 99.0);
    if lag_p99 > 20.0 {
        eprintln!(
            "{workload}: INVALID RUN: generator lag p99 {lag_p99:.1} ms outside write stalls \
             at {offered_rps:.0} rps offered"
        );
    }
    lag_p99
}

/// A value of the server's `/metrics` text by its Prometheus name.
fn scraped(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Half the time untraced, half traced with client spans; then the
/// server's own view off `/metrics`.
pub(super) fn traced(
    mixed: bool,
    args: &RunArgs,
    scale: &Scale,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Vec<(String, f64)>, String> {
    let live = start(scale, args.seed)?;
    let half = args.seconds / 2.0;
    let (before, o, offered) = if mixed {
        let (before, _) = run_mixed(&live, scale, args.seed, half, None, tally);
        let (o, offered) = run_mixed(&live, scale, args.seed ^ 1, half, Some(tracer), tally);
        (before, o, offered)
    } else {
        let before = run_rows(&live, args.seed, half, None, tally);
        (
            before,
            run_rows(&live, args.seed ^ 1, half, Some(tracer), tally),
            0.0,
        )
    };
    let metrics = http::get(live.addr, "/metrics").map(|r| r.body);
    stop(live)?;
    let metrics = metrics?;

    let handler_ms = match (
        scraped(&metrics, "sya_serve_request_seconds_sum"),
        scraped(&metrics, "sya_serve_request_seconds_count"),
    ) {
        (Some(sum), Some(count)) if count > 0.0 => sum / count * 1e3,
        _ => return Err("/metrics has no serve.request_seconds histogram".to_owned()),
    };
    let shed: f64 = ["queue_full", "deadline", "inflight"]
        .iter()
        .filter_map(|why| scraped(&metrics, &format!("sya_serve_admission_shed_{why}_total")))
        .fold(0.0, |total, n| total + n);
    // The server's clock covers both phases, so compare it with the
    // client's view of both.
    let server_side_ms = mean(&[before.server_side_ms.as_slice(), &o.server_side_ms].concat());
    let pick = |o: &Observed| median(if mixed { &o.reads_ms } else { &o.writes_ms });
    let mut out = named([
        ("serve.connect_ms_p50", median(&o.connect_ms)),
        ("serve.ttfb_ms_p50", median(&o.ttfb_ms)),
        ("serve.handler_ms_mean", handler_ms),
        ("serve.accept_queue_ms_mean", server_side_ms - handler_ms),
        ("serve.shed_total", shed),
        ("serve.marginal_ms_p50", median(&o.reads_ms)),
        ("serve.rows_ms_p50", median(&o.writes_ms)),
        ("delta.apply_ms_p50", median(&o.apply_ms)),
        ("delta.infer_ms_p50", median(&o.infer_ms)),
        ("delta.resampled_mean", mean(&o.resampled)),
        ("delta.factors_added_mean", mean(&o.factors_added)),
        ("trace.overhead_share", pick(&o) / pick(&before) - 1.0),
    ]);
    if mixed {
        out.extend(named([
            ("loadgen.offered_rps", offered),
            ("loadgen.achieved_rps", o.reads_ms.len() as f64 / o.span_s),
            (
                "loadgen.lag_p99_ms",
                report_lag(&args.workload, &o, offered),
            ),
        ]));
    }
    Ok(out)
}
