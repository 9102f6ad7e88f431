//! The HTTP server: a nonblocking acceptor polling the cancellation
//! token, a fixed worker-thread pool draining accepted connections from
//! a *bounded* queue, a shed-lane triage thread keeping the health
//! plane alive at saturation, an optional background checkpointer — all
//! joined under a deadline on shutdown so a leaked worker is an error,
//! not a mystery.
//!
//! Overload path (DESIGN.md §15): the acceptor claims a bounded
//! [`Ticket`](crate::admission::Ticket) per connection; overflow falls
//! to the shed lane, whose thread reads only the request *head* and
//! answers `GET /healthz` / `GET /metrics` while shedding everything
//! else with `503 + Retry-After` — before the body is ever read. At
//! dequeue, a ticket that waited out the request timeout is shed
//! without executing, and what remains of the deadline becomes the
//! socket timeouts and handler budget.

use crate::admission::{Admission, AdmissionConfig, Shed};
use crate::http::{read_request, HttpError, Request, Response};
use crate::state::{EvidenceUpdate, ServeState};
use crate::{ServeConfig, ServeError};
use serde_json::Value as Json;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sya_obs::Obs;
use sya_runtime::{CancellationToken, ExecContext};

/// How often the acceptor re-checks the cancellation token while no
/// connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Depth of the shed lane: enough for a scrape plus health probes to
/// queue behind a burst, small enough that triage stays instant.
const SHED_LANE_DEPTH: usize = 32;

/// Socket deadline for shed-lane triage and shed 503 writes: a client
/// too stalled to take a one-line rejection is simply dropped.
const SHED_IO_TIMEOUT: Duration = Duration::from_millis(250);

/// Overall wall-clock bound on the lingering-close drain.
/// [`SHED_IO_TIMEOUT`] is per-read *idle* time, so without this a
/// client dripping one byte per interval would pin the draining thread
/// indefinitely.
const SHED_DRAIN_DEADLINE: Duration = Duration::from_secs(1);

/// An accepted connection travelling the queue with its admission
/// ticket; dropping the pair (shutdown drains) releases the slot.
struct Pending {
    stream: TcpStream,
    ticket: crate::admission::Ticket,
}

/// A running server. Dropping it without calling
/// [`shutdown`](SyaServer::shutdown) leaves the threads running until
/// the process exits — always shut down explicitly.
pub struct SyaServer {
    addr: SocketAddr,
    token: CancellationToken,
    threads: Vec<(String, JoinHandle<()>)>,
    state: Arc<ServeState>,
    admission: Admission,
}

impl SyaServer {
    /// Binds `cfg.listen` (port 0 picks an ephemeral port) and starts
    /// the acceptor, `cfg.workers` request workers, and — when
    /// `cfg.checkpoint_refresh` is set — the background checkpointer.
    pub fn start(
        state: impl Into<ServeState>,
        cfg: ServeConfig,
    ) -> Result<SyaServer, ServeError> {
        Self::start_with_token(state, cfg, CancellationToken::new())
    }

    /// [`start`](Self::start) under a caller-owned token, so embedders
    /// (tests, the CLI's signal handler) can request shutdown.
    pub fn start_with_token(
        state: impl Into<ServeState>,
        cfg: ServeConfig,
        token: CancellationToken,
    ) -> Result<SyaServer, ServeError> {
        let listener = TcpListener::bind(&cfg.listen).map_err(ServeError::Bind)?;
        listener.set_nonblocking(true).map_err(ServeError::Bind)?;
        let addr = listener.local_addr().map_err(ServeError::Bind)?;
        let state = Arc::new(state.into());
        let admission = Admission::new(
            AdmissionConfig {
                max_queue: cfg.resolved_max_queue(),
                max_inflight: cfg.resolved_max_inflight(),
                shed_lane_depth: SHED_LANE_DEPTH,
                request_timeout: cfg.request_timeout,
            },
            state.obs().clone(),
        );
        let (tx, rx) = mpsc::channel::<Pending>();
        let (shed_tx, shed_rx) = mpsc::channel::<Pending>();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::new();
        state.obs().gauge_set("serve.workers_busy", 0.0);

        for i in 0..cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            let cfg = cfg.clone();
            let admission = admission.clone();
            let handle = std::thread::Builder::new()
                .name(format!("sya-serve-worker-{i}"))
                .spawn(move || {
                    // The loop ends when every sender is gone: the
                    // acceptor drops its channels on cancellation.
                    while let Ok(pending) = {
                        let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                        guard.recv()
                    } {
                        let Pending { mut stream, ticket } = pending;
                        let waited = ticket.waited();
                        drop(ticket); // dequeued: free the queue slot now
                        state.obs().gauge_add("serve.workers_busy", 1.0);
                        match admission.admit_waited(waited) {
                            Ok(budget) => {
                                handle_connection(&state, &cfg, &admission, stream, budget);
                            }
                            Err(shed) => {
                                // The client already waited out the whole
                                // deadline in the queue: executing now
                                // would burn a worker on an answer nobody
                                // is waiting for.
                                admission.count_shed(shed);
                                write_shed(state.obs(), &mut stream, shed);
                            }
                        }
                        state.obs().gauge_add("serve.workers_busy", -1.0);
                    }
                })
                .expect("spawn worker thread");
            threads.push((format!("worker-{i}"), handle));
        }

        {
            // Shed-lane triage: reads only the request head and keeps
            // the health plane (`/healthz`, `/metrics`) answering while
            // the main queue is full; everything else is shed.
            let state = Arc::clone(&state);
            let admission = admission.clone();
            let handle = std::thread::Builder::new()
                .name("sya-serve-shedder".into())
                .spawn(move || {
                    while let Ok(pending) = shed_rx.recv() {
                        let Pending { mut stream, ticket } = pending;
                        drop(ticket);
                        triage_connection(&state, &admission, &mut stream);
                    }
                })
                .expect("spawn shed thread");
            threads.push(("shedder".into(), handle));
        }

        {
            let token = token.clone();
            let obs = state.obs().clone();
            let admission = admission.clone();
            let handle = std::thread::Builder::new()
                .name("sya-serve-acceptor".into())
                .spawn(move || {
                    while !token.is_cancelled() {
                        match listener.accept() {
                            Ok((mut stream, _)) => {
                                obs.counter_add("serve.connections_total", 1);
                                match admission.try_enqueue() {
                                    Ok(ticket) => {
                                        if tx.send(Pending { stream, ticket }).is_err() {
                                            break;
                                        }
                                    }
                                    // Main queue full: the shed lane gets
                                    // a chance to answer health probes.
                                    Err(_) => match admission.try_enqueue_shed() {
                                        Ok(ticket) => {
                                            if shed_tx
                                                .send(Pending { stream, ticket })
                                                .is_err()
                                            {
                                                break;
                                            }
                                        }
                                        // Even the shed lane is full:
                                        // reject without reading a byte
                                        // and without the drain — the
                                        // singleton acceptor must not
                                        // block on a slow client while
                                        // sheds are raining.
                                        Err(shed) => {
                                            admission.count_shed(shed);
                                            write_shed_nodrain(&obs, &mut stream, shed);
                                        }
                                    },
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(ACCEPT_POLL);
                            }
                            Err(_) => std::thread::sleep(ACCEPT_POLL),
                        }
                    }
                    // Dropping `tx`/`shed_tx` here lets the workers and
                    // the shedder drain their queues and exit.
                })
                .expect("spawn acceptor thread");
            threads.push(("acceptor".into(), handle));
        }

        if let Some(period) = cfg.checkpoint_refresh {
            let token = token.clone();
            let state_bg = Arc::clone(&state);
            let handle = std::thread::Builder::new()
                .name("sya-serve-ckpt".into())
                .spawn(move || {
                    let mut last = Instant::now();
                    while !token.is_cancelled() {
                        std::thread::sleep(ACCEPT_POLL.min(period));
                        if last.elapsed() < period {
                            continue;
                        }
                        last = Instant::now();
                        if let Err(e) = state_bg.checkpoint_now() {
                            state_bg.obs().error(format!("background checkpoint failed: {e}"));
                        }
                    }
                    // Final save on the way out, so a graceful stop
                    // never loses the last evidence updates.
                    if let Err(e) = state_bg.checkpoint_now() {
                        state_bg.obs().error(format!("shutdown checkpoint failed: {e}"));
                    }
                })
                .expect("spawn checkpoint thread");
            threads.push(("checkpointer".into(), handle));
        }

        Ok(SyaServer { addr, token, threads, state, admission })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clone of the server's cancellation token; cancelling it starts
    /// a graceful shutdown.
    pub fn token(&self) -> CancellationToken {
        self.token.clone()
    }

    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// The server's admission state machine — live queue/in-flight
    /// occupancy, for tests and embedders.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Cancels the token and joins every thread under `deadline`. An
    /// error names the threads still alive — the worker-leak assertion
    /// the acceptance criteria demand.
    pub fn shutdown(self, deadline: Duration) -> Result<(), ServeError> {
        self.token.cancel();
        let start = Instant::now();
        let mut pending = self.threads;
        while !pending.is_empty() && start.elapsed() < deadline {
            pending.retain(|(_, h)| !h.is_finished());
            if pending.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !pending.is_empty() {
            return Err(ServeError::ShutdownTimeout {
                alive: pending.into_iter().map(|(name, _)| name).collect(),
            });
        }
        Ok(())
    }
}

/// Writes `response`, counting a stalled reader against
/// `serve.write_timeout_total` — a dead-slow client must cost a
/// bounded write deadline, not a pinned worker.
fn write_response(obs: &Obs, stream: &mut TcpStream, response: &Response) {
    if let Err(e) = response.write_to(stream) {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                obs.counter_add("serve.write_timeout_total", 1);
            }
            _ => {
                obs.counter_add("serve.socket_errors_total", 1);
            }
        }
    }
}

/// Best-effort shed rejection for the *acceptor* path: `503 +
/// Retry-After` under a short write deadline, no lingering-close
/// drain. The acceptor is a singleton, and it sheds inline exactly
/// when both queues are full — blocking it on a slow client's drain
/// there would collapse accept throughput at the very moment this
/// path exists for. The write itself lands in the empty send buffer
/// of a fresh connection, so it effectively never blocks; the cost is
/// that a client still mid-send may see a TCP reset instead of the
/// 503, which is the accepted trade on this path.
fn write_shed_nodrain(obs: &Obs, stream: &mut TcpStream, shed: Shed) {
    let _ = stream.set_write_timeout(Some(SHED_IO_TIMEOUT));
    let response =
        Response::error(503, shed.reason()).with_retry_after(RETRY_AFTER_SECONDS);
    write_response(obs, stream, &response);
}

/// The full shed rejection for worker/shedder threads: the 503 write,
/// then a lingering close (FIN + bounded drain of whatever the client
/// was still sending), so the rejection reaches the client instead of
/// being torn down by a reset for unread request bytes. The drain is
/// bounded both in bytes and in wall-clock ([`SHED_DRAIN_DEADLINE`]) —
/// the per-read timeout alone only bounds *idle* gaps.
fn write_shed(obs: &Obs, stream: &mut TcpStream, shed: Shed) {
    write_shed_nodrain(obs, stream, shed);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(SHED_IO_TIMEOUT));
    let deadline = Instant::now() + SHED_DRAIN_DEADLINE;
    let mut chunk = [0u8; 4096];
    let mut budget = 64 * 1024usize;
    while budget > 0 && Instant::now() < deadline {
        match std::io::Read::read(stream, &mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// Shed-lane triage: reads only the request *head* (zero body budget),
/// answers cheap `GET /healthz` / `GET /metrics` so the health plane
/// survives saturation, and sheds everything else.
fn triage_connection(state: &Arc<ServeState>, admission: &Admission, stream: &mut TcpStream) {
    let obs = state.obs().clone();
    let _ = stream.set_read_timeout(Some(SHED_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SHED_IO_TIMEOUT));
    match read_request(stream, 0) {
        Ok(req) if req.method == "GET" && req.path == "/healthz" => {
            obs.counter_add("serve.requests_total", 1);
            obs.counter_add("serve.healthz_requests_total", 1);
            write_response(&obs, stream, &healthz(state));
        }
        Ok(req) if req.method == "GET" && req.path == "/metrics" => {
            obs.counter_add("serve.requests_total", 1);
            obs.counter_add("serve.metrics_requests_total", 1);
            let body = sya_obs::export::render_prometheus(&state.obs().metrics_snapshot());
            write_response(&obs, stream, &Response::text(200, body));
        }
        // Anything expensive — including POSTs whose Content-Length
        // alone trips the zero body budget (`TooLarge`) — is shed.
        Ok(_) | Err(HttpError::TooLarge(_)) | Err(HttpError::BadRequest(_)) => {
            admission.count_shed(Shed::QueueFull);
            write_shed(&obs, stream, Shed::QueueFull);
        }
        Err(HttpError::Timeout) => {
            admission.count_shed(Shed::QueueFull);
            write_shed(&obs, stream, Shed::QueueFull);
        }
        // Socket gone: nothing sensible to send.
        Err(HttpError::Io(_)) => {
            obs.counter_add("serve.socket_errors_total", 1);
        }
    }
}

/// Serves one connection: one request, one response, close. `budget` is
/// what remains of the request deadline after queue wait — it bounds
/// the socket reads, the handler's `ExecContext`, and the response
/// write.
fn handle_connection(
    state: &Arc<ServeState>,
    cfg: &ServeConfig,
    admission: &Admission,
    mut stream: TcpStream,
    budget: Duration,
) {
    let _ = stream.set_read_timeout(Some(budget));
    let _ = stream.set_write_timeout(Some(budget));
    let started = Instant::now();
    let obs = state.obs().clone();
    // Held across the *response write* too, not just the handler: a
    // slow reader stalling `write_response` for the remaining request
    // budget is still occupying this request's concurrency slot, so
    // the guard lives in the function scope and drops after the write.
    let mut _inflight = None;
    let (endpoint, response) = match read_request(&mut stream, cfg.max_body_bytes) {
        Ok(req) => {
            let endpoint = endpoint_of(&req);
            // The in-flight gate bounds expensive work; the health
            // plane (`/healthz`, `/metrics`) bypasses it so saturation
            // stays observable.
            if !matches!(endpoint, "healthz" | "metrics") {
                match admission.try_begin() {
                    Ok(guard) => _inflight = Some(guard),
                    Err(shed) => {
                        admission.count_shed(shed);
                        obs.counter_add("serve.requests_total", 1);
                        obs.counter_add(&format!("serve.{endpoint}_requests_total"), 1);
                        obs.counter_add("serve.errors_total", 1);
                        write_shed(&obs, &mut stream, shed);
                        return;
                    }
                }
            }
            // Per-request deadline via the runtime's budget machinery:
            // the handler checks the context between stages and turns an
            // expired deadline into a 503 instead of a hung socket. The
            // state's own resource budget (lazy mode's grounding caps)
            // rides under the same context.
            let ctx = ExecContext::new(state.request_budget().with_deadline(budget))
                .with_obs(obs.clone());
            let mut span = obs.span_with(
                "serve.request",
                vec![("endpoint".into(), endpoint.to_owned())],
            );
            let response = route(state, &ctx, &req);
            span.set_attr("status", response.status);
            (endpoint, response)
        }
        Err(HttpError::TooLarge(n)) => {
            ("bad", Response::error(413, &format!("request body of {n} bytes is too large")))
        }
        Err(HttpError::BadRequest(msg)) => ("bad", Response::error(400, &msg)),
        // Slow-loris / stalled sender: tell the client it was too slow.
        Err(HttpError::Timeout) => {
            obs.counter_add("serve.request_timeouts_total", 1);
            ("bad", Response::error(408, "client did not deliver the request in time"))
        }
        // Other socket errors: nothing sensible to send.
        Err(HttpError::Io(_)) => {
            obs.counter_add("serve.socket_errors_total", 1);
            return;
        }
    };
    obs.counter_add("serve.requests_total", 1);
    obs.counter_add(&format!("serve.{endpoint}_requests_total"), 1);
    if response.status >= 400 {
        obs.counter_add("serve.errors_total", 1);
    }
    obs.histogram_record("serve.request_seconds", started.elapsed().as_secs_f64());
    write_response(&obs, &mut stream, &response);
}

/// Metric/span label for the request's endpoint family.
fn endpoint_of(req: &Request) -> &'static str {
    match (req.method.as_str(), req.path.as_str()) {
        (_, p) if p.starts_with("/v1/marginal/") => "marginal",
        (_, "/v1/query") => "query",
        (_, "/v1/evidence") => "evidence",
        (_, "/v1/rows") => "rows",
        (_, "/metrics") => "metrics",
        (_, "/healthz") => "healthz",
        _ => "other",
    }
}

fn route(state: &Arc<ServeState>, ctx: &ExecContext, req: &Request) -> Response {
    if let Some(outcome) = ctx.interrupted() {
        return Response::error(503, &format!("request aborted: {outcome}"));
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => Response::text(
            200,
            sya_obs::export::render_prometheus(&state.obs().metrics_snapshot()),
        ),
        ("GET", p) if p.starts_with("/v1/marginal/") => {
            marginal(state, ctx, &p["/v1/marginal/".len()..], req)
        }
        ("POST", "/v1/query") => query(state, ctx, req),
        ("POST", "/v1/evidence") => evidence(state, req),
        ("POST", "/v1/rows") => rows(state, req),
        (_, "/healthz" | "/metrics" | "/v1/query" | "/v1/evidence" | "/v1/rows") => {
            Response::error(405, "method not allowed")
        }
        (_, p) if p.starts_with("/v1/marginal/") => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

fn healthz(state: &Arc<ServeState>) -> Response {
    let (variables, outcome) = state.health_shape();
    let age = match state.checkpoint_age() {
        Some(age) => format!("{:.3}", age.as_secs_f64()),
        None => "null".to_owned(),
    };
    Response::json(
        200,
        format!(
            "{{\"status\":\"ok\",\"mode\":\"{}\",\"epoch\":{},\"variables\":{},\
             \"outcome\":{},\
             \"uptime_seconds\":{:.3},\"checkpoint_age_seconds\":{}}}",
            state.mode(),
            state.epoch(),
            variables,
            crate::http::json_string(&outcome),
            state.uptime().as_secs_f64(),
            age,
        ),
    )
}

/// Renders one marginal answer as a JSON object.
fn marginal_json(m: &crate::state::MarginalAnswer) -> String {
    let evidence = match m.evidence {
        Some(e) => e.to_string(),
        None => "null".to_owned(),
    };
    format!(
        "{{\"relation\":{},\"id\":{},\"score\":{:.6},\"evidence\":{},\"epoch\":{}}}",
        crate::http::json_string(&m.relation),
        m.id,
        m.score,
        evidence,
        m.epoch,
    )
}

/// `GET /v1/marginal/{relation}?args=ID` (also accepts `id=ID`).
fn marginal(
    state: &Arc<ServeState>,
    ctx: &ExecContext,
    relation: &str,
    req: &Request,
) -> Response {
    let Some(raw) = req.query_value("args").or_else(|| req.query_value("id")) else {
        return Response::error(400, "missing ?args=<id> (the atom's id column)");
    };
    let Ok(id) = raw.trim().parse::<i64>() else {
        return Response::error(400, &format!("bad id {raw:?}: want an integer"));
    };
    match state.marginal(relation, id, ctx) {
        Ok(Some(m)) => Response::json(200, marginal_json(&m)),
        Ok(None) => Response::error(404, &format!("no ground atom {relation}({id})")),
        Err(e) => read_failure_response(&e),
    }
}

/// Maps a read-path serving failure onto the wire: an exhausted lazy
/// query budget is transient, so 503 + `Retry-After`; a lazy query that
/// failed outright is a plain 500.
fn read_failure_response(e: &ServeError) -> Response {
    match e {
        ServeError::QueryFailed(_) => Response::error(500, &e.to_string()),
        _ => Response::error(503, &e.to_string()).with_retry_after(RETRY_AFTER_SECONDS),
    }
}

/// What a 503 for an exhausted query budget advises clients to wait
/// before retrying.
const RETRY_AFTER_SECONDS: u64 = 5;

/// `POST /v1/query` — batch marginal lookup. Body:
/// `{"queries": [{"relation": "IsSafe", "id": 7}, ...]}`.
fn query(state: &Arc<ServeState>, ctx: &ExecContext, req: &Request) -> Response {
    let parsed: Json = match serde_json::from_slice(&req.body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("bad JSON body: {e}")),
    };
    let Some(queries) = parsed.get("queries").and_then(Json::as_array) else {
        return Response::error(400, "body must be {\"queries\": [{\"relation\",\"id\"}, ...]}");
    };
    let mut pairs: Vec<(String, i64)> = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let (Some(relation), Some(id)) =
            (q.get("relation").and_then(Json::as_str), q.get("id").and_then(Json::as_i64))
        else {
            return Response::error(
                400,
                &format!("query {i}: want {{\"relation\": string, \"id\": integer}}"),
            );
        };
        pairs.push((relation.to_owned(), id));
    }
    // One marginals() call: lazy mode grounds the batch's misses as a
    // single union neighborhood instead of once per query.
    let answers = match state.marginals(&pairs, ctx) {
        Ok(a) => a,
        Err(e) => return read_failure_response(&e),
    };
    let mut results = Vec::with_capacity(answers.len());
    for (i, answer) in answers.iter().enumerate() {
        match answer {
            Some(m) => results.push(marginal_json(m)),
            None => {
                let (relation, id) = &pairs[i];
                return Response::error(
                    404,
                    &format!("query {i}: no ground atom {relation}({id})"),
                );
            }
        }
    }
    Response::json(
        200,
        format!("{{\"epoch\":{},\"results\":[{}]}}", state.epoch(), results.join(",")),
    )
}

/// `POST /v1/rows` — typed base-row updates, absorbed differentially.
/// Body: `{"updates": [{"op": "insert"|"retract", "relation": "Well",
/// "row": [960, {"x": 20.0, "y": 35.0}, 0.12]}, ...]}`. Cells decode
/// against the relation's declared column types; points also accept
/// `[x, y]`.
fn rows(state: &Arc<ServeState>, req: &Request) -> Response {
    let parsed: Json = match serde_json::from_slice(&req.body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("bad JSON body: {e}")),
    };
    let Some(updates) = parsed.get("updates").and_then(Json::as_array) else {
        return Response::error(
            400,
            "body must be {\"updates\": [{\"op\",\"relation\",\"row\"}, ...]}",
        );
    };
    let mut raw = Vec::with_capacity(updates.len());
    for (i, u) in updates.iter().enumerate() {
        let op = match u.get("op").and_then(Json::as_str) {
            Some("insert") => sya_delta::RowOp::Insert,
            Some("retract") => sya_delta::RowOp::Retract,
            other => {
                return Response::error(
                    400,
                    &format!(
                        "update {i}: bad op {other:?}: want \"insert\" or \"retract\""
                    ),
                )
            }
        };
        let (Some(relation), Some(row)) =
            (u.get("relation").and_then(Json::as_str), u.get("row").and_then(Json::as_array))
        else {
            return Response::error(
                400,
                &format!("update {i}: want {{\"op\", \"relation\": string, \"row\": array}}"),
            );
        };
        raw.push(crate::rows::RawRowUpdate {
            op,
            relation: relation.to_owned(),
            row: row.clone(),
        });
    }
    match state.apply_rows(&raw) {
        Ok(o) => Response::json(
            200,
            format!(
                "{{\"epoch\":{},\"rows_inserted\":{},\"rows_retracted\":{},\
                 \"vars_added\":{},\"vars_removed\":{},\
                 \"factors_added\":{},\"factors_tombstoned\":{},\
                 \"spatial_factors_added\":{},\"spatial_factors_tombstoned\":{},\
                 \"resampled\":{},\"cache_invalidated\":{},\
                 \"apply_seconds\":{:.6},\"infer_seconds\":{:.6}}}",
                o.epoch,
                o.rows_inserted,
                o.rows_retracted,
                o.vars_added,
                o.vars_removed,
                o.factors_added,
                o.factors_tombstoned,
                o.spatial_factors_added,
                o.spatial_factors_tombstoned,
                o.resampled,
                o.cache_invalidated,
                o.apply_time.as_secs_f64(),
                o.infer_time.as_secs_f64(),
            ),
        ),
        Err(ServeError::BadRows(msg)) => Response::error(400, &msg),
        Err(e @ ServeError::RowsFailed(_)) => Response::error(500, &e.to_string()),
        Err(e) => Response::error(503, &e.to_string()),
    }
}

/// `POST /v1/evidence` — append evidence rows. Body:
/// `{"rows": [{"relation": "IsSafe", "id": 7, "value": 1}, ...]}`;
/// `"value": null` retracts the observation.
fn evidence(state: &Arc<ServeState>, req: &Request) -> Response {
    let parsed: Json = match serde_json::from_slice(&req.body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("bad JSON body: {e}")),
    };
    let Some(rows) = parsed.get("rows").and_then(Json::as_array) else {
        return Response::error(
            400,
            "body must be {\"rows\": [{\"relation\",\"id\",\"value\"}, ...]}",
        );
    };
    let mut updates = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let (Some(relation), Some(id)) =
            (row.get("relation").and_then(Json::as_str), row.get("id").and_then(Json::as_i64))
        else {
            return Response::error(
                400,
                &format!("row {i}: want {{\"relation\": string, \"id\": integer, \"value\": 0..|null}}"),
            );
        };
        let value = match row.get("value") {
            None | Some(Json::Null) => None,
            Some(v) => match v.as_u64().and_then(|n| u32::try_from(n).ok()) {
                Some(n) => Some(n),
                None => {
                    return Response::error(
                        400,
                        &format!("row {i}: bad value {v}: want a small non-negative integer or null"),
                    )
                }
            },
        };
        updates.push(EvidenceUpdate { relation: relation.to_owned(), id, value });
    }
    match state.apply_evidence(&updates) {
        Ok(outcome) => Response::json(
            200,
            format!(
                "{{\"epoch\":{},\"resampled\":{},\"elapsed_seconds\":{:.6}}}",
                outcome.epoch,
                outcome.resampled,
                outcome.elapsed.as_secs_f64()
            ),
        ),
        Err(ServeError::BadEvidence(msg)) => Response::error(400, &msg),
        Err(e) => Response::error(503, &e.to_string()),
    }
}
