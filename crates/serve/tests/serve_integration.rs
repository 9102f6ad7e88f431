//! End-to-end serving tests on an ephemeral port: query marginals over
//! HTTP, POST evidence, observe the incremental re-inference move the
//! marginal and bump the KB epoch, keep `/healthz` and `/metrics`
//! responsive throughout, and shut down cleanly — every worker thread
//! joined under a deadline, so a leak is a test failure.

use serde_json::Value as Json;
use std::collections::HashMap;
use std::time::Duration;
use sya_bench::http::{http_get, http_post_json};
use sya_core::{KnowledgeBase, SyaConfig, SyaSession};
use sya_data::{gwdb_dataset, Dataset, GwdbConfig};
use sya_obs::Obs;
use sya_serve::{ServeConfig, ServingKb, SyaServer};

fn dataset() -> Dataset {
    gwdb_dataset(&GwdbConfig { n_wells: 60, ..Default::default() })
}

fn config() -> SyaConfig {
    SyaConfig::sya()
        .with_epochs(120)
        .with_seed(11)
        .with_bandwidth(sya_data::gwdb::GWDB_BANDWIDTH)
        .with_spatial_radius(sya_data::gwdb::GWDB_RADIUS)
}

/// Wraps a constructed KB for serving, retaining the dataset's tables
/// and evidence the way `sya serve` does.
fn serving(dataset: &Dataset, session: SyaSession, kb: KnowledgeBase) -> ServingKb {
    let evidence: HashMap<(String, i64), u32> =
        dataset.evidence.iter().map(|(&id, &v)| (("IsSafe".to_owned(), id), v)).collect();
    ServingKb::with_live(session, kb, dataset.db.clone(), evidence, Obs::enabled())
        .expect("spatial KB serves")
}

fn build(dataset: &Dataset, config: SyaConfig) -> (SyaSession, KnowledgeBase) {
    let session =
        SyaSession::new(&dataset.program, dataset.constants.clone(), dataset.metric, config)
            .expect("program compiles");
    let mut db = dataset.db.clone();
    let kb = session
        .construct(&mut db, &dataset.evidence_fn())
        .expect("construction succeeds");
    (session, kb)
}

fn start_server(dataset: &Dataset, config: SyaConfig) -> SyaServer {
    let (session, kb) = build(dataset, config);
    let state = serving(dataset, session, kb);
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    };
    SyaServer::start(state, cfg).expect("server binds an ephemeral port")
}

fn get_ok(addr: &str, path: &str) -> Json {
    let r = http_get(addr, path).expect("GET succeeds");
    assert_eq!(r.status, 200, "GET {path}: {}", r.body);
    serde_json::from_str(&r.body).expect("valid JSON")
}

fn post_ok(addr: &str, path: &str, body: &str) -> Json {
    let r = http_post_json(addr, path, body).expect("POST succeeds");
    assert_eq!(r.status, 200, "POST {path}: {}", r.body);
    serde_json::from_str(&r.body).expect("valid JSON")
}

#[test]
fn serves_queries_applies_evidence_and_shuts_down_cleanly() {
    let dataset = dataset();
    let qid = *dataset.query_ids().first().expect("dataset has query atoms");
    let server = start_server(&dataset, config());
    let addr = server.local_addr().to_string();

    // Readiness before any traffic.
    let health = get_ok(&addr, "/healthz");
    assert_eq!(health["status"].as_str(), Some("ok"));
    assert_eq!(health["epoch"].as_u64(), Some(0));
    assert!(health["variables"].as_u64().unwrap() > 0);

    // Point marginal on a query (non-evidence) atom.
    let path = format!("/v1/marginal/IsSafe?args={qid}");
    let before = get_ok(&addr, &path);
    let score_before = before["score"].as_f64().unwrap();
    assert!((0.0..=1.0).contains(&score_before), "score {score_before}");
    assert_eq!(before["evidence"], Json::Null);
    assert_eq!(before["epoch"].as_u64(), Some(0));

    // Batch query.
    let ids = dataset.query_ids();
    let batch = post_ok(
        &addr,
        "/v1/query",
        &format!(
            "{{\"queries\":[{{\"relation\":\"IsSafe\",\"id\":{}}},{{\"relation\":\"IsSafe\",\"id\":{}}}]}}",
            ids[0], ids[1]
        ),
    );
    assert_eq!(batch["results"].as_array().unwrap().len(), 2);

    // Evidence: pin the queried atom to 0 (unsafe) and expect the
    // conclique-restricted sampler to resample a non-empty set.
    let ev = post_ok(
        &addr,
        "/v1/evidence",
        &format!("{{\"rows\":[{{\"relation\":\"IsSafe\",\"id\":{qid},\"value\":0}}]}}"),
    );
    assert!(ev["resampled"].as_u64().unwrap() > 0, "{ev}");
    assert_eq!(ev["epoch"].as_u64(), Some(1));

    // The marginal now reflects the observation and the new epoch.
    let after = get_ok(&addr, &path);
    assert_eq!(after["evidence"].as_u64(), Some(0));
    assert_eq!(after["epoch"].as_u64(), Some(1));
    let score_after = after["score"].as_f64().unwrap();
    assert!(
        score_after < score_before || score_after <= 0.5,
        "pinning to 0 should pull the marginal down: {score_before} -> {score_after}"
    );

    // Health and metrics stay live mid-stream and see the update.
    assert_eq!(get_ok(&addr, "/healthz")["epoch"].as_u64(), Some(1));
    let metrics = http_get(&addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    for needle in [
        "serve_requests_total",
        "serve_evidence_rows_total",
        "infer_incremental_resampled_vars",
        "infer_incremental_cells_touched",
    ] {
        assert!(metrics.body.contains(needle), "metrics missing {needle}:\n{}", metrics.body);
    }

    // Graceful shutdown: every thread joined under the deadline; an
    // Err here names the leaked workers.
    server.shutdown(Duration::from_secs(10)).expect("no leaked threads");
}

#[test]
fn rejects_malformed_requests_with_typed_statuses() {
    let dataset = dataset();
    let qid = *dataset.query_ids().first().unwrap();
    let server = start_server(&dataset, config());
    let addr = server.local_addr().to_string();

    // Unknown endpoint and wrong method.
    assert_eq!(http_get(&addr, "/nope").unwrap().status, 404);
    assert_eq!(http_post_json(&addr, "/healthz", "{}").unwrap().status, 405);

    // Marginal: missing id, malformed id, unknown atom.
    assert_eq!(http_get(&addr, "/v1/marginal/IsSafe").unwrap().status, 400);
    assert_eq!(http_get(&addr, "/v1/marginal/IsSafe?args=xyz").unwrap().status, 400);
    assert_eq!(http_get(&addr, "/v1/marginal/IsSafe?args=999999").unwrap().status, 404);

    // Evidence hardening mirrors the CLI loader: undeclared relation,
    // input relation, out-of-domain value, duplicate row — each a 400
    // with a JSON error envelope, and none of them move the epoch.
    for body in [
        format!("{{\"rows\":[{{\"relation\":\"Nope\",\"id\":{qid},\"value\":1}}]}}"),
        format!("{{\"rows\":[{{\"relation\":\"Well\",\"id\":{qid},\"value\":1}}]}}"),
        format!("{{\"rows\":[{{\"relation\":\"IsSafe\",\"id\":{qid},\"value\":7}}]}}"),
        format!(
            "{{\"rows\":[{{\"relation\":\"IsSafe\",\"id\":{qid},\"value\":1}},\
             {{\"relation\":\"IsSafe\",\"id\":{qid},\"value\":0}}]}}"
        ),
        "{\"rows\":[]}".to_owned(),
        "{\"wrong\":true}".to_owned(),
        "not json".to_owned(),
    ] {
        let r = http_post_json(&addr, "/v1/evidence", &body).unwrap();
        assert_eq!(r.status, 400, "body {body}: {}", r.body);
        assert!(r.body.contains("\"error\""), "{}", r.body);
    }
    assert_eq!(get_ok(&addr, "/healthz")["epoch"].as_u64(), Some(0));

    server.shutdown(Duration::from_secs(10)).expect("no leaked threads");
}

/// First value of a Prometheus sample line `NAME VALUE`.
fn prom_value(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        if !rest.starts_with(' ') {
            return None;
        }
        rest.trim().parse().ok()
    })
}

/// Polls `cond` until it holds; panics after 30 s.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while !cond() {
        assert!(start.elapsed() < Duration::from_secs(30), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn overload_sheds_with_retry_after_while_health_plane_answers() {
    use std::io::{Read, Write};
    let dataset = dataset();
    let qid = *dataset.query_ids().first().unwrap();
    let (session, kb) = build(&dataset, config());
    let state = serving(&dataset, session, kb);
    // A deliberately tiny envelope: one worker, one queue slot — a
    // burst of expensive evidence POSTs must overflow into sheds while
    // the health plane keeps answering through the shed lane.
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 1,
        max_queue: 1,
        max_inflight: 1,
        ..ServeConfig::default()
    };
    let server = SyaServer::start(state, cfg).expect("server binds");
    let addr = server.local_addr().to_string();
    let body = format!("{{\"rows\":[{{\"relation\":\"IsSafe\",\"id\":{qid},\"value\":0}}]}}");

    // The overflow must not depend on how long an evidence apply takes:
    // a first POST whose body is still in flight holds the one worker in
    // its request read until the test sends the rest. While it is held,
    // at most one burst POST fits the queue and every other is shed.
    let mut held = std::net::TcpStream::connect(&addr).expect("connect");
    let head = format!(
        "POST /v1/evidence HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    held.write_all(head.as_bytes()).unwrap();
    held.write_all(&body.as_bytes()[..1]).unwrap();
    let busy = || server.state().obs().metrics_snapshot().gauges.get("serve.workers_busy").copied();
    wait_for("the worker to take the held POST", || busy() == Some(1.0));

    let mut accepted = 0u64;
    let mut shed = 0u64;
    let mut errors = 0u64;
    std::thread::scope(|scope| {
        let (done, results) = std::sync::mpsc::channel();
        for _ in 0..24 {
            let (addr, body, done) = (addr.clone(), body.clone(), done.clone());
            scope.spawn(move || done.send(http_post_json(&addr, "/v1/evidence", &body)).unwrap());
        }
        // 23 of the 24 are shed while the worker is held; the 24th waits
        // in the queue, which stays full until the held POST completes.
        let mut outcomes: Vec<_> = (0..23).map(|_| results.recv().unwrap()).collect();
        assert_eq!(server.admission().queued(), 1, "one POST waits in the full queue");
        // The health plane, polled mid-storm: every probe must answer
        // 200 — through the shed lane, as the main queue is full.
        for _ in 0..10 {
            let health = http_get(&addr, "/healthz").expect("healthz reachable under load");
            assert_eq!(health.status, 200, "healthz under overload: {}", health.body);
            std::thread::sleep(Duration::from_millis(5));
        }
        held.write_all(&body.as_bytes()[1..]).unwrap();
        let mut reply = String::new();
        held.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "held POST: {reply}");
        outcomes.push(results.recv().unwrap());
        for outcome in outcomes {
            match outcome {
                Ok(r) if r.status == 200 => accepted += 1,
                Ok(r) if r.status == 503 => {
                    // Every shed carries the Retry-After contract.
                    assert_eq!(r.header("Retry-After"), Some("5"), "headers: {:?}", r.headers);
                    shed += 1;
                }
                Ok(r) => panic!("unexpected status {}: {}", r.status, r.body),
                Err(_) => errors += 1,
            }
        }
    });
    assert!(accepted >= 1, "at least the first arrival must be served");
    assert!(shed >= 1, "a 24-deep burst against queue depth 1 must shed");

    // The admission ledger drained back to zero…
    assert_eq!(server.admission().queued(), 0);
    assert_eq!(server.admission().inflight(), 0);

    // …and the counters account for at least every 503 the wire saw
    // (a client that lost the race to a closed socket counts as an
    // error here but was still a shed server-side).
    let metrics = http_get(&addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let shed_total = prom_value(&metrics.body, "sya_serve_admission_shed_queue_full_total")
        .unwrap_or(0.0)
        + prom_value(&metrics.body, "sya_serve_admission_shed_deadline_total").unwrap_or(0.0)
        + prom_value(&metrics.body, "sya_serve_admission_shed_inflight_total").unwrap_or(0.0);
    assert!(
        shed_total >= shed as f64,
        "counters {shed_total} must cover the {shed} observed 503s ({errors} errors)"
    );
    assert_eq!(
        prom_value(&metrics.body, "sya_serve_admission_queued"),
        Some(0.0),
        "queued gauge returns to zero:\n{}",
        metrics.body
    );
    assert_eq!(prom_value(&metrics.body, "sya_serve_admission_inflight"), Some(0.0));
    assert_eq!(
        prom_value(&metrics.body, "sya_serve_admission_max_queue"),
        Some(1.0),
        "configured envelope is published"
    );

    server.shutdown(Duration::from_secs(10)).expect("no leaked threads");
}

#[test]
fn warm_start_from_serve_checkpoint_preserves_marginals() {
    let dir = std::env::temp_dir().join(format!("sya_serve_warm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dataset = dataset();
    let qid = *dataset.query_ids().first().unwrap();
    let cfg = config().with_checkpoints(dir.to_str().unwrap(), 1000);

    let (session, kb) = build(&dataset, cfg.clone());
    let state = serving(&dataset, session, kb);

    // Move the KB past its constructed state, then snapshot: the
    // checkpoint must capture the *post-evidence* marginals.
    let server = SyaServer::start(
        state,
        ServeConfig { listen: "127.0.0.1:0".into(), workers: 1, ..ServeConfig::default() },
    )
    .expect("server starts");
    let addr = server.local_addr().to_string();
    post_ok(
        &addr,
        "/v1/evidence",
        &format!("{{\"rows\":[{{\"relation\":\"IsSafe\",\"id\":{qid},\"value\":0}}]}}"),
    );
    let saved = server.state().checkpoint_now().expect("checkpoint saves");
    assert!(saved.is_some(), "first save must write a file");
    // Same epoch again: nothing new to save.
    assert!(server.state().checkpoint_now().unwrap().is_none());
    let live: Vec<(i64, f64)> =
        server.state().with_kb(|kb| kb.query_scores_by_id("IsSafe")).expect("full-mode KB");
    server.shutdown(Duration::from_secs(10)).expect("no leaked threads");

    // A fresh process warm-starts from the serve-time checkpoint and
    // reports the same marginals (count ratios survive the k-way chain
    // synthesis exactly, modulo float merge order).
    let (_, kb2) = build(&dataset, cfg.with_resume(true));
    let resumed: std::collections::HashMap<i64, f64> =
        kb2.query_scores_by_id("IsSafe").into_iter().collect();
    // The posted atom is evidence in the live KB (so absent from its
    // query scores) but a query atom again in the fresh build.
    assert_eq!(resumed.len(), live.len() + 1);
    assert!(resumed.contains_key(&qid));
    for (id, a) in &live {
        let b = resumed[id];
        assert!((a - b).abs() < 1e-9, "id {id}: live {a} vs resumed {b}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
