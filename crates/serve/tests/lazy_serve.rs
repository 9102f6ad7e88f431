//! End-to-end lazy-serving tests on an ephemeral port: the server never
//! grounds the full KB — every `/v1/marginal` demand-grounds a bound
//! neighborhood through the query grounder — yet the HTTP surface
//! (marginals, batch queries, evidence, health, metrics, shutdown)
//! behaves like the full path, with lazy-specific extras: an
//! epoch-keyed answer cache visible on `/metrics`, `"mode":"lazy"` on
//! `/healthz`, and per-request budget exhaustion as 503 + Retry-After.

use serde_json::Value as Json;
use std::collections::HashMap;
use std::time::Duration;
use sya_bench::http::{http_get, http_post_json};
use sya_core::{SyaConfig, SyaSession};
use sya_data::{gwdb_dataset, Dataset, GwdbConfig};
use sya_obs::Obs;
use sya_runtime::RunBudget;
use sya_serve::{LazyConfig, LazyKb, ServeConfig, SyaServer};

fn dataset() -> Dataset {
    gwdb_dataset(&GwdbConfig { n_wells: 60, ..Default::default() })
}

fn config() -> SyaConfig {
    SyaConfig::sya()
        .with_seed(11)
        .with_bandwidth(sya_data::gwdb::GWDB_BANDWIDTH)
        .with_spatial_radius(sya_data::gwdb::GWDB_RADIUS)
}

/// Builds the lazy state without ever calling `construct`: compile the
/// program, clone the input tables, and hand both to `LazyKb`.
fn lazy_kb(dataset: &Dataset, cfg: LazyConfig) -> LazyKb {
    let session =
        SyaSession::new(&dataset.program, dataset.constants.clone(), dataset.metric, config())
            .expect("program compiles");
    let evidence: HashMap<(String, i64), u32> = dataset
        .evidence
        .iter()
        .map(|(&id, &v)| (("IsSafe".to_owned(), id), v))
        .collect();
    LazyKb::new(
        session.compiled().clone(),
        session.config().ground.clone(),
        dataset.db.clone(),
        evidence,
        cfg,
        Obs::enabled(),
    )
    .expect("spatial program serves lazily")
}

fn start_server(dataset: &Dataset, cfg: LazyConfig) -> SyaServer {
    let state = lazy_kb(dataset, cfg);
    let serve = ServeConfig { listen: "127.0.0.1:0".into(), workers: 2, ..ServeConfig::default() };
    SyaServer::start(state, serve).expect("server binds an ephemeral port")
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

/// Parses one un-labeled metric value out of a Prometheus exposition
/// body.
fn metric_value(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.parse().ok()
    })
}

#[test]
fn lazy_server_answers_caches_and_shuts_down_cleanly() {
    let dataset = dataset();
    let qid = *dataset.query_ids().first().expect("dataset has query atoms");
    let server = start_server(&dataset, LazyConfig::default());
    let addr = server.local_addr().to_string();

    // Readiness: lazy mode is visible on the health plane before any
    // traffic, and no variables exist yet — nothing has been grounded.
    let health = get_ok(&addr, "/healthz");
    assert_eq!(health["status"].as_str(), Some("ok"));
    assert_eq!(health["mode"].as_str(), Some("lazy"));
    assert_eq!(health["epoch"].as_u64(), Some(0));
    assert_eq!(health["variables"].as_u64(), Some(0));
    assert_eq!(health["outcome"].as_str(), Some("lazy"));

    // First point marginal: a cache miss that demand-grounds the
    // neighborhood and answers from the restricted chain.
    let path = format!("/v1/marginal/IsSafe?args={qid}");
    let first = get_ok(&addr, &path);
    let score = first["score"].as_f64().unwrap();
    assert!((0.0..=1.0).contains(&score), "score {score}");
    assert_eq!(first["evidence"], Json::Null);
    assert_eq!(first["epoch"].as_u64(), Some(0));

    // Second identical query: an epoch-keyed cache hit with the same
    // answer, no re-grounding.
    let second = get_ok(&addr, &path);
    assert_eq!(second["score"].as_f64(), Some(score));

    // The grounding is visible as variables on the health plane now.
    let health = get_ok(&addr, "/healthz");
    assert!(health["variables"].as_u64().unwrap() > 0, "{health}");

    // Batch query runs per-atom through the same grounder + cache.
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

    // Metrics: exactly one hit for the repeated point query plus one
    // for the batch's re-ask of ids[0]; misses grounded the rest.
    let metrics = http_get(&addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let hits = metric_value(&metrics.body, "sya_serve_query_cache_hit_total").unwrap();
    let misses = metric_value(&metrics.body, "sya_serve_query_cache_miss_total").unwrap();
    let entries = metric_value(&metrics.body, "sya_serve_query_cache_entries").unwrap();
    assert_eq!(hits, 2.0, "{}", metrics.body);
    assert_eq!(misses, 2.0, "{}", metrics.body);
    assert_eq!(entries, 2.0, "{}", metrics.body);
    for needle in ["sya_serve_query_requests_total", "sya_serve_query_ground_seconds"] {
        assert!(metrics.body.contains(needle), "metrics missing {needle}");
    }

    server.shutdown(Duration::from_secs(10)).expect("no leaked threads");
}

#[test]
fn evidence_bumps_epoch_invalidates_cache_and_pins_the_answer() {
    let dataset = dataset();
    let qid = *dataset.query_ids().first().unwrap();
    let server = start_server(&dataset, LazyConfig::default());
    let addr = server.local_addr().to_string();

    let path = format!("/v1/marginal/IsSafe?args={qid}");
    let before = get_ok(&addr, &path);
    assert_eq!(before["evidence"], Json::Null);

    // Evidence application is O(rows) in lazy mode: the epoch bumps,
    // the cache drops, and nothing is resampled (there is no graph).
    let ev = post_ok(
        &addr,
        "/v1/evidence",
        &format!("{{\"rows\":[{{\"relation\":\"IsSafe\",\"id\":{qid},\"value\":0}}]}}"),
    );
    assert_eq!(ev["epoch"].as_u64(), Some(1));
    assert_eq!(ev["resampled"].as_u64(), Some(0));

    // The re-grounded answer reflects the observation and new epoch.
    let after = get_ok(&addr, &path);
    assert_eq!(after["evidence"].as_u64(), Some(0));
    assert_eq!(after["epoch"].as_u64(), Some(1));
    assert!(after["score"].as_f64().unwrap() <= 0.5, "{after}");
    assert_eq!(get_ok(&addr, "/healthz")["epoch"].as_u64(), Some(1));

    // The pre-evidence cache entry was dropped, not reused: the
    // post-evidence read re-grounded (a second miss for this key).
    let metrics = http_get(&addr, "/metrics").unwrap();
    let misses = metric_value(&metrics.body, "sya_serve_query_cache_miss_total").unwrap();
    assert_eq!(misses, 2.0, "{}", metrics.body);
    assert!(
        metric_value(&metrics.body, "sya_serve_query_cache_invalidated_total").unwrap() >= 1.0,
        "{}",
        metrics.body
    );

    // Retraction: value null clears the observation again.
    let ev = post_ok(
        &addr,
        "/v1/evidence",
        &format!("{{\"rows\":[{{\"relation\":\"IsSafe\",\"id\":{qid},\"value\":null}}]}}"),
    );
    assert_eq!(ev["epoch"].as_u64(), Some(2));
    let retracted = get_ok(&addr, &path);
    assert_eq!(retracted["evidence"], Json::Null);
    assert_eq!(retracted["epoch"].as_u64(), Some(2));

    server.shutdown(Duration::from_secs(10)).expect("no leaked threads");
}

#[test]
fn budget_exhaustion_is_503_with_retry_after_and_unknown_atoms_404() {
    let dataset = dataset();
    let qid = *dataset.query_ids().first().unwrap();

    // A one-variable budget cannot hold a spatial neighborhood.
    let starved = LazyConfig {
        budget: RunBudget::unlimited().with_max_variables(1),
        ..LazyConfig::default()
    };
    let server = start_server(&dataset, starved);
    let addr = server.local_addr().to_string();

    let r = http_get(&addr, &format!("/v1/marginal/IsSafe?args={qid}")).unwrap();
    assert_eq!(r.status, 503, "{}", r.body);
    assert!(
        r.header("Retry-After").is_some_and(|v| !v.is_empty()),
        "503 without Retry-After: {:?}",
        r.headers
    );
    let metrics = http_get(&addr, "/metrics").unwrap();
    assert!(
        metric_value(&metrics.body, "sya_serve_query_budget_exceeded_total").unwrap() >= 1.0,
        "{}",
        metrics.body
    );

    // Unknown atom and unknown relation are 404s, not errors.
    assert_eq!(http_get(&addr, "/v1/marginal/IsSafe?args=999999").unwrap().status, 404);
    assert_eq!(http_get(&addr, "/v1/marginal/NoSuchRel?args=1").unwrap().status, 404);

    // Malformed evidence is rejected with a 400 before any state moves.
    let bad = http_post_json(
        &addr,
        "/v1/evidence",
        "{\"rows\":[{\"relation\":\"Well\",\"id\":1,\"value\":0}]}",
    )
    .unwrap();
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert_eq!(get_ok(&addr, "/healthz")["epoch"].as_u64(), Some(0));

    server.shutdown(Duration::from_secs(10)).expect("no leaked threads");
}
