//! `POST /v1/rows` end-to-end: base-row deltas absorbed live.
//!
//! Full mode goes over HTTP — insert a well, watch a brand-new ground
//! atom become queryable without any re-construction, retract it, watch
//! it vanish — with the `delta.*` metrics family moving underneath.
//! Lazy mode exercises the cache surgery directly: a row update drops
//! exactly the cached neighborhoods it intersects and re-stamps the
//! survivors, and concurrent misses of one atom coalesce onto a single
//! grounding (singleflight).

use serde_json::Value as Json;
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;
use sya_bench::http::{http_get, http_post_json};
use sya_core::{KnowledgeBase, SyaConfig, SyaSession};
use sya_data::{gwdb_dataset, Dataset, GwdbConfig};
use sya_obs::Obs;
use sya_runtime::ExecContext;
use sya_serve::{LazyConfig, LazyKb, RawRowUpdate, ServeConfig, ServingKb, SyaServer};

fn dataset() -> Dataset {
    gwdb_dataset(&GwdbConfig { n_wells: 60, ..Default::default() })
}

fn config() -> SyaConfig {
    SyaConfig::sya()
        .with_epochs(60)
        .with_seed(11)
        .with_bandwidth(sya_data::gwdb::GWDB_BANDWIDTH)
        .with_spatial_radius(sya_data::gwdb::GWDB_RADIUS)
}

/// Builds the session on the *serving* obs handle, the way `sya serve`
/// does — the delta layer publishes its `delta.*` family through the
/// session, and `/metrics` renders that same handle.
fn build(dataset: &Dataset, obs: Obs) -> (SyaSession, KnowledgeBase) {
    let session = SyaSession::new_with_obs(
        &dataset.program,
        dataset.constants.clone(),
        dataset.metric,
        config(),
        obs,
    )
    .expect("program compiles");
    let mut db = dataset.db.clone();
    let kb = session
        .construct(&mut db, &dataset.evidence_fn())
        .expect("construction succeeds");
    (session, kb)
}

fn keyed_evidence(dataset: &Dataset) -> HashMap<(String, i64), u32> {
    dataset.evidence.iter().map(|(&id, &v)| (("IsSafe".to_owned(), id), v)).collect()
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

/// A new well next to an existing one, as the `/v1/rows` JSON cell
/// array `[id, {"x", "y"}, arsenic, fluoride]`.
fn well_json(id: i64, x: f64, y: f64) -> String {
    format!("[{id},{{\"x\":{x:.3},\"y\":{y:.3}}},0.08,0.1]")
}

#[test]
fn rows_round_trip_births_and_buries_a_ground_atom_over_http() {
    let dataset = dataset();
    let anchor = *dataset.query_ids().first().expect("dataset has query atoms");
    let spot = dataset.locations[&anchor];
    let obs = Obs::enabled();
    let (session, kb) = build(&dataset, obs.clone());
    let state =
        ServingKb::with_live(session, kb, dataset.db.clone(), keyed_evidence(&dataset), obs)
            .expect("spatial KB serves");
    let cfg = ServeConfig { listen: "127.0.0.1:0".into(), workers: 2, ..ServeConfig::default() };
    let server = SyaServer::start(state, cfg).expect("server binds an ephemeral port");
    let addr = server.local_addr().to_string();

    // The atom does not exist yet.
    let new_path = "/v1/marginal/IsSafe?args=5000";
    assert_eq!(http_get(&addr, new_path).unwrap().status, 404);

    // Insert a low-arsenic well one unit from an existing query atom:
    // the delta layer grounds its new IsSafe atom, links it into the
    // neighborhood, and warm re-infers only the touched concliques.
    let inserted = post_ok(
        &addr,
        "/v1/rows",
        &format!(
            "{{\"updates\":[{{\"op\":\"insert\",\"relation\":\"Well\",\"row\":{}}}]}}",
            well_json(5000, spot.x + 1.0, spot.y)
        ),
    );
    assert_eq!(inserted["epoch"].as_u64(), Some(1), "{inserted}");
    assert_eq!(inserted["rows_inserted"].as_u64(), Some(1));
    assert_eq!(inserted["rows_retracted"].as_u64(), Some(0));
    assert!(inserted["vars_added"].as_u64().unwrap() >= 1, "{inserted}");
    assert!(inserted["factors_added"].as_u64().unwrap() >= 1, "{inserted}");
    assert!(inserted["resampled"].as_u64().unwrap() >= 1, "{inserted}");

    // The new ground atom answers like any constructed one, at the new
    // epoch — no re-construction happened.
    let born = get_ok(&addr, new_path);
    assert_eq!(born["epoch"].as_u64(), Some(1));
    let score = born["score"].as_f64().unwrap();
    assert!((0.0..=1.0).contains(&score), "score {score}");
    // And the anchor it attached next to still answers.
    assert_eq!(
        get_ok(&addr, &format!("/v1/marginal/IsSafe?args={anchor}"))["epoch"].as_u64(),
        Some(1)
    );

    // Retract the same row: tombstones, not a rebuild; the atom is gone.
    let retracted = post_ok(
        &addr,
        "/v1/rows",
        &format!(
            "{{\"updates\":[{{\"op\":\"retract\",\"relation\":\"Well\",\"row\":{}}}]}}",
            well_json(5000, spot.x + 1.0, spot.y)
        ),
    );
    assert_eq!(retracted["epoch"].as_u64(), Some(2), "{retracted}");
    assert_eq!(retracted["rows_retracted"].as_u64(), Some(1));
    assert!(retracted["vars_removed"].as_u64().unwrap() >= 1, "{retracted}");
    assert!(retracted["factors_tombstoned"].as_u64().unwrap() >= 1, "{retracted}");
    assert_eq!(http_get(&addr, new_path).unwrap().status, 404);
    assert_eq!(get_ok(&addr, "/healthz")["epoch"].as_u64(), Some(2));

    // The delta metrics family moved with the two batches.
    let metrics = http_get(&addr, "/metrics").unwrap();
    assert_eq!(metric_value(&metrics.body, "sya_delta_rows_inserted_total"), Some(1.0));
    assert_eq!(metric_value(&metrics.body, "sya_delta_rows_retracted_total"), Some(1.0));
    assert_eq!(metric_value(&metrics.body, "sya_serve_rows_total"), Some(2.0));
    assert!(
        metric_value(&metrics.body, "sya_delta_vars_added_total").unwrap() >= 1.0,
        "{}",
        metrics.body
    );

    // Malformed batches are 400s with the offender named; the epoch
    // does not move.
    for (body, needle) in [
        ("{\"updates\":[]}", "empty"),
        ("{\"updates\":[{\"op\":\"upsert\",\"relation\":\"Well\",\"row\":[]}]}", "op"),
        (
            "{\"updates\":[{\"op\":\"insert\",\"relation\":\"IsSafe\",\"row\":[1,null]}]}",
            "variable relation",
        ),
        (
            "{\"updates\":[{\"op\":\"retract\",\"relation\":\"Well\",\"row\":[987654,null,null,null]}]}",
            "retract",
        ),
    ] {
        let r = http_post_json(&addr, "/v1/rows", body).unwrap();
        assert_eq!(r.status, 400, "{body} -> {}", r.body);
        assert!(r.body.contains(needle), "{body} -> {}", r.body);
    }
    assert_eq!(get_ok(&addr, "/healthz")["epoch"].as_u64(), Some(2));
    // Wrong method on the endpoint family.
    assert_eq!(http_get(&addr, "/v1/rows").unwrap().status, 405);

    server.shutdown(Duration::from_secs(10)).expect("no leaked threads");
}

fn lazy_kb(dataset: &Dataset) -> LazyKb {
    let session =
        SyaSession::new(&dataset.program, dataset.constants.clone(), dataset.metric, config())
            .expect("program compiles");
    LazyKb::new(
        session.compiled().clone(),
        session.config().ground.clone(),
        dataset.db.clone(),
        keyed_evidence(dataset),
        LazyConfig::default(),
        Obs::enabled(),
    )
    .expect("spatial program serves lazily")
}

/// Two query atoms as far apart as the field allows, so their demand
/// neighborhoods provably cannot overlap a single-row delta near one of
/// them.
fn distant_pair(dataset: &Dataset) -> (i64, i64) {
    let ids = dataset.query_ids();
    let mut best = (ids[0], ids[1], 0.0f64);
    for &a in &ids {
        for &b in &ids {
            let d = dataset.locations[&a].distance(&dataset.locations[&b]);
            if d > best.2 {
                best = (a, b, d);
            }
        }
    }
    assert!(best.2 > 400.0, "field too small for a disjointness test: {}", best.2);
    (best.0, best.1)
}

fn insert_well(id: i64, x: f64, y: f64) -> RawRowUpdate {
    RawRowUpdate {
        op: sya_delta::RowOp::Insert,
        relation: "Well".to_owned(),
        row: vec![
            serde_json::json!(id),
            serde_json::json!({"x": x, "y": y}),
            serde_json::json!(0.08),
            serde_json::json!(0.1),
        ],
    }
}

#[test]
fn lazy_rows_invalidate_only_intersecting_neighborhoods() {
    let dataset = dataset();
    let (near, far) = distant_pair(&dataset);
    let kb = lazy_kb(&dataset);
    let ctx = ExecContext::default();

    // Warm the cache with two disjoint neighborhoods.
    let before_near = kb.marginal("IsSafe", near, &ctx).unwrap().expect("atom exists");
    let before_far = kb.marginal("IsSafe", far, &ctx).unwrap().expect("atom exists");
    assert_eq!(before_near.epoch, 0);

    // Insert a well one unit from `near`: exactly one cached entry
    // intersects the delta.
    let spot = dataset.locations[&near];
    let outcome = kb.apply_rows(&[insert_well(7000, spot.x + 1.0, spot.y)]).unwrap();
    assert_eq!(outcome.epoch, 1);
    assert_eq!(outcome.rows_inserted, 1);
    assert_eq!(outcome.cache_invalidated, 1, "only the intersecting entry drops");

    // The surviving entry was re-stamped: `far` answers from cache at
    // the *new* epoch — no re-grounding.
    let misses_before =
        metric_value(&render(&kb), "sya_serve_query_cache_miss_total").unwrap();
    let after_far = kb.marginal("IsSafe", far, &ctx).unwrap().expect("still cached");
    assert_eq!(after_far.epoch, 1);
    assert_eq!(after_far.score, before_far.score, "cache hit returns the cached answer");
    let metrics = render(&kb);
    assert_eq!(
        metric_value(&metrics, "sya_serve_query_cache_miss_total").unwrap(),
        misses_before,
        "the far query must not re-ground: {metrics}"
    );

    // The touched side re-grounds on demand and sees the new row: the
    // fresh atom is answerable and `near`'s neighborhood re-grounds.
    let born = kb.marginal("IsSafe", 7000, &ctx).unwrap().expect("new atom grounds");
    assert_eq!(born.epoch, 1);
    let after_near = kb.marginal("IsSafe", near, &ctx).unwrap().expect("re-grounds");
    assert_eq!(after_near.epoch, 1);

    // Retract it again: the batch validates against the mutated tables.
    let outcome = kb
        .apply_rows(&[RawRowUpdate {
            op: sya_delta::RowOp::Retract,
            ..insert_well(7000, spot.x + 1.0, spot.y)
        }])
        .unwrap();
    assert_eq!(outcome.rows_retracted, 1);
    assert_eq!(outcome.epoch, 2);
    assert!(kb.marginal("IsSafe", 7000, &ctx).unwrap().is_none(), "atom is gone");
}

fn render(kb: &LazyKb) -> String {
    sya_obs::export::render_prometheus(&kb.obs().metrics_snapshot())
}

#[test]
fn lazy_singleflight_coalesces_concurrent_misses_of_one_atom() {
    let dataset = dataset();
    let qid = *dataset.query_ids().first().unwrap();
    let kb = Arc::new(lazy_kb(&dataset));

    const CALLERS: usize = 4;
    let barrier = Arc::new(Barrier::new(CALLERS));
    let mut handles = Vec::new();
    for _ in 0..CALLERS {
        let kb = Arc::clone(&kb);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let ctx = ExecContext::default();
            kb.marginal("IsSafe", qid, &ctx).unwrap().expect("atom exists").score
        }));
    }
    let scores: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Everyone answers, and identically — followers read the leader's
    // cache entry rather than re-running their own chain.
    assert!(scores.windows(2).all(|w| w[0] == w[1]), "{scores:?}");

    let metrics = render(&kb);
    let misses = metric_value(&metrics, "sya_serve_query_cache_miss_total").unwrap();
    let hits = metric_value(&metrics, "sya_serve_query_cache_hit_total").unwrap();
    // Every caller either led a grounding (miss) or answered from the
    // published entry (hit); coalescing means strictly fewer groundings
    // than callers.
    assert_eq!(misses + hits, CALLERS as f64, "{metrics}");
    assert!(misses < CALLERS as f64, "no coalescing happened: {metrics}");
}

#[test]
fn lazy_batch_query_unions_misses_into_one_grounding() {
    let dataset = dataset();
    let ids = dataset.query_ids();
    let kb = lazy_kb(&dataset);
    let ctx = ExecContext::default();

    let queries: Vec<(String, i64)> = vec![
        ("IsSafe".to_owned(), ids[0]),
        ("IsSafe".to_owned(), ids[1]),
        ("IsSafe".to_owned(), ids[0]), // duplicate: answered once, reported twice
        ("IsSafe".to_owned(), 999_999), // unknown atom: None, not an error
    ];
    let answers = kb.marginal_batch(&queries, &ctx).unwrap();
    assert_eq!(answers.len(), 4);
    assert!(answers[0].is_some() && answers[1].is_some());
    assert_eq!(
        answers[0].as_ref().unwrap().score,
        answers[2].as_ref().unwrap().score,
        "duplicate targets share one answer"
    );
    assert!(answers[3].is_none());

    let metrics = render(&kb);
    // One union grounding for the whole batch: two distinct existing
    // targets, still counted as two misses (two entries were created)
    // but grounded together.
    assert_eq!(metric_value(&metrics, "sya_serve_query_batch_union_total"), Some(1.0));
    assert_eq!(metric_value(&metrics, "sya_serve_query_cache_miss_total"), Some(3.0));
    assert_eq!(metric_value(&metrics, "sya_serve_query_cache_entries"), Some(2.0));

    // Re-asking the *existing* atoms is now pure cache — no second
    // union. (The unknown atom is excluded: misses are never negatively
    // cached, so it would re-ground.)
    let again = kb.marginal_batch(&queries[..3], &ctx).unwrap();
    assert_eq!(again[0].as_ref().unwrap().score, answers[0].as_ref().unwrap().score);
    let metrics = render(&kb);
    assert_eq!(metric_value(&metrics, "sya_serve_query_batch_union_total"), Some(1.0), "{metrics}");
}

/// Full and lazy mode share one row-batch validator (`sya_delta::
/// RowBatch`): the same bad batch is the same 400 body in both, and
/// neither mode's tables move.
#[test]
fn bad_row_batches_get_the_same_400_in_full_and_lazy_mode() {
    let dataset = dataset();
    let obs = Obs::enabled();
    let (session, kb) = build(&dataset, obs.clone());
    let full_state =
        ServingKb::with_live(session, kb, dataset.db.clone(), keyed_evidence(&dataset), obs)
            .expect("spatial KB serves");
    let cfg = || ServeConfig { listen: "127.0.0.1:0".into(), workers: 2, ..ServeConfig::default() };
    let full = SyaServer::start(full_state, cfg()).expect("full server binds");
    let lazy = SyaServer::start(lazy_kb(&dataset), cfg()).expect("lazy server binds");
    let addrs = [full.local_addr().to_string(), lazy.local_addr().to_string()];

    // One well both modes hold exactly one copy of.
    let well = well_json(5000, 40.0, 40.0);
    let op = |op: &str, relation: &str, row: &str| {
        format!("{{\"op\":\"{op}\",\"relation\":\"{relation}\",\"row\":{row}}}")
    };
    let batch = |members: &[String]| format!("{{\"updates\":[{}]}}", members.join(","));
    for addr in &addrs {
        let inserted = post_ok(addr, "/v1/rows", &batch(&[op("insert", "Well", &well)]));
        assert_eq!(inserted["epoch"].as_u64(), Some(1));
    }

    let bad = [
        ("unknown relation", batch(&[op("insert", "Nope", "[1]")]), "Nope"),
        ("arity mismatch", batch(&[op("insert", "Well", "[1]")]), "columns"),
        (
            "retract of a missing row",
            batch(&[op("retract", "Well", &well_json(987654, 1.0, 1.0))]),
            "no matching Well row",
        ),
        (
            "one physical row retracted twice",
            batch(&[op("retract", "Well", &well), op("retract", "Well", &well)]),
            "update #1",
        ),
    ];
    for (what, body, needle) in &bad {
        let answers: Vec<_> =
            addrs.iter().map(|a| http_post_json(a, "/v1/rows", body).unwrap()).collect();
        for r in &answers {
            assert_eq!(r.status, 400, "{what}: {}", r.body);
            assert!(r.body.contains(needle), "{what}: {}", r.body);
        }
        assert_eq!(answers[0].body, answers[1].body, "{what}: full and lazy bodies differ");
    }

    // Nothing moved: the epoch stands, and the well is still there to be
    // retracted exactly once.
    for addr in &addrs {
        assert_eq!(get_ok(addr, "/healthz")["epoch"].as_u64(), Some(1));
        let retracted = post_ok(addr, "/v1/rows", &batch(&[op("retract", "Well", &well)]));
        assert_eq!(retracted["rows_retracted"].as_u64(), Some(1), "{retracted}");
        let again = http_post_json(addr, "/v1/rows", &batch(&[op("retract", "Well", &well)]));
        assert_eq!(again.unwrap().status, 400);
    }
    full.shutdown(Duration::from_secs(10)).expect("no leaked threads");
    lazy.shutdown(Duration::from_secs(10)).expect("no leaked threads");
}
