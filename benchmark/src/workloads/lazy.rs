//! `lazy_query`: bound marginals on a knowledge base that is never
//! grounded as a whole. Each cold `LazyKb::marginal` demand-grounds the
//! atom's neighbourhood with the seeded evaluator and runs a short
//! restricted chain on it — both hot layers, used differently from the
//! batch run.

use super::{ms, named, repeat_setup, EndToEnd, RunArgs, Tally, CHEAP_SETUPS};
use crate::data::{binary_config, gwdb_inputs, Inputs, Rng, Scale, RELATION};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use sya_core::SyaSession;
use sya_obs::Obs;
use sya_query::{QueryConfig, QueryGrounder};
use sya_runtime::ExecContext;
use sya_serve::{LazyConfig, LazyKb};

fn session(inputs: &Inputs, scale: &Scale, seed: u64) -> Result<SyaSession, String> {
    let d = &inputs.dataset;
    SyaSession::new(
        &d.program,
        d.constants.clone(),
        d.metric,
        binary_config(scale.epochs, seed),
    )
    .map_err(|e| format!("the GWDB program does not compile: {e}"))
}

/// The default per-request chain (hop 2, 240 epochs, one worker),
/// seeded from the run's seed.
fn query_config(seed: u64) -> QueryConfig {
    let mut cfg = QueryConfig::default();
    cfg.infer.seed = seed;
    cfg
}

fn lazy_kb(inputs: &Inputs, session: &SyaSession, seed: u64, obs: Obs) -> Result<LazyKb, String> {
    LazyKb::new(
        session.compiled().clone(),
        session.config().ground.clone(),
        inputs.dataset.db.clone(),
        inputs.evidence_by_atom(),
        LazyConfig {
            query: query_config(seed),
            ..LazyConfig::default()
        },
        obs,
    )
    .map_err(|e| format!("cannot build the lazy KB: {e}"))
}

/// Ids per tranche: small, so that all but the last few ids a run asks
/// are the same at every seed.
const TRANCHE: usize = 50;

/// The query ids in the order this seed asks for them. Neighbourhood
/// size varies tenfold over the field, so a few hundred ids drawn
/// afresh per seed would make the tail a measure of the draw. Instead
/// the ids come in tranches fixed by the tables — every k-th query id,
/// so each tranche is spread over the whole field — and the seed orders
/// each tranche. A run asks as many tranches as its time allows; only
/// the last, partial one differs between seeds.
fn query_order(inputs: &Inputs, seed: u64) -> Vec<i64> {
    let stride = inputs.query_ids.len().div_ceil(TRANCHE).max(1);
    let mut rng = Rng::new(seed ^ 0x1A2B);
    let mut order = Vec::with_capacity(inputs.query_ids.len());
    for offset in 0..stride {
        let mut tranche: Vec<i64> = inputs
            .query_ids
            .iter()
            .skip(offset)
            .step_by(stride)
            .copied()
            .collect();
        rng.shuffle(&mut tranche);
        order.extend(tranche);
    }
    order
}

/// Cold marginals over `ids`, stopping once `budget` has passed;
/// returns `(id, score, latency)` of each query answered.
fn cold_pass(
    kb: &LazyKb,
    ids: &[i64],
    budget: Duration,
    tally: &mut Tally,
) -> Vec<(i64, f64, Duration)> {
    let ctx = ExecContext::unbounded();
    let start = Instant::now();
    let mut out = Vec::new();
    for &id in ids {
        let t = Instant::now();
        let answer = kb.marginal(RELATION, id, &ctx);
        let wall = t.elapsed();
        match answer {
            Ok(Some(a)) => {
                tally.check(
                    (0.0..=1.0).contains(&a.score) && a.evidence.is_none(),
                    || {
                        format!(
                            "{RELATION}({id}) answered {} (evidence {:?})",
                            a.score, a.evidence
                        )
                    },
                );
                out.push((id, a.score, wall));
            }
            Ok(None) => tally.check(false, || {
                format!("{RELATION}({id}) is unknown to the lazy KB")
            }),
            Err(e) => tally.check(false, || format!("{RELATION}({id}) failed: {e}")),
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    out
}

/// The twenty evidence atoms of lowest id, with their observed values.
fn some_evidence(inputs: &Inputs) -> Vec<(i64, u32)> {
    let mut observed: Vec<(i64, u32)> = inputs
        .dataset
        .evidence
        .iter()
        .map(|(&id, &v)| (id, v))
        .collect();
    observed.sort_unstable();
    observed.truncate(20);
    observed
}

/// Evidence atoms must be answered with their observed value.
fn check_evidence_answers(kb: &LazyKb, inputs: &Inputs, tally: &mut Tally) {
    let ctx = ExecContext::unbounded();
    for (id, value) in some_evidence(inputs) {
        let answer = kb.marginal(RELATION, id, &ctx);
        let ok = matches!(&answer, Ok(Some(a)) if a.evidence == Some(value) && a.score == f64::from(value));
        tally.check(ok, || {
            format!("evidence atom {RELATION}({id}) = {value} answered {answer:?}")
        });
    }
}

/// Mean |lazy − full| over the answered ids, against a full KB of the
/// same tables (built here, outside every timed part).
fn parity(
    inputs: &Inputs,
    scale: &Scale,
    seed: u64,
    answers: &[(i64, f64, Duration)],
    tally: &mut Tally,
) -> Result<f64, String> {
    let d = &inputs.dataset;
    let config = binary_config(scale.parity_epochs, seed);
    let full = SyaSession::new(&d.program, d.constants.clone(), d.metric, config)
        .and_then(|s| s.construct(&mut d.db.clone(), &d.evidence_fn()))
        .map_err(|e| format!("cannot build the full KB to compare with: {e}"))?;
    let full_scores: HashMap<i64, f64> = full.query_scores_by_id(RELATION).into_iter().collect();
    let deltas: Vec<f64> = answers
        .iter()
        .filter_map(|(id, score, _)| full_scores.get(id).map(|full| (score - full).abs()))
        .collect();
    tally.check(deltas.len() == answers.len(), || {
        format!(
            "{} of {} lazy answers have a full-KB score",
            deltas.len(),
            answers.len()
        )
    });
    let delta = mean(&deltas);
    tally.check(delta <= scale.max_parity, || {
        format!(
            "mean |lazy - full| is {delta:.4}, above {}",
            scale.max_parity
        )
    });
    Ok(delta)
}

pub(super) fn end_to_end(
    args: &RunArgs,
    scale: &Scale,
    tally: &mut Tally,
) -> Result<EndToEnd, String> {
    let ((inputs, kb), setups_s) = repeat_setup(
        CHEAP_SETUPS,
        || {
            let inputs = gwdb_inputs(scale.wells, false, args.seed);
            let kb = lazy_kb(
                &inputs,
                &session(&inputs, scale, args.seed)?,
                args.seed,
                Obs::disabled(),
            )?;
            Ok((inputs, kb))
        },
        |_| Ok(()),
    )?;

    let ids = query_order(&inputs, args.seed);
    let answers = cold_pass(&kb, &ids, Duration::from_secs_f64(args.seconds), tally);
    check_evidence_answers(&kb, &inputs, tally);
    let delta = parity(&inputs, scale, args.seed, &answers, tally)?;
    eprintln!(
        "{}: {} cold queries, mean |lazy - full| {delta:.4}",
        args.workload,
        answers.len()
    );
    Ok(EndToEnd {
        setups_s,
        ops_ms: answers.iter().map(|(_, _, wall)| ms(*wall)).collect(),
    })
}

/// 200 queries untraced through `LazyKb`, the same 200 split into
/// neighbourhood and answer through `QueryGrounder`, then a cold and a
/// hot pass through an observed `LazyKb` for the cache counters.
pub(super) fn traced(
    args: &RunArgs,
    scale: &Scale,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Vec<(String, f64)>, String> {
    let inputs = gwdb_inputs(scale.wells, false, args.seed);
    let session = session(&inputs, scale, args.seed)?;
    let mut ids = query_order(&inputs, args.seed);
    ids.truncate(200);
    let unbounded = Duration::from_secs(3600);

    let kb = lazy_kb(&inputs, &session, args.seed, Obs::disabled())?;
    let untraced = cold_pass(&kb, &ids, unbounded, tally);
    let untraced_ms: Vec<f64> = untraced.iter().map(|(_, _, wall)| ms(*wall)).collect();
    let delta = parity(&inputs, scale, args.seed, &untraced, tally)?;
    drop(kb);

    // The two halves of a cold query, through the layer's own entry
    // points (what `LazyKb` calls under its engine lock).
    let mut grounder = QueryGrounder::new(
        session.compiled().clone(),
        session.config().ground.clone(),
        query_config(args.seed),
    );
    let mut db = inputs.dataset.db.clone();
    let evidence = inputs.dataset.evidence_fn();
    let ctx = ExecContext::unbounded();
    let (mut vars, mut factors, mut clamped, mut chain_ns) = (vec![], vec![], vec![], vec![]);
    let epochs = grounder.config().infer.epochs;
    for (op, &id) in ids.iter().enumerate() {
        let op = op as u64;
        let root = tracer.open("query", op, None);
        let nh = tracer.time("query.neighborhood", op, Some(root), || {
            grounder.neighborhood(&mut db, &evidence, RELATION, id, &ctx)
        });
        let answer = nh.and_then(|nh| {
            let free = nh
                .grounding
                .graph
                .variables()
                .iter()
                .filter(|v| !v.is_evidence())
                .count();
            tracer
                .time("query.answer", op, Some(root), || {
                    grounder.answer(&nh, &ctx)
                })
                .map(|a| (a, free))
        });
        tracer.close(root);
        match answer {
            Ok((a, free)) => {
                tally.check((0.0..=1.0).contains(&a.score) && a.stats.sampled, || {
                    format!(
                        "{RELATION}({id}) answered {} (sampled: {})",
                        a.score, a.stats.sampled
                    )
                });
                vars.push(a.stats.variables as f64);
                factors.push((a.stats.logical_factors + a.stats.spatial_factors) as f64);
                clamped.push(a.stats.boundary_clamped as f64);
                chain_ns.push(a.stats.infer_time.as_nanos() as f64 / (free.max(1) * epochs) as f64);
            }
            Err(e) => tally.check(false, || format!("{RELATION}({id}) failed: {e}")),
        }
    }
    // An evidence seed is answered from the observation; no chain runs.
    for (id, value) in some_evidence(&inputs) {
        let answer = grounder.marginal(&mut db, &evidence, RELATION, id, &ctx);
        let ok = matches!(&answer, Ok(a) if !a.stats.sampled && a.evidence == Some(value));
        tally.check(ok, || {
            format!("evidence atom {RELATION}({id}) = {value} was sampled")
        });
    }

    // The cache, by the serving layer's own counters: every first ask
    // misses, every repeat hits.
    let obs = Obs::enabled();
    let kb = lazy_kb(&inputs, &session, args.seed, obs.clone())?;
    let counter = |name: &str| {
        obs.metrics_snapshot()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0) as f64
    };
    let cold = cold_pass(&kb, &ids, unbounded, tally);
    let hit_share_cold = counter("serve.query.cache_hit_total") / cold.len().max(1) as f64;
    let cold_scores: HashMap<i64, f64> = cold.iter().map(|&(id, score, _)| (id, score)).collect();
    let (hits_before, mut hot_us, mut asked) = (counter("serve.query.cache_hit_total"), vec![], 0);
    for _ in 0..20 {
        for &id in &ids {
            let t = Instant::now();
            let answer = kb.marginal(RELATION, id, &ctx);
            hot_us.push(t.elapsed().as_secs_f64() * 1e6);
            asked += 1;
            let same = matches!(&answer, Ok(Some(a)) if cold_scores.get(&id) == Some(&a.score));
            tally.check(same, || {
                format!("cached {RELATION}({id}) differs from its first answer")
            });
        }
    }
    let hit_share_hot = (counter("serve.query.cache_hit_total") - hits_before) / asked as f64;
    tally.check(hit_share_cold == 0.0 && hit_share_hot == 1.0, || {
        format!("cache hit share is {hit_share_cold} cold and {hit_share_hot} hot; want 0 and 1")
    });

    let p50 = |name: &str| median(&tracer.durations_ms(name));
    Ok(named([
        ("query.neighborhood_ms_p50", p50("query.neighborhood")),
        ("query.answer_ms_p50", p50("query.answer")),
        ("query.nh_variables_mean", mean(&vars)),
        ("query.nh_factors_mean", mean(&factors)),
        ("query.boundary_clamped_mean", mean(&clamped)),
        ("query.chain_ns_per_var_update", median(&chain_ns)),
        ("query.parity_mean_abs_delta", delta),
        ("serve.cache_hit_share_cold", hit_share_cold),
        ("serve.cache_hit_share_hot", hit_share_hot),
        ("serve.cache_entries", kb.cache_shape().0 as f64),
        ("serve.cache_hit_us_p50", median(&hot_us)),
        (
            "trace.overhead_share",
            p50("query") / median(&untraced_ms) - 1.0,
        ),
    ]))
}
