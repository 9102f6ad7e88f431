//! Weight learning: fitting the inference rules' weights to training
//! labels by pseudo-likelihood gradient ascent (the conventional MLN
//! learning step; Sya's spatial weights stay closed-form).
//!
//! The example builds a GWDB knowledge base with deliberately *mis-set*
//! hand weights, fits them against the training half of the ground truth,
//! re-runs inference, and evaluates on the held-out half.
//!
//! Run with: `cargo run --release --example learning [n_wells]`

use std::collections::HashSet;
use sya::data::gwdb::{GWDB_BANDWIDTH, GWDB_RADIUS};
use sya::data::{gwdb_dataset, supported_ids, GwdbConfig, QualityEval};
use sya::{SyaConfig, SyaSession};
use sya_infer::LearnConfig;
use sya_store::Value;

fn main() {
    let n_wells: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(800);
    let dataset = gwdb_dataset(&GwdbConfig { n_wells, ..Default::default() });

    // Corrupt the program's hand-tuned weights: all inference rules get a
    // weak uniform 0.05 so learning has something to recover.
    let program = {
        let mut p = dataset.program.clone();
        for w in ["0.7", "0.5", "0.3", "0.4", "0.25", "0.8", "-1.0", "-0.5", "-0.3"] {
            p = p.replace(&format!("@weight({w})"), "@weight(0.05)");
        }
        p
    };

    let config = SyaConfig::sya()
        .with_epochs(600)
        .with_seed(17)
        .with_bandwidth(GWDB_BANDWIDTH)
        .with_spatial_radius(GWDB_RADIUS);
    let session = SyaSession::new(&program, dataset.constants.clone(), dataset.metric, config)
        .expect("program compiles");
    let evidence = dataset.evidence.clone();
    let ev = move |_: &str, vals: &[Value]| {
        vals.first()
            .and_then(Value::as_int)
            .and_then(|id| evidence.get(&id).copied())
    };
    let mut db = dataset.db.clone();
    let mut kb = session.construct(&mut db, &ev).expect("construction succeeds");

    // Split ids: even -> training labels, odd -> held-out evaluation.
    let truth = dataset.truth.clone();
    let training = move |_: &str, vals: &[Value]| {
        vals.first()
            .and_then(Value::as_int)
            .filter(|id| id % 2 == 0)
            .and_then(|id| truth.get(&id).map(|&t| t as u32))
    };

    let eval_heldout = |kb: &sya::KnowledgeBase| -> QualityEval {
        let scores: Vec<(i64, f64)> = kb
            .query_scores_by_id("IsSafe")
            .into_iter()
            .filter(|(id, _)| id % 2 == 1)
            .collect();
        let query: Vec<i64> = scores.iter().map(|(id, _)| *id).collect();
        let supported: HashSet<i64> = supported_ids(
            &dataset.locations,
            dataset.evidence.keys().copied(),
            &query,
            dataset.support_radius,
            dataset.metric,
        );
        QualityEval::evaluate(&scores, &dataset.truth, &supported)
    };

    let before = eval_heldout(&kb);
    println!(
        "before learning (uniform 0.05 weights): held-out F1 = {:.3}",
        before.f1()
    );

    let learned = session.learn_weights(
        &mut kb,
        &training,
        &LearnConfig { learning_rate: 0.3, iterations: 50, l2: 0.01 },
    );
    println!("\nlearned rule weights:");
    for (label, w) in &learned {
        println!("  {label:<4} -> {w:+.3}");
    }

    // Re-run inference under the learned weights.
    let mut db = dataset.db.clone();
    let kb2 = {
        // The session still compiles the corrupted program; transplant the
        // learned weights by re-running inference on the updated graph.
        let pyramid = sya_infer::PyramidIndex::build(&kb.grounding.graph, 8, 64);
        let run = sya_infer::spatial_gibbs_with(
            &kb.grounding.graph,
            &pyramid,
            &kb.config.infer,
            &sya::ExecContext::unbounded(),
        )
        .expect("inference runs");
        kb.counts = run.counts;
        let _ = &mut db;
        &kb
    };
    let after = eval_heldout(kb2);
    println!(
        "\nafter learning: held-out F1 = {:.3} ({:+.0}% vs before)",
        after.f1(),
        100.0 * (after.f1() / before.f1().max(1e-9) - 1.0),
    );
}
