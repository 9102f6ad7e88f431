//! Inputs: the GWDB tables each workload runs on, the pipeline
//! configurations, and the quality evaluation of the answers.
//!
//! The well field is the repository's canonical GWDB (the generator's
//! default seed): across generator seeds the logical factor count of
//! the 9,831-well program swings 3.3x (202K to 675K), which would make
//! every timing a measurement of the seed. `--seed` instead draws what
//! the harness controls at a fixed input size: the row order of the
//! tables (and so variable ids, join order and sweep order), the
//! sampler seed, the query ids, the request schedule and the wells the
//! serving workloads insert.

use std::collections::{HashMap, HashSet};
use sya_core::{KnowledgeBase, SyaConfig};
use sya_data::gwdb::{GWDB_BANDWIDTH, GWDB_RADIUS};
use sya_data::{gwdb_dataset, supported_ids, Dataset, GwdbConfig, QualityEval};
use sya_store::{Database, Value};

/// The variable relation of the GWDB program.
pub const RELATION: &str = "IsSafe";
/// Domain size of the categorical (Fig. 11) setting.
pub const CATEGORICAL_H: u32 = 10;

/// Sizes and rates of a run. [`Scale::paper`] is what the benchmark
/// measures; [`Scale::smoke`] lets the tests run every workload end to
/// end in about a second.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Wells of the batch, grounding and lazy workloads.
    pub wells: usize,
    /// Wells of the live server's knowledge base.
    pub serve_wells: usize,
    /// Epochs of the binary pipeline (batch and the served KB).
    pub epochs: usize,
    /// Epochs of the categorical pipeline.
    pub cat_epochs: usize,
    /// Epochs of the full KB the lazy answers are compared with.
    pub parity_epochs: usize,
    /// Open-loop read rate of `serve_mixed`, requests per second.
    pub read_rps: f64,
    /// Seconds between the writes of `serve_mixed`.
    pub write_every_s: f64,
    /// Lowest acceptable F1 of `batch_gwdb`.
    pub min_f1: f64,
    /// Highest acceptable mean |lazy - full| score difference. Answers
    /// drawn at random would read 0.5; the default hop-2 closure with
    /// its boundary clamped to the prior reads 0.29 at paper scale (it
    /// flips about three answers in ten), which the benchmark records
    /// as `query.parity_mean_abs_delta` instead of failing on it.
    pub max_parity: f64,
}

impl Scale {
    pub fn paper() -> Scale {
        Scale {
            wells: 9831,
            serve_wells: 3000,
            epochs: 1000,
            cat_epochs: 400,
            parity_epochs: 300,
            read_rps: 100.0,
            write_every_s: 4.0,
            min_f1: 0.90,
            max_parity: 0.40,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            wells: 120,
            serve_wells: 120,
            epochs: 20,
            cat_epochs: 20,
            parity_epochs: 20,
            read_rps: 100.0,
            write_every_s: 0.25,
            // Twenty epochs on 120 wells answer, but not well.
            min_f1: 0.0,
            max_parity: 1.0,
        }
    }
}

/// SplitMix64: the harness's own generator, so the inputs a seed gives
/// do not depend on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A generated dataset plus what evaluating answers on it needs.
pub struct Inputs {
    pub dataset: Dataset,
    /// Query wells with evidence within the support radius (the recall
    /// denominator of the paper's F1).
    pub supported: HashSet<i64>,
    /// Query (non-evidence) well ids, ascending.
    pub query_ids: Vec<i64>,
}

impl Inputs {
    /// Evidence keyed the way the serving layer wants it.
    pub fn evidence_by_atom(&self) -> HashMap<(String, i64), u32> {
        self.dataset
            .evidence
            .iter()
            .map(|(&id, &v)| ((RELATION.to_owned(), id), v))
            .collect()
    }
}

/// Generates the GWDB inputs of `n_wells` wells, rows in `seed` order.
pub fn gwdb_inputs(n_wells: usize, categorical: bool, seed: u64) -> Inputs {
    let cfg = if categorical {
        // The Fig. 11 setting: a smoother field and denser, noisier
        // evidence, so level co-occurrence is informative to pruning.
        GwdbConfig {
            n_wells,
            domain_h: Some(CATEGORICAL_H),
            field_bandwidth: 250.0,
            evidence_fraction: 0.4,
            evidence_noise: 0.15,
            ..GwdbConfig::default()
        }
    } else {
        GwdbConfig {
            n_wells,
            ..GwdbConfig::default()
        }
    };
    let mut dataset = gwdb_dataset(&cfg);

    let generated = dataset
        .db
        .table("Well")
        .expect("the generator creates Well");
    let schema = generated.schema().clone();
    let mut rows = generated.rows().to_vec();
    Rng::new(seed ^ 0x5EED_0DE5).shuffle(&mut rows);
    let mut db = Database::new();
    db.create_table("Well", schema)
        .expect("fresh database")
        .insert_all(rows)
        .expect("same schema");
    dataset.db = db;

    let query_ids = dataset.query_ids();
    let supported = supported_ids(
        &dataset.locations,
        dataset.evidence.keys().copied(),
        &query_ids,
        dataset.support_radius,
        dataset.metric,
    );
    Inputs {
        dataset,
        supported,
        query_ids,
    }
}

/// `SyaConfig::sya()` with the calibrated GWDB weighting, as `sya run
/// --bandwidth 15 --radius 30` has it. Thread defaults are untouched.
pub fn binary_config(epochs: usize, seed: u64) -> SyaConfig {
    SyaConfig::sya()
        .with_epochs(epochs)
        .with_seed(seed)
        .with_bandwidth(GWDB_BANDWIDTH)
        .with_spatial_radius(GWDB_RADIUS)
}

/// The Fig. 11 pipeline: ten levels, pruning threshold `T = 0.3`.
pub fn categorical_config(epochs: usize, seed: u64) -> SyaConfig {
    binary_config(epochs, seed)
        .with_domains(HashMap::from([(RELATION.to_owned(), CATEGORICAL_H)]))
        .with_pruning_threshold(0.3)
}

/// The paper's F1 of binary scores (correct within 0.1 of the truth).
pub fn f1_binary(inputs: &Inputs, scores: &[(i64, f64)]) -> f64 {
    QualityEval::evaluate(scores, &inputs.dataset.truth, &inputs.supported).f1()
}

/// F1 of the categorical KB: with ten levels one level spans 0.1, so
/// "within 0.1" reads "argmax level within one of the true level".
pub fn f1_categorical(inputs: &Inputs, kb: &KnowledgeBase) -> f64 {
    let h = CATEGORICAL_H;
    let graph = &kb.grounding.graph;
    let mut eval = QualityEval {
        predicted: 0,
        correct: 0,
        supported: 0,
        correct_supported: 0,
    };
    for &v in kb.grounding.atoms_of(RELATION) {
        if graph.variable(v).is_evidence() {
            continue;
        }
        let (_, values) = &kb.grounding.atom_meta[v as usize];
        let Some(id) = values.first().and_then(Value::as_int) else {
            continue;
        };
        let Some(&t) = inputs.dataset.truth_prob.get(&id) else {
            continue;
        };
        let truth_level = ((t * f64::from(h)) as i64).min(i64::from(h) - 1);
        let predicted_level = (0..h)
            .max_by(|&a, &b| {
                kb.counts
                    .marginal(v, a)
                    .total_cmp(&kb.counts.marginal(v, b))
            })
            .map_or(0, i64::from);
        let ok = (predicted_level - truth_level).abs() <= 1;
        eval.predicted += 1;
        eval.correct += usize::from(ok);
        if inputs.supported.contains(&id) {
            eval.supported += 1;
            eval.correct_supported += usize::from(ok);
        }
    }
    eval.f1()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_orders_rows_and_nothing_else() {
        let a = gwdb_inputs(60, false, 1);
        let b = gwdb_inputs(60, false, 2);
        let again = gwdb_inputs(60, false, 1);
        let rows = |i: &Inputs| i.dataset.db.table("Well").unwrap().rows().to_vec();
        assert_eq!(
            rows(&a),
            rows(&again),
            "the same seed gives the same inputs"
        );
        assert_ne!(rows(&a), rows(&b), "another seed gives another order");
        let mut sa = rows(&a);
        let mut sb = rows(&b);
        let key = |r: &Vec<Value>| r[0].as_int().unwrap();
        sa.sort_by_key(key);
        sb.sort_by_key(key);
        assert_eq!(sa, sb, "the same wells at every seed");
        assert_eq!(a.dataset.evidence, b.dataset.evidence);
        assert_eq!(a.query_ids.len() + a.dataset.evidence.len(), 60);
    }

    #[test]
    fn rng_is_uniform_enough_and_repeats() {
        let mut r = Rng::new(14);
        let mut s = Rng::new(14);
        let mut buckets = [0usize; 4];
        for _ in 0..4000 {
            let x = r.below(4);
            assert_eq!(x, s.below(4));
            buckets[x] += 1;
        }
        assert!(
            buckets.iter().all(|&b| (800..1200).contains(&b)),
            "{buckets:?}"
        );
        let u = r.unit();
        assert!((0.0..1.0).contains(&u));
    }
}
