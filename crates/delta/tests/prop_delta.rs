//! Property tests for differential maintenance (vendored `proptest`):
//! for randomized insert/retract sequences against a constructed GWDB
//! knowledge base, the delta-maintained factor graph stays isomorphic
//! (same live factors modulo variable ids) to a from-scratch re-ground
//! of the final database, and the maintained marginals agree with a
//! fresh full construction within sampler tolerance.

use proptest::prelude::*;
use std::collections::HashMap;
use sya_core::{KnowledgeBase, SyaConfig, SyaSession};
use sya_data::{gwdb_dataset, Dataset, GwdbConfig};
use sya_delta::{apply_updates, RowUpdate};
use sya_geom::Point;
use sya_ground::Grounder;
use sya_store::{Row, Value};

fn config() -> SyaConfig {
    SyaConfig::sya().with_epochs(400).with_seed(11).with_bandwidth(15.0).with_spatial_radius(30.0)
}

fn evidence_fn(d: &Dataset) -> impl Fn(&str, &[Value]) -> Option<u32> + Clone {
    let evidence = d.evidence.clone();
    move |_: &str, vals: &[Value]| {
        vals.first().and_then(Value::as_int).and_then(|id| evidence.get(&id).copied())
    }
}

/// A synthetic new well placed inside the GWDB field, keyed by `idx`.
fn new_well(idx: usize) -> Row {
    vec![
        Value::Int(1000 + idx as i64),
        Value::from(Point::new(20.0 + 7.0 * idx as f64, 35.0)),
        Value::Double(if idx.is_multiple_of(2) { 0.08 } else { 0.5 }),
        Value::Double(0.2),
    ]
}

fn scores(kb: &KnowledgeBase) -> HashMap<i64, f64> {
    kb.scores_by_id("IsSafe").into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Ops toggle rows in and out (index < 6 toggles a synthetic new
    /// well; otherwise it toggles an original GWDB row), so every step
    /// is a valid single-update batch. After the whole sequence the
    /// maintained graph must match a from-scratch re-ground of the final
    /// database, and the maintained marginals a fresh full pipeline run.
    #[test]
    fn delta_sequence_matches_from_scratch_reground(
        ops in prop::collection::vec(0usize..10, 1..6),
    ) {
        let mut d = gwdb_dataset(&GwdbConfig { n_wells: 24, ..Default::default() });
        let originals: Vec<Row> =
            d.db.table("Well").unwrap().rows().to_vec();
        let session =
            SyaSession::new(&d.program, d.constants.clone(), d.metric, config()).unwrap();
        let evidence = evidence_fn(&d);
        let mut kb = session.construct(&mut d.db, &evidence).unwrap();

        let mut new_present = [false; 6];
        let mut original_present = [true; 24];
        for &slot in &ops {
            let update = if slot < 6 {
                let row = new_well(slot);
                let present = &mut new_present[slot];
                *present = !*present;
                if *present { RowUpdate::insert("Well", row) } else { RowUpdate::retract("Well", row) }
            } else {
                let i = (slot - 6) * 7 % 24;
                let row = originals[i].clone();
                let present = &mut original_present[i];
                *present = !*present;
                if *present { RowUpdate::insert("Well", row) } else { RowUpdate::retract("Well", row) }
            };
            apply_updates(&session, &mut kb, &mut d.db, &evidence, &[update]).unwrap();
        }

        // Structural parity: same live factors modulo variable ids.
        let mut grounder = Grounder::new(session.compiled(), session.config().ground.clone());
        let fresh = grounder.ground(&mut d.db, &evidence).unwrap();
        prop_assert_eq!(kb.grounding.signature(), fresh.signature());

        // Marginal parity: a fresh full construction over the final
        // database agrees within sampler tolerance on every atom.
        let mut db2 = d.db.clone();
        let session2 =
            SyaSession::new(&d.program, d.constants.clone(), d.metric, config()).unwrap();
        let kb2 = session2.construct(&mut db2, &evidence).unwrap();
        let maintained = scores(&kb);
        let reference = scores(&kb2);
        let mut m_ids: Vec<i64> = maintained.keys().copied().collect();
        let mut r_ids: Vec<i64> = reference.keys().copied().collect();
        m_ids.sort_unstable();
        r_ids.sort_unstable();
        prop_assert_eq!(m_ids, r_ids, "atom sets diverged");
        for (id, score) in &maintained {
            let full = reference[id];
            prop_assert!(
                (score - full).abs() < 0.25,
                "well {}: maintained {:.3} vs fresh {:.3}",
                id, score, full
            );
        }
    }
}
