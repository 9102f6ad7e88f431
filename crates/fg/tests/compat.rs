//! Compatibility with graphs and checkpoints written before the
//! higher-order region-factor extension was removed.
//!
//! Checkpoints record `FactorGraph::fingerprint`, and `--checkpoint-dir`
//! keeps a saved graph beside them, so both the hash and the file format
//! must outlive the removal: an old graph without region factors loads
//! and hashes as before, and one with region factors is refused rather
//! than sampled as a different model.

use sya_fg::{Factor, FactorGraph, FactorKind, PersistError, SpatialFactor, Variable};
use sya_geom::Point;

/// Binary and categorical variables, evidence, locations, every logical
/// factor kind, both spatial factor forms and one tombstoned factor.
fn fixture() -> FactorGraph {
    let mut g = FactorGraph::new();
    let a = g.add_variable(Variable::binary(0, "a").at(Point::new(0.5, -1.25)));
    let b = g.add_variable(Variable::binary(0, "b").at(Point::new(3.0, 4.0)).with_evidence(1));
    let c = g.add_variable(Variable::categorical(0, 3, "c").at(Point::new(2.0, 2.0)));
    let d = g.add_variable(Variable::categorical(0, 4, "d").with_evidence(2));
    g.add_factor(Factor::new(FactorKind::Imply, vec![a, b], 1.5));
    g.add_factor(Factor::new(FactorKind::And, vec![a, c], 0.75));
    g.add_factor(Factor::new(FactorKind::Or, vec![b, c, d], -0.5));
    g.add_factor(Factor::new(FactorKind::Equal, vec![a, d], 0.25));
    g.add_factor(Factor::new(FactorKind::IsTrue, vec![c], 2.0));
    g.add_spatial_factor(SpatialFactor::binary(a, b, 0.8));
    g.add_spatial_factor(SpatialFactor::categorical(c, d, 0.6, 1, 2));
    g.remove_factor(2);
    g
}

/// The fixture's fingerprint as computed by the code that still had
/// region factors (the empty region list hashed as one zero word).
const FIXTURE_FINGERPRINT: u64 = 0xf7c2_148e_a0c7_a4ed;

/// The fixture as that code saved it: empty `region_factors` and one
/// empty `var_region` list per variable.
const OLD_FORMAT: &str = r#"{"variables":[{"id":0,"domain":"Binary","location":{"x":0.5,"y":-1.25},"evidence":null,"name":"a"},{"id":1,"domain":"Binary","location":{"x":3.0,"y":4.0},"evidence":1,"name":"b"},{"id":2,"domain":{"Categorical":3},"location":{"x":2.0,"y":2.0},"evidence":null,"name":"c"},{"id":3,"domain":{"Categorical":4},"location":null,"evidence":2,"name":"d"}],"factors":[{"kind":"Imply","vars":[0,1],"weight":1.5},{"kind":"And","vars":[0,2],"weight":0.75},{"kind":"Or","vars":[1,2,3],"weight":0.0},{"kind":"Equal","vars":[0,3],"weight":0.25},{"kind":"IsTrue","vars":[2],"weight":2.0}],"spatial_factors":[{"a":0,"b":1,"weight":0.8,"domain_pair":null},{"a":2,"b":3,"weight":0.6,"domain_pair":[1,2]}],"region_factors":[],"var_factors":[[0,1,3],[0],[1,4],[3]],"var_spatial":[[0],[0],[1],[1]],"var_region":[[],[],[],[]],"factor_dead":[false,false,true,false,false],"spatial_dead":[],"var_dead":[],"factor_free":[2],"spatial_free":[]}"#;

#[test]
fn fingerprint_is_pinned() {
    assert_eq!(fixture().fingerprint(), FIXTURE_FINGERPRINT);
}

#[test]
fn old_format_without_region_factors_loads_with_the_same_fingerprint() {
    let g = FactorGraph::load(OLD_FORMAT.as_bytes()).unwrap();
    assert_eq!(g.fingerprint(), FIXTURE_FINGERPRINT);
    assert_eq!(g.num_variables(), 4);
    assert_eq!(g.num_live_factors(), 4);
    assert!(g.is_factor_dead(2));
    assert_eq!(g.spatial_factors_of(3), &[1]);
    // A fresh save drops the removed keys and still round-trips.
    let mut buf = Vec::new();
    g.save(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(!text.contains("region"), "{text}");
    let again = FactorGraph::load(text.as_bytes()).unwrap();
    assert_eq!(again.fingerprint(), FIXTURE_FINGERPRINT);
}

#[test]
fn old_format_with_a_region_factor_is_rejected() {
    let with_region = OLD_FORMAT
        .replace(
            r#""region_factors":[]"#,
            r#""region_factors":[{"vars":[0,1,2],"weight":0.5}]"#,
        )
        .replace(r#""var_region":[[],[],[],[]]"#, r#""var_region":[[0],[0],[0],[]]"#);
    assert_ne!(with_region, OLD_FORMAT);
    match FactorGraph::load(with_region.as_bytes()) {
        Err(e @ PersistError::Unsupported(_)) => {
            assert!(e.to_string().contains("region factors"), "{e}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
}
