//! Graph fixtures shared by the crate's unit tests.

use sya_fg::{Factor, FactorGraph, FactorKind, SpatialFactor, VarId, Variable};
use sya_geom::Point;

/// An `n × n` unit grid of binary variables with 4-neighbour spatial
/// factors of weight `w`; variable 0 (the corner) is evidence `1`.
pub(crate) fn grid_graph(n: usize, w: f64) -> FactorGraph {
    let mut g = FactorGraph::new();
    for r in 0..n {
        for c in 0..n {
            let mut v = Variable::binary(0, format!("v{r}_{c}"))
                .at(Point::new(c as f64 + 0.5, r as f64 + 0.5));
            if r == 0 && c == 0 {
                v.evidence = Some(1);
            }
            g.add_variable(v);
        }
    }
    for r in 0..n {
        for c in 0..n {
            let i = (r * n + c) as VarId;
            if c + 1 < n {
                g.add_spatial_factor(SpatialFactor::binary(i, i + 1, w));
            }
            if r + 1 < n {
                g.add_spatial_factor(SpatialFactor::binary(i, i + n as VarId, w));
            }
        }
    }
    g
}

/// `e -> a -> b` with spatial `a ~ b`, evidence `e = 1`; unlocated.
pub(crate) fn chain_graph() -> FactorGraph {
    let mut g = FactorGraph::new();
    let e = g.add_variable(Variable::binary(0, "e").with_evidence(1));
    let a = g.add_variable(Variable::binary(0, "a"));
    let b = g.add_variable(Variable::binary(0, "b"));
    g.add_factor(Factor::new(FactorKind::Imply, vec![e, a], 1.2));
    g.add_factor(Factor::new(FactorKind::Imply, vec![a, b], 0.8));
    g.add_spatial_factor(SpatialFactor::binary(a, b, 0.5));
    g
}

/// A line of spatially linked variables with evidence at one end.
pub(crate) fn line_graph(n: usize) -> FactorGraph {
    let mut g = FactorGraph::new();
    for i in 0..n {
        let mut v = Variable::binary(0, format!("v{i}")).at(Point::new(i as f64 + 0.5, 0.5));
        if i == 0 {
            v.evidence = Some(1);
        }
        g.add_variable(v);
    }
    for i in 1..n as VarId {
        g.add_spatial_factor(SpatialFactor::binary(i - 1, i, 1.0));
    }
    g
}
