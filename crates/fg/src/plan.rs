//! The sweep plan: the Gibbs conditionals of the variables a run sweeps,
//! compiled once into flat edge rows.
//!
//! A binary update needs `E(v = 1) − E(v = 0)` over the factors touching
//! `v`. The reference walk ([`local_energy`](crate::local_energy)) gets
//! it by chasing each adjacency index to a `Factor`, then to its heap
//! scope, then through a value closure — once per value. The plan stores
//! instead one **row** per adjacency entry of each swept binary variable:
//! a `u32` tag (3-bit kind, 29-bit neighbour or factor index) and an
//! `f64` weight, in two parallel arrays (12 B a row). The row kinds:
//!
//! * a binary spatial edge (Eq. 2) to a neighbour;
//! * a two-variable `Imply` with `v` as antecedent, or as consequent;
//! * an `IsTrue` prior on `v`;
//! * a general row holding a logical or spatial factor index, which
//!   falls back to [`Factor::energy`] / [`SpatialFactor::energy`]: n-ary
//!   scopes, `And`/`Or`/`Equal`, categorical and self-loop spatial
//!   factors.
//!
//! **Bit-identical draws.** Rows keep the graph's adjacency order
//! (logical factors first, then spatial), and one pass over them adds to
//! two accumulators `e1` and `e0` exactly the terms, in exactly the
//! order, that the two reference walks add. Both start at `+0.0` and a
//! sum that starts there is never `-0.0`, so adding a `0.0` term never
//! changes it either; the categorical path uses that to skip inactive
//! factors. `tests/energy_props.rs` pins both paths to
//! [`conditional_distribution`](crate::conditional_distribution) by
//! `to_bits`.
//!
//! Categorical variables have no rows: their conditional is one walk over
//! the graph's adjacency into a caller-owned scratch vector (no
//! allocation per update). A logical factor reads only `truthy(x)`, so it
//! adds its `x = 0` energy to `e[0]` and its `x = 1` energy to `e[1..]`;
//! a categorical spatial factor adds only to `e[t_v]`, and only when the
//! neighbour holds its half of the pair.
//!
//! A plan borrows its graph, so it cannot outlive a change to it: a run
//! builds one for exactly the variables it sweeps and drops it at the end.

use crate::energy::normalize;
use crate::factor::{Factor, FactorKind};
use crate::graph::FactorGraph;
use crate::spatial_factor::SpatialFactor;
use crate::variable::VarId;

const KIND_SHIFT: u32 = 29;
const INDEX_MASK: u32 = (1 << KIND_SHIFT) - 1;

/// Binary spatial edge: `+w` when the neighbour equals the value, else `-w`.
const SPATIAL: u32 = 0;
/// `Imply [v, u]`: satisfied unless `v` is true and `u` false.
const ANTECEDENT: u32 = 1;
/// `Imply [u, v]`: satisfied unless `u` is true and `v` false.
const CONSEQUENT: u32 = 2;
/// `IsTrue [v]`: satisfied when `v` is true.
const PRIOR: u32 = 3;
/// Any other logical factor, by index.
const GENERAL_FACTOR: u32 = 4;
/// Any other spatial factor, by index.
const GENERAL_SPATIAL: u32 = 5;

/// Flat edge rows for the binary variables a run sweeps (see the module
/// docs).
#[derive(Debug)]
pub struct SweepPlan<'g> {
    graph: &'g FactorGraph,
    /// `offsets[v]..offsets[v + 1]` index `v`'s rows; the range is empty
    /// for a variable the plan was not built for.
    offsets: Vec<u32>,
    tags: Vec<u32>,
    weights: Vec<f64>,
    general_rows: usize,
}

impl<'g> SweepPlan<'g> {
    /// Compiles rows for every binary variable in `vars` (duplicates and
    /// categorical variables are fine; the latter get no rows).
    ///
    /// # Panics
    /// Panics when a neighbour or factor index does not fit the tag's
    /// 29 bits (more than 536M variables or factors).
    pub fn build(graph: &'g FactorGraph, vars: impl IntoIterator<Item = VarId>) -> Self {
        let n = graph.num_variables();
        let mut has_rows = vec![false; n];
        for v in vars {
            has_rows[v as usize] = graph.variable(v).domain.cardinality() == 2;
        }
        let degree = |v: VarId| graph.factors_of(v).len() + graph.spatial_factors_of(v).len();
        let rows = (0..n as VarId)
            .filter(|&v| has_rows[v as usize])
            .map(degree)
            .sum();
        let mut plan = SweepPlan {
            graph,
            offsets: Vec::with_capacity(n + 1),
            tags: Vec::with_capacity(rows),
            weights: Vec::with_capacity(rows),
            general_rows: 0,
        };
        for v in 0..n as VarId {
            plan.offsets.push(row_offset(plan.tags.len()));
            if has_rows[v as usize] {
                plan.compile(v);
            }
        }
        plan.offsets.push(row_offset(plan.tags.len()));
        plan
    }

    fn compile(&mut self, v: VarId) {
        let g = self.graph;
        for &fi in g.factors_of(v) {
            let f = g.factor(fi);
            let (kind, index) = match (f.kind, f.vars.as_slice()) {
                (FactorKind::Imply, &[a, c]) if a == v && c != v => (ANTECEDENT, c),
                (FactorKind::Imply, &[a, c]) if c == v && a != v => (CONSEQUENT, a),
                (FactorKind::IsTrue, &[x]) if x == v => (PRIOR, 0),
                _ => (GENERAL_FACTOR, fi),
            };
            self.push(kind, index, f.weight);
        }
        for &si in g.spatial_factors_of(v) {
            let s = g.spatial_factor(si);
            match s.domain_pair {
                None if s.a != s.b => self.push(SPATIAL, s.other(v), s.weight),
                _ => self.push(GENERAL_SPATIAL, si, s.weight),
            }
        }
    }

    fn push(&mut self, kind: u32, index: u32, weight: f64) {
        assert!(
            index <= INDEX_MASK,
            "index {index} does not fit a sweep-plan row"
        );
        self.general_rows += usize::from(kind >= GENERAL_FACTOR);
        self.tags.push(kind << KIND_SHIFT | index);
        self.weights.push(weight);
    }

    /// The graph the plan was compiled from.
    pub fn graph(&self) -> &'g FactorGraph {
        self.graph
    }

    /// Total rows.
    pub fn num_rows(&self) -> usize {
        self.tags.len()
    }

    /// Rows that fall back to a factor's own energy function.
    pub fn num_general_rows(&self) -> usize {
        self.general_rows
    }

    /// Rows compiled for `v` (0 for a variable the plan was not built
    /// for, or a categorical one).
    pub fn rows_of(&self, v: VarId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Heap bytes of the plan: one `u32` offset per graph variable plus
    /// 12 B per row.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.offsets.len() * size_of::<u32>()
            + self.tags.len() * (size_of::<u32>() + size_of::<f64>())) as u64
    }

    /// `P(v = 1 | rest)` for a binary variable the plan was built for,
    /// the rest read from `values`: one pass over `v`'s rows.
    pub fn p_true(&self, values: &[u32], v: VarId) -> f64 {
        let rows = self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize;
        let (mut e1, mut e0) = (0.0, 0.0);
        for (&tag, &w) in self.tags[rows.clone()].iter().zip(&self.weights[rows]) {
            let i = tag & INDEX_MASK;
            match tag >> KIND_SHIFT {
                SPATIAL => {
                    let u = values[i as usize];
                    e1 += if u == 1 { w } else { -w };
                    e0 += if u == 0 { w } else { -w };
                }
                ANTECEDENT => {
                    e1 += if Factor::truthy(values[i as usize]) {
                        w
                    } else {
                        0.0
                    };
                    e0 += w;
                }
                CONSEQUENT => {
                    e1 += w;
                    e0 += if Factor::truthy(values[i as usize]) {
                        0.0
                    } else {
                        w
                    };
                }
                PRIOR => {
                    e1 += w;
                    e0 += 0.0;
                }
                GENERAL_FACTOR => {
                    let f = self.graph.factor(i);
                    e1 += f.energy(&|u| if u == v { 1 } else { values[u as usize] });
                    e0 += f.energy(&|u| if u == v { 0 } else { values[u as usize] });
                }
                _ => {
                    let s = self.graph.spatial_factor(i);
                    e1 += spatial_energy(s, values, v, 1);
                    e0 += spatial_energy(s, values, v, 0);
                }
            }
        }
        1.0 / (1.0 + (-(e1 - e0)).exp())
    }

    /// The normalized conditional `P(v = x | rest)` of a categorical (or
    /// any) variable into `probs`, reusing its allocation: one walk over
    /// `v`'s adjacency.
    pub fn conditional_into(&self, values: &[u32], v: VarId, probs: &mut Vec<f64>) {
        let g = self.graph;
        probs.clear();
        probs.resize(g.variable(v).domain.cardinality() as usize, 0.0);
        for &fi in g.factors_of(v) {
            let f = g.factor(fi);
            let e0 = f.energy(&|u| if u == v { 0 } else { values[u as usize] });
            let e1 = f.energy(&|u| if u == v { 1 } else { values[u as usize] });
            probs[0] += e0;
            for e in &mut probs[1..] {
                *e += e1;
            }
        }
        for &si in g.spatial_factors_of(v) {
            let s = g.spatial_factor(si);
            match s.domain_pair {
                Some((ta, tb)) if s.a != s.b => {
                    let (t_v, u, t_u) = if s.a == v {
                        (ta, s.b, tb)
                    } else {
                        (tb, s.a, ta)
                    };
                    if values[u as usize] == t_u {
                        if let Some(e) = probs.get_mut(t_v as usize) {
                            *e += s.energy(ta, tb);
                        }
                    }
                }
                _ => {
                    for (x, e) in probs.iter_mut().enumerate() {
                        *e += spatial_energy(s, values, v, x as u32);
                    }
                }
            }
        }
        normalize(probs);
    }
}

/// `s`'s energy with `v` at `x` and its other endpoint read from `values`.
#[inline]
fn spatial_energy(s: &SpatialFactor, values: &[u32], v: VarId, x: u32) -> f64 {
    let value_of = |u: VarId| if u == v { x } else { values[u as usize] };
    s.energy(value_of(s.a), value_of(s.b))
}

fn row_offset(len: usize) -> u32 {
    u32::try_from(len).expect("a sweep plan holds fewer than 2^32 rows")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::Variable;

    /// `a → b`, `IsTrue(a)`, `And(a, b)`, a binary spatial edge, a
    /// self-loop, and one categorical variable `c` on a categorical pair.
    fn graph() -> FactorGraph {
        let mut g = FactorGraph::new();
        let a = g.add_variable(Variable::binary(0, "a"));
        let b = g.add_variable(Variable::binary(0, "b"));
        let c = g.add_variable(Variable::categorical(0, 3, "c"));
        g.add_factor(Factor::new(FactorKind::Imply, vec![a, b], 1.5));
        g.add_factor(Factor::new(FactorKind::IsTrue, vec![a], -0.4));
        g.add_factor(Factor::new(FactorKind::And, vec![a, b], 0.3));
        g.add_spatial_factor(SpatialFactor::binary(a, b, 0.7));
        g.add_spatial_factor(SpatialFactor::binary(b, b, 0.2));
        g.add_spatial_factor(SpatialFactor::categorical(c, b, 0.9, 2, 1));
        g
    }

    #[test]
    fn rows_take_the_fast_kinds_and_fall_back_for_the_rest() {
        let g = graph();
        let plan = SweepPlan::build(&g, [0, 1, 2, 1]);
        let kinds = |v: usize| -> Vec<u32> {
            let r = plan.offsets[v] as usize..plan.offsets[v + 1] as usize;
            plan.tags[r].iter().map(|t| t >> KIND_SHIFT).collect()
        };
        assert_eq!(kinds(0), [ANTECEDENT, PRIOR, GENERAL_FACTOR, SPATIAL]);
        // `b`: consequent, And, edge to `a`, self-loop, categorical pair.
        assert_eq!(
            kinds(1),
            [
                CONSEQUENT,
                GENERAL_FACTOR,
                SPATIAL,
                GENERAL_SPATIAL,
                GENERAL_SPATIAL
            ]
        );
        assert_eq!(plan.rows_of(2), 0, "categorical variables have no rows");
        assert_eq!(plan.num_rows(), 9);
        assert_eq!(plan.num_general_rows(), 4);
        assert_eq!(plan.approx_bytes(), 4 * 4 + 9 * 12);
    }
}
