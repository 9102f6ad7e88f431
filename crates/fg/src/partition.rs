//! Shard-interface metadata over a factor graph.
//!
//! Given an assignment of every variable to one of `N` shards, each
//! factor is either **interior** (all endpoints on one shard) or
//! **boundary** (spans shards), and each variable is, from a shard's
//! point of view, either **owned** or a **halo** — a read-only replica
//! of a neighbouring shard's variable that a boundary factor needs for
//! conditional computation. The sharded sampler in `sya-shard` consumes
//! this classification to size its halo exchange; the gauges it exports
//! (`shard.boundary_factors`, `shard.halo_bytes`) come straight from
//! here.

use crate::graph::FactorGraph;
use crate::variable::VarId;

/// Per-shard halo/boundary classification of a partitioned graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInterface {
    /// Factors (logical and spatial) whose endpoints all live on
    /// one shard.
    pub interior_factors: usize,
    /// Factors spanning at least two shards.
    pub boundary_factors: usize,
    /// Per shard: the halo variables — every variable owned elsewhere
    /// that shares a factor with one of the shard's own variables.
    /// Sorted, deduplicated.
    pub halo: Vec<Vec<VarId>>,
    /// Per shard: how many boundary factors touch it.
    pub boundary_per_shard: Vec<usize>,
}

impl ShardInterface {
    /// Bytes a full halo exchange moves for one shard: one `u32` state
    /// word per halo variable.
    pub fn halo_bytes(&self, shard: usize) -> usize {
        self.halo.get(shard).map_or(0, |h| h.len() * std::mem::size_of::<u32>())
    }

    /// Total halo replicas across all shards.
    pub fn halo_vars_total(&self) -> usize {
        self.halo.iter().map(Vec::len).sum()
    }
}

impl FactorGraph {
    /// Classifies every factor of the graph as interior or boundary
    /// under `owner` (one shard id per variable, each `< shards`) and
    /// collects each shard's halo set.
    ///
    /// # Panics
    /// Panics when `owner` does not cover every variable or names a
    /// shard `>= shards`.
    pub fn shard_interface(&self, owner: &[u32], shards: usize) -> ShardInterface {
        assert_eq!(
            owner.len(),
            self.num_variables(),
            "owner map must cover every variable"
        );
        assert!(
            owner.iter().all(|&s| (s as usize) < shards),
            "owner map names a shard out of range"
        );
        let mut interface = ShardInterface {
            interior_factors: 0,
            boundary_factors: 0,
            halo: vec![Vec::new(); shards],
            boundary_per_shard: vec![0; shards],
        };
        let mut classify = |vars: &mut dyn Iterator<Item = VarId>| {
            let vars: Vec<VarId> = vars.collect();
            let first = match vars.first() {
                Some(&v) => owner[v as usize],
                None => return,
            };
            if vars.iter().all(|&v| owner[v as usize] == first) {
                interface.interior_factors += 1;
                return;
            }
            interface.boundary_factors += 1;
            let mut touched: Vec<u32> = vars.iter().map(|&v| owner[v as usize]).collect();
            touched.sort_unstable();
            touched.dedup();
            for &s in &touched {
                interface.boundary_per_shard[s as usize] += 1;
                // Halo of shard s: the factor's variables owned elsewhere.
                for &v in &vars {
                    if owner[v as usize] != s {
                        interface.halo[s as usize].push(v);
                    }
                }
            }
        };
        for f in self.factors() {
            classify(&mut f.vars.iter().copied());
        }
        for f in self.spatial_factors() {
            classify(&mut [f.a, f.b].into_iter());
        }
        for h in &mut interface.halo {
            h.sort_unstable();
            h.dedup();
        }
        interface
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{Factor, FactorKind};
    use crate::spatial_factor::SpatialFactor;
    use crate::variable::Variable;

    fn line(n: usize) -> FactorGraph {
        let mut g = FactorGraph::new();
        for i in 0..n {
            g.add_variable(Variable::binary(0, format!("v{i}")));
        }
        for i in 0..n - 1 {
            g.add_spatial_factor(SpatialFactor::binary(i as VarId, i as VarId + 1, 1.0));
        }
        g
    }

    #[test]
    fn interior_and_boundary_factors_partition_the_factor_set() {
        // 4 vars in a line, cut down the middle: one boundary factor.
        let g = line(4);
        let iface = g.shard_interface(&[0, 0, 1, 1], 2);
        assert_eq!(iface.interior_factors, 2);
        assert_eq!(iface.boundary_factors, 1);
        assert_eq!(iface.boundary_per_shard, vec![1, 1]);
        // Shard 0's halo is var 2 (owned by 1, adjacent to var 1).
        assert_eq!(iface.halo[0], vec![2]);
        assert_eq!(iface.halo[1], vec![1]);
        assert_eq!(iface.halo_bytes(0), 4);
        assert_eq!(iface.halo_vars_total(), 2);
    }

    #[test]
    fn single_shard_has_no_boundary() {
        let g = line(5);
        let iface = g.shard_interface(&[0; 5], 1);
        assert_eq!(iface.boundary_factors, 0);
        assert_eq!(iface.interior_factors, 4);
        assert!(iface.halo[0].is_empty());
    }

    #[test]
    fn logical_factors_spanning_shards_are_boundary() {
        let mut g = line(3);
        g.add_factor(Factor::new(FactorKind::Imply, vec![0, 2], 1.5));
        let iface = g.shard_interface(&[0, 0, 1], 2);
        // Spatial 1-2 and logical 0-2 span the cut.
        assert_eq!(iface.boundary_factors, 2);
        assert_eq!(iface.halo[0], vec![2]);
        // Shard 1 sees both 0 (logical) and 1 (spatial) as halo.
        assert_eq!(iface.halo[1], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "owner map must cover")]
    fn short_owner_map_panics() {
        line(3).shard_interface(&[0, 0], 2);
    }
}
