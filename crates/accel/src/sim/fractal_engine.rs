//! Fractal engine cycle model (Fig. 9): pipelined partition + midpoint
//! units, with uniform and KD-tree modes sharing the datapath.

use crate::energy::TSMC28;
use crate::sorter::Sorter;
use fractalcloud_pointcloud::partition::PartitionCost;

/// Parallel comparator lanes in the partition unit (points per cycle).
const PARTITION_LANES: u64 = 16;
/// Pipeline flush cycles between iterations (mask write-back + block
/// pointer update, Fig. 9(c)).
const ITERATION_OVERHEAD: u64 = 8;

/// Cost of building a partition on the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionEngineCost {
    /// Total cycles.
    pub cycles: u64,
    /// Datapath energy in pJ.
    pub(crate) energy_pj: f64,
}

/// The fractal engine: costs partitioning work measured by the software
/// partitioners ([`PartitionCost`]) on the hardware datapath.
///
/// * **Fractal / uniform / octree** — traversal work flows through the
///   pipelined partition + midpoint-comparator lanes; iterations serialize
///   (level `i+1` needs level `i`'s midpoints) but all blocks within an
///   iteration stream back-to-back.
/// * **KD-tree** — sorting work is delegated to the merge-sort unit; sorts
///   serialize (§III-C, the exclusive sorter).
///
/// # Examples
///
/// ```
/// use fractalcloud_accel::sim::FractalEngine;
/// use fractalcloud_pointcloud::partition::PartitionCost;
///
/// let engine = FractalEngine::new();
/// let cost = PartitionCost {
///     traversal_elements: 11 * 289_000,
///     traversal_passes: 11,
///     ..Default::default()
/// };
/// let fractal = engine.traversal_partition(&cost);
/// let kd = engine.kd_tree_partition(289_000, 256);
/// assert!(kd.cycles > 50 * fractal.cycles); // Fig. 16: ≈133× faster
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FractalEngine {
    sorter: Sorter,
}

impl FractalEngine {
    /// The FractalCloud engine: 16 partition lanes, an 8-cycle iteration
    /// turnover, and a 16-lane sorter for KD mode.
    pub fn new() -> FractalEngine {
        FractalEngine { sorter: Sorter::new() }
    }

    /// Costs a traversal-based partition (fractal, uniform grid, octree)
    /// from its measured cost record.
    pub fn traversal_partition(&self, cost: &PartitionCost) -> PartitionEngineCost {
        let stream_cycles = cost.traversal_elements.div_ceil(PARTITION_LANES);
        let overhead = cost.traversal_passes * ITERATION_OVERHEAD;
        // Each element passes one comparator (partition) and one min/max
        // update pair (midpoint comp) — both per Fig. 9(a).
        let energy = cost.traversal_elements as f64 * 3.0 * TSMC28.alu_fp16_pj
            + cost.compare_ops as f64 * TSMC28.alu_fp16_pj;
        PartitionEngineCost { cycles: stream_cycles + overhead, energy_pj: energy }
    }

    /// Costs a KD-tree partition of `n` points at leaf size `bs` on the
    /// sorter unit.
    pub fn kd_tree_partition(&self, n: u64, bs: u64) -> PartitionEngineCost {
        let sort = self.sorter.kd_tree_build(n, bs);
        // Post-sort scatter of each level is hidden behind the next sort.
        PartitionEngineCost { cycles: sort.cycles, energy_pj: sort.energy_pj }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> FractalEngine {
        FractalEngine::new()
    }

    #[test]
    fn fractal_cost_is_linear_in_elements() {
        let e = engine();
        let mk = |elems: u64, passes: u64| PartitionCost {
            traversal_elements: elems,
            traversal_passes: passes,
            ..Default::default()
        };
        let small = e.traversal_partition(&mk(10_000, 4));
        let big = e.traversal_partition(&mk(100_000, 7));
        assert!(big.cycles < 11 * small.cycles);
        assert!(big.cycles > 8 * small.cycles);
    }

    #[test]
    fn kd_tree_is_orders_of_magnitude_slower_at_scale() {
        let e = engine();
        // Fig. 16: Fractal partitions ~133× faster than KD-tree.
        let fractal = e.traversal_partition(&PartitionCost {
            traversal_elements: 11 * 289_000,
            traversal_passes: 11,
            compare_ops: 3 * 289_000,
            ..Default::default()
        });
        let kd = e.kd_tree_partition(289_000, 256);
        let ratio = kd.cycles as f64 / fractal.cycles as f64;
        assert!(ratio > 30.0, "kd/fractal ratio {ratio}");
    }

    #[test]
    fn empty_cost_is_free_modulo_overhead() {
        let e = engine();
        let c = e.traversal_partition(&PartitionCost::default());
        assert_eq!(c.cycles, 0);
        assert_eq!(c.energy_pj, 0.0);
    }
}
