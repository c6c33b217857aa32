//! Hardware merge-sort unit model (PointAcc-style, used for KD-tree
//! partitioning and top-k selection in the baselines).

use crate::energy::TSMC28;

/// Elements the comparator network consumes per cycle: a 16-lane merge
/// sorter (matches the PointAcc sorting-engine scale).
const THROUGHPUT: u64 = 16;

/// Cost of one sort invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SortCost {
    /// Cycles for the full sort.
    pub(crate) cycles: u64,
    /// Comparator operations.
    pub(crate) compares: u64,
    /// Energy in picojoules.
    pub(crate) energy_pj: f64,
}

impl SortCost {
    /// Accumulates another sort (sequential invocations).
    pub(crate) fn merge(&mut self, other: &SortCost) {
        self.cycles += other.cycles;
        self.compares += other.compares;
        self.energy_pj += other.energy_pj;
    }
}

/// Model of a pipelined hardware merge sorter.
///
/// A merge sort of `n` elements makes `⌈log₂ n⌉` passes, each streaming all
/// `n` elements through the merge network at `THROUGHPUT` elements/cycle —
/// the *exclusive, indivisible* operation of Fig. 5 whose latency the
/// KD-tree pays at every node.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Sorter;

impl Sorter {
    /// Creates a sorter model.
    pub(crate) fn new() -> Sorter {
        Sorter
    }

    /// Costs one full sort of `n` elements.
    ///
    /// Merge pass `p` merges sorted runs of length `2^p`; the network's
    /// `THROUGHPUT` lanes are independent two-way mergers, each consuming
    /// one element per cycle, so pass `p` can only use
    /// `min(lanes, runs/2) = min(lanes, n / 2^(p+1))` lanes. The final
    /// passes of a large sort are therefore nearly serial — the
    /// low-utilization regime §III-C blames for KD-tree inefficiency.
    pub(crate) fn sort(&self, n: u64) -> SortCost {
        if n <= 1 {
            return SortCost { cycles: 0, compares: 0, energy_pj: 0.0 };
        }
        let passes = 64 - (n - 1).leading_zeros() as u64; // ceil(log2 n)
        let mut cycles = 0u64;
        for p in 0..passes {
            let merges = (n >> (p + 1)).max(1);
            let lanes = THROUGHPUT.min(merges);
            cycles += n.div_ceil(lanes);
        }
        let compares = passes * n;
        SortCost { cycles, compares, energy_pj: compares as f64 * TSMC28.alu_fp16_pj }
    }

    /// Costs the full KD-tree construction of `n` points with leaf size
    /// `bs`: every level re-sorts all points, and levels run *serially*
    /// because each split depends on the previous sort — the
    /// non-decomposable dependency chain of §III-C.
    pub(crate) fn kd_tree_build(&self, n: u64, bs: u64) -> SortCost {
        let mut total = SortCost { cycles: 0, compares: 0, energy_pj: 0.0 };
        let mut nodes = 1u64;
        loop {
            // `nodes` sorts of `n / nodes` elements each at this level; the
            // sorter is one shared unit, so they serialize.
            let per_node = n / nodes;
            if per_node <= bs {
                break;
            }
            for _ in 0..nodes {
                let c = self.sort(per_node);
                total.merge(&c);
            }
            nodes *= 2;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorter() -> Sorter {
        Sorter::new()
    }

    #[test]
    fn sort_cycles_account_for_merge_utilization() {
        let s = sorter();
        let c = s.sort(1024);
        // Passes 0–5 run at full 16 lanes (64 cycles each); passes 6–9 have
        // only 8/4/2/1 merges and serialize: 128 + 256 + 512 + 1024.
        assert_eq!(c.cycles, 6 * 64 + 128 + 256 + 512 + 1024);
        assert_eq!(c.compares, 10 * 1024);
    }

    #[test]
    fn small_sorts_underutilize_the_network() {
        // Per-element cost rises as n shrinks below the lane count — the
        // small-workload mismatch of §III-C.
        let s = sorter();
        let big = s.sort(65536);
        let small = s.sort(64);
        let big_per = big.cycles as f64 / 65536.0;
        let small_per = small.cycles as f64 / 64.0;
        assert!(small_per > 1.0, "small sorts should cost >1 cycle/elem");
        let _ = big_per;
    }

    #[test]
    fn sort_cycles_grow_superlinearly() {
        let s = sorter();
        let small = s.sort(1_000);
        let big = s.sort(289_000);
        assert!(big.cycles > 200 * small.cycles / 2);
    }

    #[test]
    fn trivial_sorts_are_free() {
        let s = sorter();
        assert_eq!(s.sort(0).cycles, 0);
        assert_eq!(s.sort(1).cycles, 0);
    }

    #[test]
    fn kd_build_dwarfs_single_sort() {
        let s = sorter();
        let single = s.sort(289_000);
        let build = s.kd_tree_build(289_000, 256);
        assert!(build.cycles > 5 * single.cycles);
    }

    #[test]
    fn kd_build_small_input_is_cheap() {
        let s = sorter();
        let c = s.kd_tree_build(100, 256);
        assert_eq!(c.cycles, 0);
    }

    #[test]
    fn deeper_trees_cost_more() {
        let s = sorter();
        let coarse = s.kd_tree_build(65536, 1024);
        let fine = s.kd_tree_build(65536, 64);
        assert!(fine.cycles > coarse.cycles);
    }

    #[test]
    fn energy_tracks_compares() {
        let s = sorter();
        let c = s.sort(4096);
        let t = TSMC28;
        assert!((c.energy_pj - c.compares as f64 * t.alu_fp16_pj).abs() < 1e-9);
    }
}
