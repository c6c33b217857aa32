//! Reference (global-search) point operations.
//!
//! These are the *original* point operations of §II-B: iterative global FPS,
//! global ball query, global KNN, gather, and 3-NN interpolation. They are
//! exact, `O(n²)`-style implementations used as (a) the functional baseline
//! the block-parallel versions are validated against, and (b) the source of
//! operation counts consumed by the PointAcc/Mesorasi/GPU cost models.
//!
//! Every operation fills an [`OpCounters`] record with the number of distance
//! evaluations, comparisons, and element-granularity memory touches it
//! performed, so architecture models can be driven by *measured* work rather
//! than closed-form guesses.
//!
//! The hot loops run on the chunked SoA kernels of
//! [`kernels`](crate::kernels); counters are accumulated per scan
//! (analytically) instead of per element, with totals identical to the
//! retained scalar baselines in [`reference`]. Property tests assert
//! index/distance/counter equality between the two paths.

mod ball_query;
mod fps;
mod gather;
mod interpolate;
mod knn;
pub mod reference;

pub use ball_query::{ball_query, BallQueryResult};
pub use fps::{farthest_point_sample, FpsResult};
pub use gather::{gather_features, group_points, GroupedFeatures};
pub use interpolate::{interpolate_features, InterpolationResult};
pub use knn::{k_nearest_neighbors, KnnResult};

use serde::{Deserialize, Serialize};

/// Work counters shared by all point operations.
///
/// Counters are element-granularity: one "memory touch" is one point record
/// (coordinates) or one feature row read or written. The simulator converts
/// touches into bytes with the configured precision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounters {
    /// Euclidean distance evaluations (the RSPU distance-unit workload).
    pub distance_evals: u64,
    /// Scalar comparisons (argmax/argmin/top-k/threshold checks).
    pub comparisons: u64,
    /// Point-coordinate records read.
    pub coord_reads: u64,
    /// Feature rows read.
    pub feature_reads: u64,
    /// Records written (sampled indices, neighbor lists, gathered rows…).
    pub writes: u64,
    /// Candidates skipped by the window-check mechanism (block ops only).
    pub skipped: u64,
    /// Multiply-accumulates executed on *unaggregated* per-point rows — the
    /// MACs a delayed-aggregation (Mesorasi) schedule moves in front of the
    /// aggregation stage. Zero for an eager schedule.
    pub macs_moved: u64,
    /// Multiply-accumulates a delayed-aggregation schedule avoided relative
    /// to the eager gather-then-MLP formulation of the same layer (eager MACs
    /// minus MACs actually executed). Zero for an eager schedule.
    pub macs_saved: u64,
    /// Bytes of materialized grouped-matrix traffic: the duplicated
    /// neighborhood feature rows an eager schedule gathers before its MLP.
    /// Zero for a delayed schedule, which aggregates over index lists.
    pub gather_bytes: u64,
}

impl OpCounters {
    /// Creates zeroed counters.
    pub fn new() -> OpCounters {
        OpCounters::default()
    }

    /// Sums two counter sets (used when aggregating per-block work).
    pub fn merge(&mut self, other: &OpCounters) {
        self.distance_evals += other.distance_evals;
        self.comparisons += other.comparisons;
        self.coord_reads += other.coord_reads;
        self.feature_reads += other.feature_reads;
        self.writes += other.writes;
        self.skipped += other.skipped;
        self.macs_moved += other.macs_moved;
        self.macs_saved += other.macs_saved;
        self.gather_bytes += other.gather_bytes;
    }

    /// Total memory touches (reads + writes), in records.
    pub fn memory_touches(&self) -> u64 {
        self.coord_reads + self.feature_reads + self.writes
    }

    /// Closed-form work model for block FPS: selecting `m` samples out of an
    /// `n`-point block. This is the single source of truth shared by the real
    /// block FPS body in `fractalcloud-core` and the prefix/LOD views, so a
    /// sliced `PipelineOutput::prefix(k)` reports bit-identical counters to a
    /// pipeline actually run at the smaller budget.
    ///
    /// Scan `s` (for `s` in `1..m`) visits `n - s` candidates under the
    /// window check (already-sampled points are skipped) or all `n` without
    /// it; every visit costs one coordinate read, one distance evaluation,
    /// and two comparisons (distance merge + argmax). Each selection —
    /// including the seed — is one write.
    pub fn block_fps_model(n: usize, m: usize, window_check: bool) -> OpCounters {
        let mut counters = OpCounters::new();
        if m == 0 || n == 0 {
            return counters;
        }
        let m = m.min(n);
        let (n64, m64) = (n as u64, m as u64);
        let visited =
            if window_check { (m64 - 1) * n64 - m64 * (m64 - 1) / 2 } else { (m64 - 1) * n64 };
        counters.coord_reads = visited;
        counters.distance_evals = visited;
        counters.comparisons = 2 * visited;
        counters.writes = m64;
        if window_check {
            counters.skipped = m64 * (m64 - 1) / 2;
        }
        counters
    }

    /// Closed-form work model for block ball query: `centers` query rows over
    /// a shared `candidates`-point search space, each row padded to `num`
    /// slots. Shared with the block ball-query body in `fractalcloud-core`
    /// and the prefix/LOD views — see [`OpCounters::block_fps_model`].
    ///
    /// The candidate coordinates are read once per block (even when the block
    /// contributes zero centers); each center evaluates every candidate
    /// (one distance, one comparison) and writes `num` neighbor slots.
    pub fn ball_query_model(candidates: usize, centers: usize, num: usize) -> OpCounters {
        let mut counters = OpCounters::new();
        counters.coord_reads = candidates as u64;
        counters.distance_evals = (centers * candidates) as u64;
        counters.comparisons = (centers * candidates) as u64;
        counters.writes = (centers * num) as u64;
        counters
    }
}

impl std::ops::Add for OpCounters {
    type Output = OpCounters;

    fn add(self, other: OpCounters) -> OpCounters {
        let mut out = self;
        out.merge(&other);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_adds_fields() {
        let a =
            OpCounters { distance_evals: 1, comparisons: 2, coord_reads: 3, ..Default::default() };
        let b = OpCounters { distance_evals: 10, writes: 5, ..Default::default() };
        let c = a + b;
        assert_eq!(c.distance_evals, 11);
        assert_eq!(c.comparisons, 2);
        assert_eq!(c.writes, 5);
        assert_eq!(c.memory_touches(), 3 + 5);
    }

    #[test]
    fn counters_merge_adds_mac_and_gather_fields() {
        let a = OpCounters { macs_moved: 7, macs_saved: 100, ..Default::default() };
        let b = OpCounters { macs_moved: 3, gather_bytes: 64, ..Default::default() };
        let c = a + b;
        assert_eq!(c.macs_moved, 10);
        assert_eq!(c.macs_saved, 100);
        assert_eq!(c.gather_bytes, 64);
        assert_eq!(c.memory_touches(), 0, "MAC/gather counters are not memory touches");
    }
}
