//! Point operations (§II-B): farthest point sampling, ball query, KNN and
//! K-NN interpolation.
//!
//! The paper runs all of them on one datapath (RSPU, §V-C); a *global* and
//! a *block-wise* operation differ only in which points are resident
//! (§IV-B). So each operation has one slice-level body here — [`fps_into`],
//! [`ball_query_into`], [`interpolate_into`] — over SoA coordinate slices:
//! the caller resolves the kernel backend once, passes scratch in, and gets
//! results appended to its buffers through a `slot → index` map. A global
//! operation hands a body the whole cloud and the identity map, a block body
//! in `fractalcloud-core` a gathered search space and `candidates[slot]`,
//! the inference executor one pyramid level. The functions taking a
//! [`PointCloud`](crate::PointCloud) and returning an owned result are the
//! one allocating convenience layer over the bodies.
//!
//! A body does no accounting. Every closed form lives on [`OpCounters`]
//! ([`fps_model`](OpCounters::fps_model),
//! [`neighbor_model`](OpCounters::neighbor_model) and its shared-load
//! flavour) beside [`merge_work`], the one rule for combining per-block
//! work; only data-dependent terms (top-k insertion costs, feature rows
//! read) are counted where they happen.
//!
//! The seed's per-point formulations live on as test oracles in the
//! `fractalcloud-oracle` dev-dependency: property tests assert index,
//! distance and counter equality against them on every kernel backend. The
//! parameter checks ([`check_fps`], [`check_k`], [`check_ball_query`]) are
//! public so the oracles share the operations' contracts.

mod ball_query;
mod fps;
mod interpolate;
mod knn;

pub use ball_query::{ball_query, ball_query_into, check_ball_query, BallQueryResult};
pub use fps::{check_fps, farthest_point_sample, fps_into, FpsResult};
pub use interpolate::{interpolate_features, interpolate_into, InterpolationResult};
pub use knn::{check_k, k_nearest_neighbors, KnnResult};

/// Work counters shared by all point operations.
///
/// Counters are element-granularity: one "memory touch" is one point record
/// (coordinates) or one feature row read or written. The simulator converts
/// touches into bytes with the configured precision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

    /// Closed-form work of FPS selecting `m` of `n` resident points — the
    /// whole cloud for a global operation, one block for a block-wise one.
    /// The one source of truth for the executable operations, the
    /// prefix/LOD views (a sliced `PipelineOutput::prefix(k)` reports
    /// bit-identical counters to a pipeline run at the smaller budget) and
    /// the analytic accelerator models.
    ///
    /// Scan `s` (for `s` in `1..m`) visits `n - s` candidates under the
    /// window check (already-sampled points are skipped) or all `n` without
    /// it; every visit costs one coordinate read, one distance evaluation,
    /// and two comparisons (distance merge + argmax). Each selection —
    /// including the seed — is one write.
    pub fn fps_model(n: usize, m: usize, window_check: bool) -> OpCounters {
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

    /// Closed-form work of a neighbour search (ball query or KNN scan) in
    /// which every one of `centers` query rows loads every one of
    /// `candidates` points itself — the global formulation: one coordinate
    /// read, one distance evaluation and one comparison per pair, and `num`
    /// result records written per row.
    pub fn neighbor_model(candidates: usize, centers: usize, num: usize) -> OpCounters {
        let pairs = centers as u64 * candidates as u64;
        OpCounters {
            coord_reads: pairs,
            distance_evals: pairs,
            comparisons: pairs,
            writes: centers as u64 * num as u64,
            ..OpCounters::new()
        }
    }

    /// [`OpCounters::neighbor_model`] for a block whose candidates are
    /// loaded on-chip once and shared by all its query rows (§V-C): the
    /// coordinate reads are `candidates`, even when the block contributes
    /// zero rows; everything else is unchanged.
    pub fn shared_neighbor_model(candidates: usize, centers: usize, num: usize) -> OpCounters {
        OpCounters {
            coord_reads: candidates as u64,
            ..OpCounters::neighbor_model(candidates, centers, num)
        }
    }
}

/// The one rule for combining per-block work: `work` adds to the `total`,
/// and the critical path — what bounds the makespan when blocks run on
/// parallel RSPUs — is the largest single block by distance evaluations,
/// ties to the later block. `peak` is `work` itself for one block, or the
/// critical path of a run of later blocks.
pub fn merge_work(
    total: &mut OpCounters,
    critical: &mut OpCounters,
    work: &OpCounters,
    peak: OpCounters,
) {
    total.merge(work);
    if peak.distance_evals >= critical.distance_evals {
        *critical = peak;
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
        assert_eq!(c.coord_reads, 3);
        assert_eq!(c.writes, 5);
    }

    #[test]
    fn counters_merge_adds_mac_and_gather_fields() {
        let a = OpCounters { macs_moved: 7, macs_saved: 100, ..Default::default() };
        let b = OpCounters { macs_moved: 3, gather_bytes: 64, ..Default::default() };
        let c = a + b;
        assert_eq!(c.macs_moved, 10);
        assert_eq!(c.macs_saved, 100);
        assert_eq!(c.gather_bytes, 64);
        assert_eq!(
            (c.coord_reads, c.feature_reads, c.writes),
            (0, 0, 0),
            "MAC/gather counters are not memory touches"
        );
    }
}
