//! Implicit level-of-detail views over pipeline output.
//!
//! Block-parallel FPS is greedy: a block's selection at step `s` depends
//! only on the `s − 1` points already selected, so the first `c` samples of
//! a block's order are *exactly* what a run budgeted at `c` would select.
//! Ball-query grouping is per-center independent, so a prefix of centers
//! owns a prefix of neighbor rows. Together these make every prefix of a
//! full pipeline run a valid smaller-budget run — the "implicit LOD by
//! point ordering" idea — provided blocks are interleaved by a schedule
//! that is itself prefix-monotone.
//!
//! [`SampleOrder`] is that schedule: a coarse-to-fine global ordering built
//! from the *full* per-block sample counts, in which block `b`'s `j`-th
//! sample (of `c_b`) sorts by the exact rational `j / c_b` (ties to the
//! lower block index). Truncating the schedule at any `k` yields per-block
//! counts that grow monotonically with `k`, which is what makes
//! [`PipelineOutput::prefix`] a pure slicing operation. Note this is *not*
//! the largest-remainder allocator re-run at rate `k/total` — that
//! allocator is not house-monotone (the Alabama paradox), so a budget-`k`
//! run is **defined** as: derive per-block counts from `schedule[..k]`,
//! then run the ordinary kernels at those counts
//! ([`Pipeline::run_with_partition_budget`](crate::Pipeline::run_with_partition_budget)).
//!
//! Counters in sliced views come from the same closed-form models the real
//! kernel drivers use ([`OpCounters::fps_model`],
//! [`ball_query_block_model`]) and are merged by the same per-block rule
//! the block driver applies, so `prefix(k)` is bit-identical — indices,
//! distances, counters, reuse, critical path — to actually running the
//! pipeline at budget `k`.

use crate::bppo::{ball_query_block_model, BlockFpsResult, BlockNeighborResult};
use crate::pipeline::PipelineOutput;
use fractalcloud_pointcloud::ops::OpCounters;
use fractalcloud_pointcloud::partition::Partition;

/// The full coarse-to-fine sample ordering of one pipeline run — the
/// quality ordering block-parallel FPS computes and a fixed-budget output
/// would otherwise throw away.
///
/// `schedule[r]` is the block that contributes the sample of global
/// coarse-to-fine rank `r`; block `b`'s samples appear in their FPS
/// selection order. `block_sizes` / `cand_sizes` carry the per-block point
/// and candidate-set populations so sliced views can reconstruct work
/// counters without touching the partition again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleOrder {
    /// Block index per global coarse-to-fine rank (length = total samples).
    pub schedule: Vec<u32>,
    /// Points per leaf block (counter-model input for FPS).
    pub block_sizes: Vec<usize>,
    /// Parent-search-space candidate count per leaf block (counter-model
    /// input for grouping; parent expansion is always on in the pipeline).
    pub cand_sizes: Vec<usize>,
}

impl SampleOrder {
    /// Builds the schedule for `partition` with full per-block sample
    /// budget `counts`.
    pub fn build(partition: &Partition, counts: &[usize]) -> SampleOrder {
        let mut order = SampleOrder::default();
        let mut scratch = Vec::new();
        order.build_into(partition, counts, &mut scratch);
        order
    }

    /// [`SampleOrder::build`] refilling `self` in place with caller-provided
    /// sort scratch — the allocation-free form the workspace pipeline uses
    /// (a warmed order + scratch pair allocates nothing while the block
    /// count is stable).
    pub fn build_into(
        &mut self,
        partition: &Partition,
        counts: &[usize],
        scratch: &mut Vec<(u32, u32, u32)>,
    ) {
        self.block_sizes.clear();
        self.block_sizes.extend(partition.blocks.iter().map(|b| b.indices.len()));
        self.cand_sizes.clear();
        self.cand_sizes.extend(partition.blocks.iter().map(|b| {
            let (first, end) = b.search;
            partition.blocks[first..end].iter().map(|g| g.indices.len()).sum::<usize>()
        }));

        // Interleave blocks by budget fraction: block b's j-th sample (of
        // c_b) carries the exact rational key j/c_b; ascending key order
        // spreads every block proportionally across the schedule, so any
        // prefix holds a balanced coarse approximation. Comparison is the
        // exact u64 cross-multiply (j, c < 2^32, so no overflow and no
        // float rounding at equal fractions); ties go to the lower block
        // index. The comparator is a total order — (j/c, b) pairs are
        // unique — so the allocation-free unstable sort is deterministic.
        scratch.clear();
        for (b, &c) in counts.iter().enumerate() {
            debug_assert!(c <= u32::MAX as usize && b <= u32::MAX as usize);
            for j in 1..=c as u32 {
                scratch.push((j, c as u32, b as u32));
            }
        }
        scratch.sort_unstable_by(|a, b| {
            let left = u64::from(a.0) * u64::from(b.1);
            let right = u64::from(b.0) * u64::from(a.1);
            left.cmp(&right).then(a.2.cmp(&b.2))
        });
        self.schedule.clear();
        self.schedule.extend(scratch.iter().map(|&(_, _, b)| b));
    }

    /// Total samples in the full ordering.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// Whether the ordering is empty.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// Per-block sample counts of the first `k` schedule ranks — the
    /// budget a `n_samples = k` run distributes to each block. Monotone in
    /// `k` by construction (each rank only ever adds one sample to one
    /// block), which is the property that makes prefixes sliceable.
    pub fn prefix_counts(&self, k: usize) -> Vec<usize> {
        let mut counts = vec![0usize; self.block_sizes.len()];
        for &b in &self.schedule[..k.min(self.schedule.len())] {
            counts[b as usize] += 1;
        }
        counts
    }

    /// Truncates to the first `k` ranks (the ordering a budget-`k` run
    /// carries). `block_sizes` / `cand_sizes` describe the partition and
    /// are budget-independent.
    pub fn prefix(&self, k: usize) -> SampleOrder {
        SampleOrder {
            schedule: self.schedule[..k.min(self.schedule.len())].to_vec(),
            block_sizes: self.block_sizes.clone(),
            cand_sizes: self.cand_sizes.clone(),
        }
    }
}

/// One block's contribution to a contiguous LOD slice: the refinement
/// samples the block gains between two depths, with their neighbor rows
/// and in-radius hit counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LodSegment {
    /// Leaf block index.
    pub block: usize,
    /// The block's new sampled indices (FPS order continues seamlessly).
    pub sampled: Vec<usize>,
    /// `sampled.len() × num` neighbor indices, row-major.
    pub grouped: Vec<usize>,
    /// In-radius hits per new center before padding.
    pub found: Vec<usize>,
}

/// A contiguous coarse-to-fine slice `(lo, hi]` of a pipeline output — the
/// payload of one streaming refinement chunk. Concatenating slices
/// `(0, k₁], (k₁, k₂], …` per block reproduces
/// [`PipelineOutput::prefix`] at the last depth exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LodSlice {
    /// Slice start depth (exclusive; samples `lo..hi` in schedule rank).
    pub lo: usize,
    /// Slice end depth (inclusive bound of delivered samples).
    pub hi: usize,
    /// Total samples in the full ordering (so consumers know the maximum
    /// refinement depth without a second request).
    pub total: usize,
    /// Neighbor slots per center.
    pub num: usize,
    /// Leaf blocks in the producing partition.
    pub blocks: usize,
    /// Per-block refinement deltas, block order, empty blocks omitted.
    pub segments: Vec<LodSegment>,
}

impl LodSlice {
    /// Samples delivered by this slice.
    pub fn samples(&self) -> usize {
        self.hi - self.lo
    }
}

impl PipelineOutput {
    /// Total samples in the carried ordering (the maximum prefix depth).
    pub fn total_samples(&self) -> usize {
        self.order.len()
    }

    /// The first-`k` view of this output: bit-identical — indices,
    /// counters, critical path, reuse statistics, ordering — to running
    /// the same pipeline with a sample budget of `k`
    /// ([`Pipeline::run_with_partition_budget`](crate::Pipeline::run_with_partition_budget)).
    ///
    /// Pure slicing: per-block sample rows and neighbor rows are prefixes
    /// of the full ones (FPS is greedy, grouping is per-center), work
    /// counters come from the shared closed-form models and merge by the
    /// rule a real run's block driver applies. `k` beyond the total clamps.
    ///
    /// # Panics
    ///
    /// Panics if the output carries no ordering (constructed by hand
    /// rather than by a pipeline run).
    pub fn prefix(&self, k: usize) -> PipelineOutput {
        assert_eq!(
            self.order.len(),
            self.sampled.indices.len(),
            "PipelineOutput::prefix needs the ordering a pipeline run carries"
        );
        let k = k.min(self.order.len());
        let counts_k = self.order.prefix_counts(k);
        let num = self.grouped.num;

        let mut sampled = BlockFpsResult::default();
        let mut grouped = BlockNeighborResult { num, ..Default::default() };
        let mut row = 0usize; // full-output center-row offset of block b
        for (b, &ck) in counts_k.iter().enumerate() {
            let full = &self.sampled.per_block[b];
            sampled.indices.extend_from_slice(&full[..ck]);
            sampled.per_block.push(full[..ck].to_vec());
            sampled.push(OpCounters::fps_model(self.order.block_sizes[b], ck, true));
            grouped.indices.extend_from_slice(&self.grouped.indices[row * num..(row + ck) * num]);
            grouped.center_indices.extend_from_slice(&self.grouped.center_indices[row..row + ck]);
            grouped.found.extend_from_slice(&self.grouped.found[row..row + ck]);
            let (counters, reuse) = ball_query_block_model(self.order.cand_sizes[b], ck, num);
            grouped.push(counters, reuse);
            row += full.len();
        }
        PipelineOutput { sampled, grouped, blocks: self.blocks, order: self.order.prefix(k) }
    }

    /// The refinement delta between depths `lo` and `hi` (both clamped to
    /// the total; `lo > hi` is treated as empty): per block, the sampled
    /// indices and neighbor rows it gains, in block order. Appending this
    /// slice's segments to the per-block state of [`PipelineOutput::prefix`]`(lo)`
    /// reproduces `prefix(hi)` exactly — the invariant streaming chunks
    /// rely on. The owned form of a [`LodCursor`] cut.
    ///
    /// # Panics
    ///
    /// Panics if the output carries no ordering (see
    /// [`PipelineOutput::prefix`]).
    pub fn slice_level(&self, lo: usize, hi: usize) -> LodSlice {
        let (total, num, blocks) = (self.order.len(), self.grouped.num, self.blocks);
        let hi = hi.min(total);
        let lo = lo.min(hi);
        let mut cursor = LodCursor::new(self);
        cursor.advance(lo);
        cursor.advance(hi);
        let own = |s: LodSegmentRef<'_>| LodSegment {
            block: s.block,
            sampled: s.sampled.to_vec(),
            grouped: s.grouped.to_vec(),
            found: s.found.to_vec(),
        };
        let segments = cursor.segments().map(own).collect();
        LodSlice { lo, hi, total, num, blocks, segments }
    }
}

/// One block's contribution to a [`LodCursor`] cut, borrowed from the
/// output it cuts (the allocation-free form of [`LodSegment`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LodSegmentRef<'a> {
    /// Leaf block index.
    pub block: usize,
    /// The block's new sampled indices.
    pub sampled: &'a [usize],
    /// `sampled.len() × num` neighbor indices, row-major.
    pub grouped: &'a [usize],
    /// In-radius hits per new center before padding.
    pub found: &'a [usize],
}

/// A position in a pipeline output's coarse-to-fine ordering that moves
/// forward one cut `(lo, hi]` at a time — what a stream holds between
/// chunks. The per-block delivered counts are carried from cut to cut, so
/// a cut costs O(`hi − lo`) schedule steps (not a recount from rank 0),
/// and its segments are slices of the output, so it copies nothing.
#[derive(Debug)]
pub struct LodCursor<'a> {
    out: &'a PipelineOutput,
    lo: usize,
    hi: usize,
    /// Per-block delivered counts at depth `lo` / at depth `hi`.
    from: Vec<usize>,
    to: Vec<usize>,
    /// Full-output center-row offset of each block.
    rows: Vec<usize>,
}

impl<'a> LodCursor<'a> {
    /// A cursor at depth 0 of `out` (the empty cut `(0, 0]`).
    ///
    /// # Panics
    ///
    /// Panics if the output carries no ordering (see
    /// [`PipelineOutput::prefix`]).
    pub fn new(out: &'a PipelineOutput) -> LodCursor<'a> {
        assert_eq!(
            out.order.len(),
            out.sampled.indices.len(),
            "LodCursor needs the ordering a pipeline run carries"
        );
        let blocks = out.sampled.per_block.len();
        let mut rows = Vec::with_capacity(blocks);
        let mut row = 0usize;
        for full in &out.sampled.per_block {
            rows.push(row);
            row += full.len();
        }
        LodCursor { out, lo: 0, hi: 0, from: vec![0; blocks], to: vec![0; blocks], rows }
    }

    /// Moves to the cut `(previous hi, hi]`; `hi` clamps to the total and
    /// never moves backwards (an `hi` at or below the current depth yields
    /// the empty cut there).
    pub fn advance(&mut self, hi: usize) {
        let hi = hi.min(self.out.order.len()).max(self.hi);
        self.from.copy_from_slice(&self.to);
        for &b in &self.out.order.schedule[self.hi..hi] {
            self.to[b as usize] += 1;
        }
        (self.lo, self.hi) = (self.hi, hi);
    }

    /// Start depth of the current cut (exclusive).
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// End depth of the current cut — the samples delivered so far.
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// The output this cursor cuts.
    pub fn output(&self) -> &'a PipelineOutput {
        self.out
    }

    /// The current cut's per-block refinement deltas, block order, empty
    /// blocks omitted.
    pub fn segments(&self) -> impl Iterator<Item = LodSegmentRef<'a>> + '_ {
        let (out, num) = (self.out, self.out.grouped.num);
        (0..self.rows.len()).filter(|&b| self.to[b] > self.from[b]).map(move |b| {
            let (c0, c1, row) = (self.from[b], self.to[b], self.rows[b]);
            LodSegmentRef {
                block: b,
                sampled: &out.sampled.per_block[b][c0..c1],
                grouped: &out.grouped.indices[(row + c0) * num..(row + c1) * num],
                found: &out.grouped.found[row + c0..row + c1],
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::{LodCursor, LodSegment, LodSlice};
    use crate::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
    use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
    use proptest::prelude::*;

    /// The reference cut the cursor is tested against: both depths
    /// recounted from rank 0 (`prefix_counts`), every block copied.
    fn slice_level_oracle(out: &PipelineOutput, lo: usize, hi: usize) -> LodSlice {
        let total = out.order.len();
        let hi = hi.min(total);
        let lo = lo.min(hi);
        let counts_lo = out.order.prefix_counts(lo);
        let counts_hi = out.order.prefix_counts(hi);
        let num = out.grouped.num;

        let mut segments = Vec::new();
        let mut row = 0usize;
        for (b, full) in out.sampled.per_block.iter().enumerate() {
            let (c0, c1) = (counts_lo[b], counts_hi[b]);
            if c1 > c0 {
                segments.push(LodSegment {
                    block: b,
                    sampled: full[c0..c1].to_vec(),
                    grouped: out.grouped.indices[(row + c0) * num..(row + c1) * num].to_vec(),
                    found: out.grouped.found[row + c0..row + c1].to_vec(),
                });
            }
            row += full.len();
        }
        LodSlice { lo, hi, total, num, blocks: out.blocks, segments }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One cursor walked cut by cut, and a fresh one positioned at each
        /// cut's `lo` (`slice_level`), both equal the oracle at every cut —
        /// over one-block clouds (n ≤ threshold), blocks that sample
        /// nothing (low rates), empty and width-1 cuts, and a last cut past
        /// the total.
        #[test]
        fn cursor_cuts_equal_the_recounting_oracle(
            (n, seed) in (20usize..700, 0u64..1_000),
            (threshold, rate) in (8usize..200, 0.02f64..0.6),
            widths in proptest::collection::vec(0usize..40, 1..12),
        ) {
            let cloud = scene_cloud(&SceneConfig::default(), n, seed);
            let config = PipelineConfig { threshold, sample_rate: rate, ..Default::default() };
            let out = Pipeline::new(config).unwrap().run(&cloud, false).unwrap();
            let mut cursor = LodCursor::new(&out);
            let cuts = widths.iter().scan(0usize, |hi, w| {
                *hi += w;
                Some(*hi)
            });
            for hi in cuts.chain([out.total_samples() + 7]) {
                let lo = cursor.hi();
                cursor.advance(hi);
                let want = slice_level_oracle(&out, lo, hi);
                prop_assert_eq!((cursor.lo(), cursor.hi()), (want.lo, want.hi));
                let walked: Vec<_> = cursor
                    .segments()
                    .map(|s| (s.block, s.sampled.to_vec(), s.grouped.to_vec(), s.found.to_vec()))
                    .collect();
                let wanted: Vec<_> = want
                    .segments
                    .iter()
                    .map(|s| (s.block, s.sampled.clone(), s.grouped.clone(), s.found.clone()))
                    .collect();
                prop_assert_eq!(walked, wanted);
                prop_assert_eq!(out.slice_level(lo, hi), want);
            }
            prop_assert_eq!(cursor.hi(), out.total_samples());
        }
    }

    #[test]
    fn slice_level_treats_an_inverted_range_as_empty_at_hi() {
        let cloud = scene_cloud(&SceneConfig::default(), 600, 4);
        let out = Pipeline::new(PipelineConfig::default()).unwrap().run(&cloud, false).unwrap();
        assert_eq!(out.slice_level(90, 40), slice_level_oracle(&out, 90, 40));
        assert_eq!((out.slice_level(90, 40).lo, out.slice_level(90, 40).hi), (40, 40));
    }

    #[test]
    fn schedule_is_prefix_monotone_and_complete() {
        let cloud = scene_cloud(&SceneConfig::default(), 4096, 3);
        let pipe = Pipeline::new(PipelineConfig::default()).unwrap();
        let out = pipe.run(&cloud, false).unwrap();
        assert_eq!(out.order.len(), out.sampled.indices.len());
        // Full-depth counts reproduce the per-block row lengths.
        let full = out.order.prefix_counts(out.order.len());
        let lens: Vec<usize> = out.sampled.per_block.iter().map(|r| r.len()).collect();
        assert_eq!(full, lens);
        // Monotone: each rank adds exactly one sample to one block.
        let mut prev = out.order.prefix_counts(0);
        for k in 1..=out.order.len() {
            let cur = out.order.prefix_counts(k);
            let grew: Vec<usize> = (0..prev.len()).filter(|&b| cur[b] != prev[b]).collect();
            assert_eq!(grew.len(), 1);
            assert_eq!(cur[grew[0]], prev[grew[0]] + 1);
            prev = cur;
        }
    }

    #[test]
    fn prefix_at_full_depth_is_identity() {
        let cloud = scene_cloud(&SceneConfig::default(), 2048, 9);
        let pipe = Pipeline::new(PipelineConfig::default()).unwrap();
        let out = pipe.run(&cloud, true).unwrap();
        let view = out.prefix(out.total_samples());
        assert_eq!(view, out);
        // Clamping beyond the total is the same view.
        assert_eq!(out.prefix(usize::MAX), out);
    }

    #[test]
    fn slices_concatenate_to_the_prefix() {
        let cloud = scene_cloud(&SceneConfig::default(), 3000, 17);
        let pipe = Pipeline::new(PipelineConfig::default()).unwrap();
        let out = pipe.run(&cloud, false).unwrap();
        let total = out.total_samples();
        let cuts = [0usize, total / 5, total / 3, total / 2, total];
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let slice = out.slice_level(lo, hi);
            assert_eq!(slice.samples(), hi - lo);
            // Appending each segment to prefix(lo)'s per-block state must
            // reproduce prefix(hi)'s rows.
            let base = out.prefix(lo);
            let target = out.prefix(hi);
            let mut rows = base.sampled.per_block.clone();
            for seg in &slice.segments {
                rows[seg.block].extend_from_slice(&seg.sampled);
            }
            assert_eq!(rows, target.sampled.per_block);
            let delivered: usize = slice.segments.iter().map(|s| s.sampled.len()).sum();
            assert_eq!(delivered, hi - lo);
            for seg in &slice.segments {
                assert_eq!(seg.grouped.len(), seg.sampled.len() * slice.num);
                assert_eq!(seg.found.len(), seg.sampled.len());
            }
        }
    }
}
