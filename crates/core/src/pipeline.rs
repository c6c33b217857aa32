//! A reusable partition + BPPO pipeline.
//!
//! The building blocks — [`Fractal::build`], [`block_fps`],
//! [`block_ball_query`] — are free functions that rebuild all intermediate
//! state on every call. A serving layer processing a stream of frames wants
//! the opposite: one validated, immutable description of the work
//! ([`PipelineConfig`]), an object that runs it ([`Pipeline`]), and the
//! ability to *reuse* an already-built [`FractalResult`] when the same frame
//! comes back (LRU-cached partitions keyed by frame hash). This module
//! provides exactly that seam; `fractalcloud-serve` is its main consumer,
//! but it is equally convenient for batch scripts.
//!
//! Determinism contract: for a given cloud and config, [`Pipeline::run`] is
//! bit-identical to calling the underlying free functions directly, for
//! every thread budget and every kernel backend — `parallel` (the block
//! fan-out of the BPPO half) only affects wall-clock time (the same
//! guarantee the underlying operations make).

use crate::bppo::{
    ball_query_blocks, block_sample_counts, block_sample_counts_into, fps_blocks, with_layout,
    BlockFpsResult, BlockNeighborResult, BppoConfig,
};
use crate::fractal::{Fractal, FractalResult};
use crate::lod::SampleOrder;
use crate::workspace::{global_pool, Workspace};
use fractalcloud_pointcloud::{Error, PointCloud, Result};
use std::time::Instant;

/// The 64-bit FNV offset basis — the seed for [`fnv1a64`] chains.
pub const FNV1A64_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One step of the 64-bit FNV-1a-*style* word fold shared by
/// [`PipelineConfig::compat_key`] and the serving layer's frame hash: xors
/// a full word into the state, then multiplies by the 64-bit FNV prime
/// (`0x100_0000_01b3`). Word-at-a-time rather than the canonical
/// byte-at-a-time fold — four times cheaper on megapoint coordinate
/// streams, with dispersion comfortably beyond what a handful-of-entries
/// cache and batch grouping need.
#[inline]
pub fn fnv1a64(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x100_0000_01b3)
}

/// The frame-processing parameters a pipeline run depends on.
///
/// Two requests with equal configs are *compatible*: they can share a batch
/// (and a cached partition, when the frame bytes also match). Equality is
/// exact — `f32`/`f64` parameters compare bitwise via [`PartialEq`] — and
/// [`PipelineConfig::compat_key`] hashes the same bits for cheap grouping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Fractal block threshold (`th` in Alg. 1).
    pub threshold: usize,
    /// Block-FPS sampling rate in `(0, 1]`.
    pub sample_rate: f64,
    /// Ball-query radius.
    pub radius: f32,
    /// Neighbor slots per sampled center.
    pub neighbors: usize,
}

impl PipelineConfig {
    /// Creates a config; [`PipelineConfig::validate`] reports bad values.
    pub fn new(
        threshold: usize,
        sample_rate: f64,
        radius: f32,
        neighbors: usize,
    ) -> PipelineConfig {
        PipelineConfig { threshold, sample_rate, radius, neighbors }
    }

    /// Checks every parameter, returning the first violation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when the threshold is zero, the
    /// sampling rate is outside `(0, 1]`, the radius is not positive (NaN
    /// included), or `neighbors` is zero.
    pub fn validate(&self) -> Result<()> {
        if self.threshold == 0 {
            return Err(Error::InvalidParameter {
                name: "threshold",
                message: "must be at least 1".into(),
            });
        }
        if !(self.sample_rate > 0.0 && self.sample_rate <= 1.0) {
            return Err(Error::InvalidParameter {
                name: "sample_rate",
                message: format!("must be in (0, 1], got {}", self.sample_rate),
            });
        }
        // `!(radius > 0.0)` also rejects NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.radius > 0.0) {
            return Err(Error::InvalidParameter {
                name: "radius",
                message: format!("must be positive, got {}", self.radius),
            });
        }
        if self.neighbors == 0 {
            return Err(Error::InvalidParameter {
                name: "neighbors",
                message: "must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// A 64-bit key equal exactly when the configs are equal (the
    /// [`fnv1a64`] word fold over the parameter bits) — what the serving
    /// batcher groups requests by.
    pub fn compat_key(&self) -> u64 {
        let mut h = FNV1A64_SEED;
        for word in [
            self.threshold as u64,
            self.sample_rate.to_bits(),
            u64::from(self.radius.to_bits()),
            self.neighbors as u64,
        ] {
            h = fnv1a64(h, word);
        }
        h
    }
}

impl Default for PipelineConfig {
    /// The paper's segmentation setting: `th = 256`, 1/4 sampling, radius
    /// 0.4 with 16 neighbors (the quickstart parameters).
    fn default() -> PipelineConfig {
        PipelineConfig { threshold: 256, sample_rate: 0.25, radius: 0.4, neighbors: 16 }
    }
}

/// Returns [`Error::Cancelled`] once `deadline` has passed — the check
/// [`Pipeline::run_with_partition_into_cancel`] makes at each stage seam.
fn check_deadline(deadline: Option<Instant>) -> Result<()> {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        Err(Error::Cancelled)
    } else {
        Ok(())
    }
}

/// Everything one pipeline run produces: block-FPS samples and their
/// ball-query groups.
///
/// `Default` constructs an empty output — the staging form serving layers
/// pool and refill with [`Pipeline::run_with_partition_into`], whose
/// buffers keep their capacity across frames.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineOutput {
    /// Block-wise sampling result (Alg. 2 rows 2–3).
    pub sampled: BlockFpsResult,
    /// Block-wise grouping result for the sampled centers (Alg. 2 rows 5–8).
    pub grouped: BlockNeighborResult,
    /// Number of leaf blocks in the partition that produced the result.
    pub blocks: usize,
    /// The coarse-to-fine quality ordering of the samples — every prefix
    /// of a run is itself a valid smaller-budget run; see
    /// [`PipelineOutput::prefix`] and [`crate::lod`].
    pub order: SampleOrder,
}

/// A validated, reusable partition + BPPO pipeline.
///
/// # Examples
///
/// ```
/// use fractalcloud_core::{Pipeline, PipelineConfig};
/// use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
///
/// let cloud = scene_cloud(&SceneConfig::default(), 4096, 7);
/// let pipe = Pipeline::new(PipelineConfig::default())?;
/// let out = pipe.run(&cloud, true)?;
/// assert_eq!(out.sampled.indices.len(), 1024);
/// assert_eq!(out.grouped.center_indices, out.sampled.indices);
/// # Ok::<(), fractalcloud_pointcloud::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline after validating `config`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] as described by
    /// [`PipelineConfig::validate`].
    pub fn new(config: PipelineConfig) -> Result<Pipeline> {
        config.validate()?;
        Ok(Pipeline { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> PipelineConfig {
        self.config
    }

    /// Builds the Fractal partition for `cloud` (the cacheable half of a
    /// run).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] for an empty cloud.
    pub fn partition(&self, cloud: &PointCloud) -> Result<FractalResult> {
        let mut ws = global_pool().checkout();
        self.partition_ws(cloud, &mut ws)
    }

    /// [`Pipeline::partition`] with an explicit scratch [`Workspace`]
    /// (see [`Fractal::build_ws`]); results are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] for an empty cloud.
    pub fn partition_ws(&self, cloud: &PointCloud, ws: &mut Workspace) -> Result<FractalResult> {
        let span = fractalcloud_obs::span(fractalcloud_obs::SpanKind::PartitionBuild, 0);
        let built = Fractal::with_threshold(self.config.threshold).build_ws(cloud, ws);
        span.done();
        built
    }

    /// Runs the full pipeline: partition, block FPS, block ball query.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] for an empty cloud (parameter errors
    /// were ruled out at construction).
    pub fn run(&self, cloud: &PointCloud, parallel: bool) -> Result<PipelineOutput> {
        let built = self.partition(cloud)?;
        self.run_with_partition(cloud, &built, parallel)
    }

    /// Runs the BPPO half against an already-built partition — the hot path
    /// for a serving layer whose partition cache hit.
    ///
    /// `built` must come from [`Pipeline::partition`] (or an equal-config
    /// [`Fractal::build`]) over the *same* cloud; this is the caller's
    /// contract, exactly as with the free functions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] for an empty cloud.
    pub fn run_with_partition(
        &self,
        cloud: &PointCloud,
        built: &FractalResult,
        parallel: bool,
    ) -> Result<PipelineOutput> {
        let mut ws = global_pool().checkout();
        let mut out = PipelineOutput::default();
        self.run_with_partition_into(cloud, built, parallel, &mut ws, &mut out)?;
        Ok(out)
    }

    /// The allocation-free form of [`Pipeline::run_with_partition`]: all
    /// scratch lives in `ws` and the result refills `out` in place (its
    /// buffers — including the per-block sample rows — keep their capacity
    /// across frames). A warmed `(ws, out)` pair processes a frame with
    /// zero heap allocation on a sequential lane; output is bit-identical
    /// to a fresh allocation for any prior state of either buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] for an empty cloud (parameter errors
    /// were ruled out at construction).
    pub fn run_with_partition_into(
        &self,
        cloud: &PointCloud,
        built: &FractalResult,
        parallel: bool,
        ws: &mut Workspace,
        out: &mut PipelineOutput,
    ) -> Result<()> {
        self.run_with_partition_into_cancel(cloud, built, usize::MAX, parallel, ws, out, None)
    }

    /// The one implementation of the BPPO half, behind every `run*` entry
    /// point: [`Pipeline::run_with_partition_into`] at a sample budget
    /// (clamped to the run's total, so `usize::MAX` is full depth; see
    /// [`Pipeline::run_with_partition_budget`]) and with an optional
    /// `deadline` checked at the stage seams (entry, after sample counts,
    /// between sampling and grouping). Cancellation is cooperative: a
    /// running stage finishes, and the run returns [`Error::Cancelled`] at
    /// the next seam, so a frame whose deadline already passed stops
    /// burning its thread budget mid-run.
    ///
    /// After an `Err(Error::Cancelled)` return, `out` holds garbage from
    /// the aborted stages — reuse the buffers, never the contents.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Cancelled`] once `deadline` has passed, or
    /// [`Error::EmptyCloud`] for an empty cloud.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_partition_into_cancel(
        &self,
        cloud: &PointCloud,
        built: &FractalResult,
        budget: usize,
        parallel: bool,
        ws: &mut Workspace,
        out: &mut PipelineOutput,
        deadline: Option<Instant>,
    ) -> Result<()> {
        check_deadline(deadline)?;
        let bppo = if parallel { BppoConfig::default() } else { BppoConfig::sequential() };
        // Per-block sample counts, staged in the workspace.
        ws.sizes.clear();
        ws.sizes.extend(built.partition.blocks.iter().map(|b| b.len()));
        block_sample_counts_into(&ws.sizes, self.config.sample_rate, &mut ws.counts, &mut ws.rems);
        check_deadline(deadline)?;
        // The coarse-to-fine ordering block FPS is about to compute: the
        // interleave schedule over the *full* per-block budgets, staged in
        // the workspace so the warm path stays allocation-free.
        out.order.build_into(&built.partition, &ws.counts, &mut ws.sched);
        if budget < out.order.len() {
            // A budgeted run keeps the first `budget` ranks of that
            // schedule and samples each block at its share of them.
            out.order.schedule.truncate(budget);
            ws.counts.fill(0);
            for &b in &out.order.schedule {
                ws.counts[b as usize] += 1;
            }
        }
        if cloud.is_empty() {
            return Err(Error::EmptyCloud);
        }
        // Move the counts out for the duration of both stages (the block
        // bodies need the whole workspace mutably); moved back after. The
        // cloud is laid out in block order once, inside the sampling span,
        // and both stages read it in place.
        let counts = std::mem::take(&mut ws.counts);
        let PipelineOutput { sampled, grouped, blocks, order: _ } = out;
        let sample_span = fractalcloud_obs::span(fractalcloud_obs::SpanKind::BlockSample, u32::MAX);
        let run = with_layout(ws, cloud, &built.partition, |layout, ws| {
            fps_blocks(layout, &counts, &bppo, ws, sampled);
            sample_span.done();
            check_deadline(deadline)?;
            let group_span =
                fractalcloud_obs::span(fractalcloud_obs::SpanKind::BlockGroup, u32::MAX);
            ball_query_blocks(
                cloud,
                layout,
                &built.partition,
                &sampled.per_block,
                self.config.radius,
                self.config.neighbors,
                &bppo,
                ws,
                grouped,
            );
            group_span.done();
            Ok(())
        });
        ws.counts = counts;
        run?;
        *blocks = built.partition.blocks.len();
        Ok(())
    }

    /// Per-block FPS sample counts for `built`'s partition at this
    /// pipeline's sampling rate — the allocation `run_with_partition` uses.
    pub fn sample_counts(&self, built: &FractalResult) -> Vec<usize> {
        let sizes: Vec<usize> = built.partition.blocks.iter().map(|b| b.len()).collect();
        block_sample_counts(&sizes, self.config.sample_rate)
    }

    // --- Budget runs (progressive LOD) -----------------------------------

    /// Runs the full pipeline at an explicit sample budget of `k` points:
    /// partition, then [`Pipeline::run_with_partition_budget`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] for an empty cloud.
    pub fn run_budget(
        &self,
        cloud: &PointCloud,
        k: usize,
        parallel: bool,
    ) -> Result<PipelineOutput> {
        let built = self.partition(cloud)?;
        self.run_with_partition_budget(cloud, &built, k, parallel)
    }

    /// The BPPO half at an explicit sample budget `k` (clamped to the
    /// run's total): per-block counts are the first `k` ranks of the
    /// [`SampleOrder`] interleave schedule built from the *full* budgets
    /// — not the largest-remainder allocator re-run at a smaller rate,
    /// which is not prefix-monotone — and the ordinary kernels then run at
    /// those counts. By construction,
    /// [`PipelineOutput::prefix`]`(k)` of a full run is bit-identical to
    /// this, which is the contract streaming refinement relies on.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] for an empty cloud.
    pub fn run_with_partition_budget(
        &self,
        cloud: &PointCloud,
        built: &FractalResult,
        k: usize,
        parallel: bool,
    ) -> Result<PipelineOutput> {
        let mut ws = global_pool().checkout();
        let mut out = PipelineOutput::default();
        self.run_with_partition_into_cancel(cloud, built, k, parallel, &mut ws, &mut out, None)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bppo::{block_ball_query, block_fps};
    use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};

    #[test]
    fn pipeline_matches_free_functions() {
        let cloud = scene_cloud(&SceneConfig::default(), 4096, 3);
        let cfg = PipelineConfig::default();
        let out = Pipeline::new(cfg).unwrap().run(&cloud, true).unwrap();

        let built = Fractal::with_threshold(cfg.threshold).build(&cloud).unwrap();
        let fps =
            block_fps(&cloud, &built.partition, cfg.sample_rate, &BppoConfig::default()).unwrap();
        let bq = block_ball_query(
            &cloud,
            &built.partition,
            &fps.per_block,
            cfg.radius,
            cfg.neighbors,
            &BppoConfig::default(),
        )
        .unwrap();
        assert_eq!(out.sampled, fps);
        assert_eq!(out.grouped, bq);
        assert_eq!(out.blocks, built.partition.blocks.len());
    }

    #[test]
    fn sequential_and_parallel_runs_are_identical() {
        let cloud = scene_cloud(&SceneConfig::default(), 6000, 5);
        let pipe = Pipeline::new(PipelineConfig::default()).unwrap();
        assert_eq!(pipe.run(&cloud, true).unwrap(), pipe.run(&cloud, false).unwrap());
    }

    #[test]
    fn cached_partition_reuse_is_identical_to_fresh_run() {
        let cloud = scene_cloud(&SceneConfig::default(), 3000, 9);
        let pipe = Pipeline::new(PipelineConfig::default()).unwrap();
        let built = pipe.partition(&cloud).unwrap();
        let fresh = pipe.run(&cloud, true).unwrap();
        let reused = pipe.run_with_partition(&cloud, &built, true).unwrap();
        assert_eq!(fresh, reused);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(Pipeline::new(PipelineConfig::new(0, 0.25, 0.4, 16)).is_err());
        assert!(Pipeline::new(PipelineConfig::new(256, 0.0, 0.4, 16)).is_err());
        assert!(Pipeline::new(PipelineConfig::new(256, 1.5, 0.4, 16)).is_err());
        assert!(Pipeline::new(PipelineConfig::new(256, 0.25, -1.0, 16)).is_err());
        assert!(Pipeline::new(PipelineConfig::new(256, 0.25, f32::NAN, 16)).is_err());
        assert!(Pipeline::new(PipelineConfig::new(256, 0.25, 0.4, 0)).is_err());
        assert!(Pipeline::new(PipelineConfig::default()).is_ok());
    }

    #[test]
    fn compat_key_separates_configs() {
        let a = PipelineConfig::default();
        let mut b = a;
        assert_eq!(a.compat_key(), b.compat_key());
        b.neighbors = 17;
        assert_ne!(a.compat_key(), b.compat_key());
        let c = PipelineConfig { radius: 0.401, ..a };
        assert_ne!(a.compat_key(), c.compat_key());
    }

    #[test]
    fn empty_cloud_errors() {
        let pipe = Pipeline::new(PipelineConfig::default()).unwrap();
        assert_eq!(pipe.run(&PointCloud::new(), true), Err(Error::EmptyCloud));
    }

    #[test]
    fn cancelled_run_aborts_and_staging_is_reusable_afterwards() {
        let cloud = scene_cloud(&SceneConfig::default(), 2048, 21);
        let pipe = Pipeline::new(PipelineConfig::default()).unwrap();
        let built = pipe.partition(&cloud).unwrap();
        let expected = pipe.run_with_partition(&cloud, &built, false).unwrap();

        let mut ws = Workspace::new();
        let mut out = PipelineOutput::default();
        let passed = Instant::now() - std::time::Duration::from_millis(1);
        let full = usize::MAX;
        assert_eq!(
            pipe.run_with_partition_into_cancel(
                &cloud,
                &built,
                full,
                false,
                &mut ws,
                &mut out,
                Some(passed)
            ),
            Err(Error::Cancelled)
        );
        // The aborted staging is garbage but reusable: the next clean run
        // through the same buffers must be bit-identical to a fresh one.
        let live = Instant::now() + std::time::Duration::from_secs(3600);
        pipe.run_with_partition_into_cancel(
            &cloud,
            &built,
            full,
            false,
            &mut ws,
            &mut out,
            Some(live),
        )
        .unwrap();
        assert_eq!(out, expected);
    }
}
