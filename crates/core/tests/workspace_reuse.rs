//! Workspace-reuse bit-identity: a *dirty* reused [`Workspace`] (and dirty
//! reused output staging) must produce output bit-identical to fresh
//! allocation — indices, distances-derived features, `OpCounters`,
//! critical paths, reuse statistics, everything — on every kernel backend,
//! for ragged block shapes, and for cache-hit-style repeated runs.
//!
//! This is the contract the serving engine's zero-allocation steady state
//! stands on: scratch arenas carry no results between frames.

use fractalcloud_core::workspace::{global_pool, Workspace};
use fractalcloud_core::{
    block_ball_query, block_fps_with_counts, BlockFpsResult, BlockNeighborResult, BppoConfig,
    Fractal, Pipeline, PipelineConfig, PipelineOutput,
};
use fractalcloud_pointcloud::kernels::{self, Backend};
use fractalcloud_pointcloud::{Point3, PointCloud};
use proptest::prelude::*;

fn arb_cloud(max_n: usize) -> impl Strategy<Value = PointCloud> {
    proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0, -20.0f32..20.0), 8..max_n).prop_map(
        |v| PointCloud::from_points(v.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect()),
    )
}

/// Runs `f` on every backend available on this host.
fn on_every_backend(mut f: impl FnMut(Backend)) {
    for b in Backend::ALL {
        if b.is_available() {
            f(b);
        }
    }
}

/// A workspace deliberately left dirty by running unrelated work through
/// it: different cloud, different threshold, different radii. The build's
/// slabs and order buffer are first left by a cloud larger than any under
/// test (so a later build reads ranges of longer, stale arrays), then by
/// `seed_cloud` at yet another block count.
fn dirty_workspace(seed_cloud: &PointCloud) -> Workspace {
    let mut ws = Workspace::new();
    let larger = PointCloud::from_points(
        (0..1500)
            .map(|i| Point3::new((i % 31) as f32 * 3.1, (i % 13) as f32 * -7.3, i as f32 * 0.02))
            .collect(),
    );
    Fractal::with_threshold(5).build_ws(&larger, &mut ws).unwrap();
    let pipe = Pipeline::new(PipelineConfig::new(13, 0.5, 0.9, 3)).unwrap();
    let built = pipe.partition_ws(seed_cloud, &mut ws).unwrap();
    let mut staging = PipelineOutput::default();
    pipe.run_with_partition_into(seed_cloud, &built, false, &mut ws, &mut staging).unwrap();
    ws
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full pipeline (partition + FPS + ball query) through a dirty
    /// workspace + dirty output staging equals fresh allocation, on every
    /// backend, including every counter — at full depth and at a sample
    /// budget, where the dirty run must equal the same-length prefix of
    /// the fresh full run. The staging is dirtied first by a pipeline of
    /// another config over the same partition (other sample counts and
    /// neighbor width, so ragged block rows of another length), then by
    /// another frame.
    #[test]
    fn dirty_workspace_pipeline_is_bit_identical(
        (cloud, th) in (arb_cloud(400), 4usize..96),
        (rate, frac) in (0.05f64..0.95, 0.0f64..=1.0),
        radius in 0.2f32..4.0,
        num in 1usize..12,
    ) {
        let seed = PointCloud::from_points(
            (0..97).map(|i| Point3::new(i as f32 * 0.31, (i % 7) as f32, -(i as f32) * 0.05)).collect(),
        );
        let config = PipelineConfig::new(th, rate, radius, num);
        let pipe = Pipeline::new(config).unwrap();
        let mut results: Vec<PipelineOutput> = Vec::new();
        on_every_backend(|backend| {
            kernels::with_backend(backend, || {
                // Fresh path: plain entry points (transient pool state).
                let built = pipe.partition(&cloud).unwrap();
                let fresh = pipe.run_with_partition(&cloud, &built, false).unwrap();
                // Dirty path: reused workspace + reused (dirty) staging.
                let mut ws = dirty_workspace(&seed);
                let built_ws = pipe.partition_ws(&cloud, &mut ws).unwrap();
                assert_eq!(built_ws, built, "dirty-workspace build diverged");
                let mut staging = PipelineOutput::default();
                // Dirty the staging with a different config first...
                let other = Pipeline::new(PipelineConfig::new(th, rate / 2.0, 1.7, num + 2)).unwrap();
                other.run_with_partition_into(&cloud, &built_ws, false, &mut ws, &mut staging).unwrap();
                // ...then with a different frame.
                pipe.run_with_partition_into(&seed, &pipe.partition(&seed).unwrap(), false, &mut ws, &mut staging).unwrap();
                pipe.run_with_partition_into(&cloud, &built_ws, false, &mut ws, &mut staging).unwrap();
                assert_eq!(staging, fresh, "dirty-staging output diverged");
                // Budget-k through the same (now dirtier) workspace + staging.
                let k = ((fresh.total_samples() as f64) * frac).floor() as usize;
                pipe.run_with_partition_into_cancel(&cloud, &built_ws, k, false, &mut ws, &mut staging, None).unwrap();
                assert_eq!(staging, fresh.prefix(k), "dirty budget-{k} run diverged from prefix({k})");
                results.push(fresh);
            });
        });
        // All backends agree with one another as well.
        for w in results.windows(2) {
            prop_assert_eq!(&w[0], &w[1]);
        }
    }

    /// The block ops on their own (explicit per-block counts, not the
    /// pipeline's rate): they check their scratch out of the global pool, so
    /// a dirty pooled workspace must give the same results as a fresh one,
    /// block rows included (ragged blocks by construction — Fractal leaves
    /// are unevenly sized).
    #[test]
    fn dirty_workspace_block_tasks_match_wrappers(
        (cloud, th) in (arb_cloud(300), 4usize..48),
        count in 1usize..64,
        radius in 0.3f32..3.0,
        num in 1usize..8,
    ) {
        let part = Fractal::with_threshold(th).build(&cloud).unwrap().partition;
        let seed = PointCloud::from_points(
            (0..61).map(|i| Point3::new(-(i as f32) * 0.7, (i % 5) as f32 * 1.3, 0.2)).collect(),
        );
        let cfg = BppoConfig::sequential();
        let counts = vec![count; part.blocks.len()];
        let sample_group = |counts: &[usize], radius: f32, num: usize| -> (BlockFpsResult, BlockNeighborResult) {
            let fps = block_fps_with_counts(&cloud, &part, counts, &cfg).unwrap();
            let bq = block_ball_query(&cloud, &part, &fps.per_block, radius, num, &cfg).unwrap();
            (fps, bq)
        };
        // Fresh: with the pool emptied, the checkout constructs a workspace.
        let pool = global_pool();
        let held: Vec<Workspace> =
            std::iter::from_fn(|| (pool.idle() > 0).then(|| pool.take())).collect();
        let fresh = sample_group(&counts, radius, num);
        held.into_iter().for_each(|ws| pool.put(ws));
        // Dirty: the pool's top workspace is left by another cloud, then by
        // a run at other counts and another neighbor width.
        pool.put(dirty_workspace(&seed));
        sample_group(&vec![count / 2 + 3; part.blocks.len()], 1.7, num + 2);
        let dirty = sample_group(&counts, radius, num);
        prop_assert_eq!(&dirty.0, &fresh.0);
        prop_assert_eq!(&dirty.1, &fresh.1);
    }

    /// Repeating the same frame through one workspace (the cache-hit serve
    /// pattern: partition built once, BPPO half re-run) never drifts.
    #[test]
    fn repeated_cache_hit_runs_are_stable(
        (cloud, th) in (arb_cloud(300), 8usize..64),
    ) {
        let config = PipelineConfig::new(th, 0.25, 0.6, 8);
        let pipe = Pipeline::new(config).unwrap();
        let mut ws = Workspace::new();
        let built = pipe.partition_ws(&cloud, &mut ws).unwrap();
        let first = pipe.run_with_partition(&cloud, &built, false).unwrap();
        let mut staging = PipelineOutput::default();
        for _round in 0..3 {
            pipe.run_with_partition_into(&cloud, &built, false, &mut ws, &mut staging).unwrap();
            prop_assert_eq!(&staging, &first);
        }
    }
}

/// An injected mid-stage panic with a pooled workspace live must not
/// contaminate later frames: the unwind-aware [`PoolGuard`] discards the
/// arena instead of re-pooling it, so the next clean frame through the
/// global pool is bit-identical to a run through brand-new workspaces.
#[test]
fn pool_survives_injected_mid_stage_panic() {
    let cloud = PointCloud::from_points(
        (0..300)
            .map(|i| Point3::new((i % 17) as f32 * 0.7, (i % 5) as f32, i as f32 * 0.01))
            .collect::<Vec<_>>(),
    );
    let config = PipelineConfig::new(24, 0.3, 0.8, 6);
    let pipe = Pipeline::new(config).unwrap();
    // Panic mid-stage with a pooled workspace checked out and dirtied: the
    // partition half has run, FPS/ball-query scratch is in a torn state.
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut ws = fractalcloud_core::workspace::global_pool().checkout();
        let _built = pipe.partition_ws(&cloud, &mut ws).unwrap();
        panic!("injected mid-stage panic");
    }));
    assert!(r.is_err());
    // A clean frame via the pooled entry points equals a run through a
    // never-pooled workspace, bit for bit.
    let built = pipe.partition(&cloud).unwrap();
    let pooled = pipe.run_with_partition(&cloud, &built, false).unwrap();
    let mut fresh_ws = Workspace::new();
    let built_fresh = pipe.partition_ws(&cloud, &mut fresh_ws).unwrap();
    assert_eq!(built_fresh, built, "post-panic pooled build diverged");
    let mut staging = PipelineOutput::default();
    pipe.run_with_partition_into(&cloud, &built_fresh, false, &mut fresh_ws, &mut staging).unwrap();
    assert_eq!(staging, pooled, "post-panic pooled run diverged from fresh workspaces");
}

/// Deterministic (non-property) check that a pipeline run through a dirty
/// workspace handles the empty-centers and single-block edge shapes: a
/// budget-0 run samples no centers at all.
#[test]
fn dirty_workspace_handles_edge_shapes() {
    let cloud = PointCloud::from_points(
        (0..40).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect::<Vec<_>>(),
    );
    let built = Fractal::with_threshold(64).build(&cloud).unwrap(); // single block
    let seed = PointCloud::from_points(
        (0..33).map(|i| Point3::new(0.0, i as f32 * 0.5, 1.0)).collect::<Vec<_>>(),
    );
    let mut ws = dirty_workspace(&seed);
    let pipe = Pipeline::new(PipelineConfig::new(64, 0.25, 0.5, 4)).unwrap();
    let fresh = pipe.run_budget(&cloud, 0, false).unwrap(); // no centers at all
    let mut out = PipelineOutput::default();
    pipe.run_with_partition_into_cancel(&cloud, &built, 0, false, &mut ws, &mut out, None).unwrap();
    assert_eq!(out, fresh);
    assert!(out.grouped.indices.is_empty());
}
