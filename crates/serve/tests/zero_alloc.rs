//! The steady-state allocation contract: once its buffers have grown, a
//! cache-hit frame touches the heap zero times — in the core hot path and
//! through the serving engine's recycling loop — whatever
//! `FRACTALCLOUD_THREADS` says, because a sequential lane is something the
//! caller configures (`parallel = false`, `thread_budget(1)`), not
//! something the host happens to provide.
//!
//! The counter is process-wide, so this binary holds exactly one test:
//! nothing else may allocate while a window is open.

use fractalcloud_core::{Pipeline, PipelineConfig, PipelineOutput, Workspace};
use fractalcloud_pointcloud::count_alloc::{allocation_count, CountingAllocator};
use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
use fractalcloud_serve::{Engine, ServeConfig};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const FRAMES: u64 = 16;

#[test]
fn warmed_core_hot_path_and_recycling_serve_loop_allocate_nothing() {
    let cloud = scene_cloud(&SceneConfig::default(), 4096, 0);
    let cfg = PipelineConfig::default();
    assert!(allocation_count() > 0, "the counting allocator is installed");

    // Core, cache-hit shape: the partition is prebuilt and the BPPO half
    // refills one workspace and one staging buffer in place.
    let pipe = Pipeline::new(cfg).expect("default config");
    let mut ws = Workspace::new();
    let built = pipe.partition_ws(&cloud, &mut ws).expect("partition");
    let mut staging = PipelineOutput::default();
    pipe.run_with_partition_into(&cloud, &built, false, &mut ws, &mut staging).expect("warm-up");
    let before = allocation_count();
    for _ in 0..FRAMES {
        pipe.run_with_partition_into(&cloud, &built, false, &mut ws, &mut staging).expect("frame");
    }
    assert_eq!(allocation_count() - before, 0, "core hot path, {FRAMES} warmed frames");

    // A one-block cloud has nothing to fan out: `parallel = true` takes the
    // same one-lane path at any thread budget.
    let small = scene_cloud(&SceneConfig::default(), 200, 0);
    let built = pipe.partition_ws(&small, &mut ws).expect("partition");
    assert_eq!(built.partition.blocks.len(), 1);
    pipe.run_with_partition_into(&small, &built, true, &mut ws, &mut staging).expect("warm-up");
    let before = allocation_count();
    for _ in 0..FRAMES {
        pipe.run_with_partition_into(&small, &built, true, &mut ws, &mut staging).expect("frame");
    }
    assert_eq!(allocation_count() - before, 0, "one block, parallel = true, {FRAMES} frames");

    // Serve, cache-hit shape: the cloud is shared (no per-submit clone),
    // slots / workspaces / staging come from their pools, and `recycle`
    // hands the response's vectors back for the next frame.
    let engine = Engine::start(ServeConfig::default().workers(1).thread_budget(1));
    let shared = Arc::new(cloud);
    for _ in 0..32 {
        let r = engine.process_shared(Arc::clone(&shared), cfg).expect("serve warm-up");
        engine.recycle(r);
    }
    let before = allocation_count();
    for _ in 0..FRAMES {
        let r = engine.process_shared(Arc::clone(&shared), cfg).expect("serve frame");
        engine.recycle(r);
    }
    assert_eq!(allocation_count() - before, 0, "serve loop, {FRAMES} warmed cache-hit frames");
    engine.shutdown();
}
