//! The steady-state allocation contract: once its buffers have grown, a
//! cache-hit frame touches the heap zero times — in the core hot path and
//! through the serving engine's recycling loop, with or without a request
//! deadline, on one lane or with its blocks fanned out over a thread
//! budget, alone or fused into a batch — and so does a cache-hit inference
//! request through the engine's recycling loop, whatever
//! `FRACTALCLOUD_THREADS` says. A fanned-out block writes its rows in place
//! into its own slice of the frame's output, on a pooled workspace, so the
//! lanes that happen to run change nothing the heap sees once the pool
//! holds a warmed workspace per lane.
//!
//! The counter is process-wide, so this binary holds exactly one test:
//! nothing else may allocate while a window is open.

use fractalcloud_core::{Pipeline, PipelineConfig, PipelineOutput, Workspace};
use fractalcloud_pointcloud::count_alloc::{allocation_count, CountingAllocator};
use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
use fractalcloud_pointcloud::PointCloud;
use fractalcloud_serve::{
    Engine, FaultKind, FaultPlan, FaultPoint, InferRequest, ModelConfig, Priority, ServeConfig,
};
use std::sync::Arc;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const FRAMES: u64 = 16;

/// Heap allocations over `FRAMES` cache-hit frames through an engine
/// started with `config`, after 32 warm-up frames; every response is
/// recycled.
fn serve_loop_allocations(config: ServeConfig, cloud: &Arc<PointCloud>) -> u64 {
    let cfg = PipelineConfig::default();
    let engine = Engine::start(config);
    for _ in 0..32 {
        let r = engine.process_shared(Arc::clone(cloud), cfg).expect("serve warm-up");
        engine.recycle(r);
    }
    let before = allocation_count();
    for _ in 0..FRAMES {
        let r = engine.process_shared(Arc::clone(cloud), cfg).expect("serve frame");
        engine.recycle(r);
    }
    let allocations = allocation_count() - before;
    engine.shutdown();
    allocations
}

/// Tickets submitted per round of [`fused_loop_allocations`].
const BURST: usize = 8;

/// Heap allocations over `FRAMES` rounds of `BURST` cache-hit frames each,
/// submitted at once to an engine started with `config`, then all waited
/// for, then all recycled, after as many warm-up rounds; also the engine's
/// `(batches, batched_frames)` over the window. Waiting for the whole
/// burst before recycling any of it keeps exactly `BURST` responses in
/// circulation whatever the scheduling, so every round reuses the shells
/// the warm-up grew.
fn fused_loop_allocations(config: ServeConfig, cloud: &Arc<PointCloud>) -> (u64, u64, u64) {
    let cfg = PipelineConfig::default();
    let engine = Engine::start(config);
    let mut tickets = Vec::with_capacity(BURST);
    let mut responses = Vec::with_capacity(BURST);
    let mut round = || {
        for _ in 0..BURST {
            let ticket =
                engine.submit_shared_with_options(Arc::clone(cloud), cfg, Priority::Normal, None);
            tickets.push(ticket.expect("admitted"));
        }
        responses.extend(tickets.drain(..).map(|t| t.wait().expect("fused frame")));
        responses.drain(..).for_each(|r| engine.recycle(r));
    };
    (0..FRAMES).for_each(|_| round());
    let start = engine.metrics();
    let before = allocation_count();
    (0..FRAMES).for_each(|_| round());
    let allocations = allocation_count() - before;
    let end = engine.metrics();
    engine.shutdown();
    (allocations, end.batches - start.batches, end.batched_frames - start.batched_frames)
}

/// Inference requests per window: a forward pass is far dearer than a
/// frame in an unoptimised build.
const INFERS: usize = 4;

/// Heap allocations over `INFERS` cache-hit inference requests through an
/// engine started with `config`, after as many warm-up requests; every
/// response is recycled. The requests are built before the window opens:
/// an `InferRequest` owns its model description.
fn infer_loop_allocations(config: ServeConfig, cloud: &Arc<PointCloud>) -> u64 {
    let request = || InferRequest::new(ModelConfig::pointnetpp_classification());
    let engine = Engine::start(config);
    for _ in 0..INFERS {
        let r = engine.process_infer(Arc::clone(cloud), request()).expect("infer warm-up");
        engine.recycle_infer(r);
    }
    let requests: Vec<InferRequest> = (0..INFERS).map(|_| request()).collect();
    let before = allocation_count();
    for req in requests {
        let r = engine.process_infer(Arc::clone(cloud), req).expect("infer");
        engine.recycle_infer(r);
    }
    let allocations = allocation_count() - before;
    engine.shutdown();
    allocations
}

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
    let serial = ServeConfig::default().workers(1).thread_budget(1);
    let shared = Arc::new(cloud);
    assert_eq!(
        serve_loop_allocations(serial, &shared),
        0,
        "serve loop, {FRAMES} warmed cache-hit frames"
    );
    // A request deadline reaches the pipeline's stage seams as a plain
    // `Instant`: checking it allocates nothing either.
    assert_eq!(
        serve_loop_allocations(serial.deadline_ms(60_000), &shared),
        0,
        "serve loop with a deadline, {FRAMES} warmed cache-hit frames"
    );
    // Fanned out: a 16k-point room is about a hundred blocks, so sampling
    // and grouping hand their blocks to the lanes of a budget of 2.
    let fanned = ServeConfig::default().workers(1).thread_budget(2);
    let room = Arc::new(scene_cloud(&SceneConfig::default(), 16_384, 0));
    assert_eq!(
        serve_loop_allocations(fanned, &room),
        0,
        "fanned-out serve loop, {FRAMES} warmed cache-hit frames"
    );

    // Fused, cache-hit shape: a delay at every batch holds the one worker
    // while the rest of a burst queues, so those jobs fuse into one batch
    // and run as the items of one fan-out over a budget of 2. The frame is
    // one block, so no block fan-out runs inside a job.
    let held = FaultPlan::OFF
        .with_fault(FaultKind::Delay, FaultPoint::Worker, 1.0)
        .with_delay(FaultPoint::Worker, Duration::from_millis(2));
    let fused = ServeConfig::default().workers(1).thread_budget(2).faults(held);
    let (allocations, batches, batched_frames) = fused_loop_allocations(fused, &Arc::new(small));
    assert!(batched_frames > batches, "{batched_frames} frames in {batches} batches fused none");
    assert_eq!(allocations, 0, "fused serve loop, {FRAMES} warmed rounds of {BURST}");

    // Inference, cache-hit shape: the executor and the partition are
    // cached, the forward pass runs in the lane's workspace, and
    // `recycle_infer` hands the output's buffers back.
    let object = Arc::new(scene_cloud(&SceneConfig::default(), 512, 1));
    assert_eq!(
        infer_loop_allocations(serial, &object),
        0,
        "infer loop, {INFERS} warmed cache-hit requests"
    );
}
