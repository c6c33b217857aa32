//! The executor's allocation contract: a warmed workspace and output run a
//! whole forward pass on the serving path
//! ([`NetworkExecutor::run_with_stage1_into`]) without touching the heap,
//! at a thread budget of 1 and at 2, where the wide layers split their
//! rows across a helper lane.
//!
//! The counter is process-wide, so nothing else may allocate while a
//! window is open. That is why this binary has no test harness
//! (`harness = false`): libtest's main thread inserts the running test
//! into its bookkeeping map after spawning the test's thread, and that
//! insert could land inside a window. Here `main` runs the windows itself
//! and panics — a failed run — on the first non-zero count.

use fractalcloud_core::{Pipeline, PipelineConfig, Workspace};
use fractalcloud_parallel::with_budget;
use fractalcloud_pnn::{InferOutput, InferenceConfig, ModelConfig, NetworkExecutor};
use fractalcloud_pointcloud::count_alloc::{allocation_count, CountingAllocator};
use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const PASSES: u64 = 3;

fn main() {
    assert!(allocation_count() > 0, "the counting allocator is installed");
    // A classifier at the size `INFER` serves objects at, and a segmenter,
    // whose propagation stages and per-point head run dense layers too.
    let cases = [
        (ModelConfig::pointnetpp_classification(), 1024),
        (ModelConfig::pointnext_segmentation(), 256),
    ];
    for (model, points) in cases {
        let cloud = scene_cloud(&SceneConfig::default(), points, 3);
        let sa = &model.stages[0];
        let cfg = PipelineConfig::new(128, sa.sample_ratio, sa.radius, sa.nsample);
        let stage1 = Pipeline::new(cfg).expect("valid config").run(&cloud, false).expect("stage 1");
        let executor = NetworkExecutor::new(InferenceConfig::new(model, 42));
        let mut ws = Workspace::new();
        let mut out = InferOutput::default();
        for budget in [1, 2] {
            let allocations = with_budget(budget, || {
                // Layers ping-pong between two buffers, so a buffer meets
                // its largest layer only after a few passes.
                for _ in 0..PASSES {
                    executor
                        .run_with_stage1_into(&cloud, &stage1, &mut ws, &mut out)
                        .expect("warm-up");
                }
                let before = allocation_count();
                for _ in 0..PASSES {
                    executor
                        .run_with_stage1_into(&cloud, &stage1, &mut ws, &mut out)
                        .expect("pass");
                }
                allocation_count() - before
            });
            let name = &executor.config().model.notation;
            assert_eq!(allocations, 0, "{name}, budget {budget}, {PASSES} warmed passes");
        }
    }
    println!("zero_alloc: every warmed window allocated nothing");
}
