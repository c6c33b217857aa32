//! The thread budget decides only how many lanes a dense layer's rows are
//! split across, never the answer: for every Table-1 network, under both
//! aggregation schedules on every kernel backend, the serving path
//! ([`NetworkExecutor::run_with_stage1`]) returns the same logits (bit for
//! bit), row map and work counters at a budget of 1, 2 and 4. The clouds
//! are large enough that the wide layers split (the eager schedule runs
//! `nsample` rows per center, so its cloud can be smaller): with
//! `FRACTALCLOUD_THREADS` above 1 the extra lanes run on helper threads.

use fractalcloud_core::{Pipeline, PipelineConfig, Workspace};
use fractalcloud_parallel::with_budget;
use fractalcloud_pnn::{Aggregation, InferOutput, InferenceConfig, ModelConfig, NetworkExecutor};
use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
use fractalcloud_pointcloud::kernels::{with_backend, Backend};
use fractalcloud_pointcloud::ops::OpCounters;

/// Points per cloud, by schedule: the delayed one at the size `INFER`
/// serves objects at.
const POINTS: [(Aggregation, usize); 2] = [(Aggregation::Eager, 128), (Aggregation::Delayed, 1024)];

/// What must not move with the budget.
fn fingerprint(out: &InferOutput) -> (Vec<u32>, Vec<usize>, OpCounters) {
    (out.logits.iter().map(|x| x.to_bits()).collect(), out.row_index.clone(), out.counters)
}

fn assert_budget_invariant(index: usize) {
    let model = ModelConfig::table1().swap_remove(index);
    let sa = &model.stages[0];
    let pipeline = Pipeline::new(PipelineConfig::new(128, sa.sample_ratio, sa.radius, sa.nsample))
        .expect("valid config");
    for (aggregation, points) in POINTS {
        let cloud = scene_cloud(&SceneConfig::default(), points, 5);
        let stage1 = pipeline.run(&cloud, false).expect("stage 1");
        let executor = NetworkExecutor::new(InferenceConfig {
            aggregation,
            ..InferenceConfig::new(model.clone(), 42)
        });
        for backend in Backend::ALL {
            let run = |budget| {
                let out = with_budget(budget, || {
                    with_backend(backend, || {
                        executor.run_with_stage1(&cloud, &stage1, &mut Workspace::new())
                    })
                });
                fingerprint(&out.expect("inference on a non-empty cloud"))
            };
            let one = run(1);
            for budget in [2, 4] {
                assert!(
                    run(budget) == one,
                    "{}, {}, {}: budget {budget} differs from budget 1",
                    model.notation,
                    aggregation.name(),
                    backend.name()
                );
            }
        }
    }
}

// One test per Table-1 row, so the harness spreads them over its threads.
#[test]
fn pointnetpp_classification() {
    assert_budget_invariant(0);
}

#[test]
fn pointnext_classification() {
    assert_budget_invariant(1);
}

#[test]
fn pointnetpp_part_segmentation() {
    assert_budget_invariant(2);
}

#[test]
fn pointnext_part_segmentation() {
    assert_budget_invariant(3);
}

#[test]
fn pointnetpp_segmentation() {
    assert_budget_invariant(4);
}

#[test]
fn pointnext_segmentation() {
    assert_budget_invariant(5);
}

#[test]
fn pointvector_segmentation() {
    assert_budget_invariant(6);
}

#[test]
fn table1_has_seven_rows() {
    assert_eq!(ModelConfig::table1().len(), 7, "one test above per row");
}
