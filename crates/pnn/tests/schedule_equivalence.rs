//! Property tests for the Mesorasi schedule equivalence: on random clouds
//! the eager (gather-then-MLP) and delayed (MLP-then-max-aggregate)
//! schedules must produce bit-identical logits and row indices — on every
//! kernel backend — while only the delayed schedule reports moved/saved
//! MACs and only the eager schedule reports gather traffic.

use fractalcloud_core::Workspace;
use fractalcloud_pnn::{Aggregation, InferOutput, InferenceConfig, ModelConfig, NetworkExecutor};
use fractalcloud_pointcloud::kernels::{self, Backend};
use fractalcloud_pointcloud::{Point3, PointCloud};
use proptest::prelude::*;

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Point3>> {
    proptest::collection::vec((-4.0f32..4.0, -4.0f32..4.0, -2.0f32..2.0), 24..max_n)
        .prop_map(|v| v.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect())
}

fn run_schedule(cloud: &PointCloud, seed: u64, agg: Aggregation) -> InferOutput {
    let model = ModelConfig::table1().remove(0);
    let executor = NetworkExecutor::new(InferenceConfig {
        aggregation: agg,
        ..InferenceConfig::new(model, seed)
    });
    let mut ws = Workspace::new();
    executor.run(cloud, &mut ws).expect("inference on a non-empty cloud")
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Eager and delayed logits are bit-identical on random clouds (ragged
    /// ball neighborhoods arise naturally from the random geometry), with
    /// the MAC/gather accounting split the schedules promise.
    #[test]
    fn eager_and_delayed_are_bit_identical(pts in arb_points(120), seed in 0u64..1_000) {
        let cloud = PointCloud::from_points(pts);
        let eager = run_schedule(&cloud, seed, Aggregation::Eager);
        let delayed = run_schedule(&cloud, seed, Aggregation::Delayed);
        prop_assert_eq!(eager.classes, delayed.classes);
        prop_assert_eq!(&eager.row_index, &delayed.row_index);
        prop_assert_eq!(bits(&eager.logits), bits(&delayed.logits));
        prop_assert_eq!(eager.counters.macs_moved, 0);
        prop_assert_eq!(eager.counters.macs_saved, 0);
        prop_assert!(eager.counters.gather_bytes > 0);
        prop_assert!(delayed.counters.macs_moved > 0);
        prop_assert_eq!(delayed.counters.gather_bytes, 0);
    }

    /// The schedule equivalence holds per kernel backend, and each
    /// backend's delayed logits are bit-identical to the soa backend's
    /// — the segmented-max and MLP paths introduce no backend drift.
    #[test]
    fn schedules_agree_on_every_backend(pts in arb_points(96), seed in 0u64..1_000) {
        let cloud = PointCloud::from_points(pts);
        let soa_delayed = kernels::with_backend(Backend::Soa, || {
            run_schedule(&cloud, seed, Aggregation::Delayed)
        });
        for b in Backend::ALL {
            let (eager, delayed) = kernels::with_backend(b, || {
                (run_schedule(&cloud, seed, Aggregation::Eager),
                 run_schedule(&cloud, seed, Aggregation::Delayed))
            });
            prop_assert_eq!(bits(&eager.logits), bits(&delayed.logits));
            prop_assert_eq!(bits(&delayed.logits), bits(&soa_delayed.logits));
            prop_assert_eq!(&delayed.row_index, &soa_delayed.row_index);
        }
    }
}
