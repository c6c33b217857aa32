//! Hostile geometry through inference: identical, collinear, one- and
//! two-point clouds, NaN / ±inf coordinates (one point or all of them) and
//! coordinates near `f32::MAX`, through every Table-1 network under both
//! aggregation schedules on every kernel backend.
//!
//! The contract is a defined result: `Ok` with every `row_index` inside the
//! cloud and `rows × classes` logits, bit-identical between schedules and
//! backends (the logits themselves may be NaN — garbage in, garbage out —
//! but the same garbage everywhere), or a typed `Err`. Never a panic: a
//! neighbor row of `usize::MAX` used to take an `INFER` worker down.

use fractalcloud_core::Workspace;
use fractalcloud_pnn::{Aggregation, InferOutput, InferenceConfig, ModelConfig, NetworkExecutor};
use fractalcloud_pointcloud::generate::uniform_cube;
use fractalcloud_pointcloud::kernels::{self, Backend};
use fractalcloud_pointcloud::{Point3, PointCloud};

/// Points per cloud: one full kernel chunk and a ragged one, small enough
/// that 7 models × 2 schedules × 2 backends × 8 clouds stay affordable
/// unoptimised (an eager stage pays `nsample` rows per center however few
/// points there are).
const N: usize = 70;

/// An `N`-point cube with point `i` replaced wherever `hostile(i)` names one.
fn cube_with(hostile: impl Fn(usize) -> Option<Point3>) -> PointCloud {
    let cube = uniform_cube(N, 11);
    PointCloud::from_points((0..N).map(|i| hostile(i).unwrap_or(cube.point(i))).collect())
}

fn hostile_clouds() -> Vec<(&'static str, PointCloud)> {
    let line = |n: usize| {
        PointCloud::from_points((0..n).map(|i| Point3::new(i as f32 * 0.01, 0.5, -0.5)).collect())
    };
    vec![
        ("identical", PointCloud::from_points(vec![Point3::new(0.3, -0.2, 0.1); N])),
        ("collinear", line(N)),
        ("one point", line(1)),
        ("two points", line(2)),
        ("one NaN", cube_with(|i| (i == 37).then_some(Point3::new(f32::NAN, 0.1, 0.2)))),
        (
            "one +inf, one -inf",
            cube_with(|i| match i {
                0 => Some(Point3::new(0.1, f32::INFINITY, 0.2)),
                69 => Some(Point3::new(0.1, 0.2, f32::NEG_INFINITY)),
                _ => None,
            }),
        ),
        ("all NaN", cube_with(|_| Some(Point3::splat(f32::NAN)))),
        ("near f32::MAX", cube_with(|i| (i % 3 == 0).then_some(Point3::splat(f32::MAX)))),
    ]
}

/// What must agree everywhere: the row map and the logits, bit for bit.
fn fingerprint(out: &InferOutput) -> (Vec<usize>, Vec<u32>) {
    (out.row_index.clone(), out.logits.iter().map(|x| x.to_bits()).collect())
}

/// Runs every hostile cloud through Table-1 model `index` under both
/// schedules on every backend.
fn assert_one_defined_result(index: usize) {
    let model = ModelConfig::table1().swap_remove(index);
    let notation = model.notation.clone();
    let executors = [Aggregation::Eager, Aggregation::Delayed].map(|aggregation| {
        NetworkExecutor::new(InferenceConfig {
            aggregation,
            ..InferenceConfig::new(model.clone(), 7)
        })
    });
    for (name, cloud) in hostile_clouds() {
        let mut results = Vec::new();
        for backend in Backend::ALL {
            for executor in &executors {
                let what = format!(
                    "{notation}, {name}, {}, {}",
                    executor.config().aggregation.name(),
                    backend.name()
                );
                let run =
                    kernels::with_backend(backend, || executor.run(&cloud, &mut Workspace::new()));
                results.push(run.map(|out| {
                    assert!(out.row_index.iter().all(|&i| i < cloud.len()), "{what}");
                    assert_eq!(out.logits.len(), out.row_index.len() * out.classes, "{what}");
                    fingerprint(&out)
                }));
            }
        }
        let first = &results[0];
        assert!(results.iter().all(|r| r == first), "{notation}, {name}: results differ");
    }
}

// One test per Table-1 row, so the harness spreads them over its threads.
#[test]
fn pointnetpp_classification() {
    assert_one_defined_result(0);
}

#[test]
fn pointnext_classification() {
    assert_one_defined_result(1);
}

#[test]
fn pointnetpp_part_segmentation() {
    assert_one_defined_result(2);
}

#[test]
fn pointnext_part_segmentation() {
    assert_one_defined_result(3);
}

#[test]
fn pointnetpp_segmentation() {
    assert_one_defined_result(4);
}

#[test]
fn pointnext_segmentation() {
    assert_one_defined_result(5);
}

#[test]
fn pointvector_segmentation() {
    assert_one_defined_result(6);
}

#[test]
fn table1_has_seven_rows() {
    assert_eq!(ModelConfig::table1().len(), 7, "one test above per row");
}
