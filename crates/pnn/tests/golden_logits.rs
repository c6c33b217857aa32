//! Golden-bits test: the logits of two fixed `(model, seed, cloud)` triples
//! are pinned to the digests recorded at the commit *before* the dense
//! layers moved into the packed `kernels::linear` GEMM. Cross-backend and
//! eager ≡ delayed suites show the paths agree with each other; only a
//! recorded digest shows they still agree with what the repo computed
//! before — any change to the per-element operation order of a dense layer
//! (FMA contraction, a different summation order, a reordered epilogue)
//! moves these bits.

use fractalcloud_core::Workspace;
use fractalcloud_pnn::{Aggregation, InferenceConfig, ModelConfig, NetworkExecutor};
use fractalcloud_pointcloud::generate::{object_cloud, scene_cloud, ObjectKind, SceneConfig};
use fractalcloud_pointcloud::kernels::{with_backend, Backend};
use fractalcloud_pointcloud::PointCloud;

/// FNV-1a (64-bit) over the little-endian bit patterns of `logits`.
fn fnv1a(logits: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in logits.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn assert_golden(name: &str, model: ModelConfig, cloud: &PointCloud, rows: usize, golden: u64) {
    for aggregation in [Aggregation::Eager, Aggregation::Delayed] {
        let executor =
            NetworkExecutor::new(InferenceConfig { model: model.clone(), seed: 42, aggregation });
        for backend in Backend::ALL {
            let out = with_backend(backend, || {
                executor.run(cloud, &mut Workspace::new()).expect("non-empty cloud")
            });
            assert_eq!(out.logits.len(), rows * model.classes, "{name}: logits shape");
            assert_eq!(
                fnv1a(&out.logits),
                golden,
                "{name}: logits moved off the recorded bits ({backend:?}, {aggregation:?})"
            );
        }
    }
}

#[test]
fn pointnetpp_classification_logits_match_the_recorded_bits() {
    let cloud = object_cloud(ObjectKind::Chair, 512, 11);
    assert_golden(
        "PN++ (c)",
        ModelConfig::pointnetpp_classification(),
        &cloud,
        1,
        0xd730_75e6_6c99_a76e,
    );
}

#[test]
fn pointnext_segmentation_logits_match_the_recorded_bits() {
    // Stem, residual blocks (a ReLU-free `down` layer), feature propagation
    // and a per-point head: every place a dense layer runs.
    let cloud = scene_cloud(&SceneConfig::default(), 384, 12);
    assert_golden(
        "PointNeXt (s)",
        ModelConfig::pointnext_segmentation(),
        &cloud,
        384,
        0xb2b4_0f27_afeb_7644,
    );
}
