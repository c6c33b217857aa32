//! Fig. 5: the workload structure of KD-tree construction (exclusive,
//! serial sorts) versus Fractal (inclusive traversals), with the paper's two
//! anchor configurations measured on the real implementations.

use fractalcloud_bench::{header, row_str, SEED};
use fractalcloud_core::Fractal;
use fractalcloud_pointcloud::generate::{scene_cloud, uniform_cube, SceneConfig};
use fractalcloud_pointcloud::partition::{KdTreePartitioner, Partitioner};

fn main() {
    header("Fig. 5", "KD-tree sorts vs Fractal traversals");

    // Anchor 1: BS = 64, 1K points.
    let cloud = uniform_cube(1024, SEED);
    let kd = KdTreePartitioner::new(64).partition(&cloud).unwrap();
    let fr = Fractal::with_threshold(64).build(&cloud).unwrap();
    row_str(
        "config",
        &["paper sorts".into(), "measured".into(), "paper trav.".into(), "measured".into()],
    );
    row_str(
        "BS=64, 1K points",
        &["15".into(), kd.cost.sort_invocations.to_string(), "4".into(), fr.iterations.to_string()],
    );

    // Anchor 2: BS = 256, 289K points (analytic count + measured fractal).
    let big = scene_cloud(&SceneConfig::default(), 289_000, SEED);
    let fr_big = Fractal::with_threshold(256).build(&big).unwrap();
    row_str(
        "BS=256, 289K points",
        &[
            "2047".into(),
            KdTreePartitioner::expected_sorts(289_000, 256).to_string(),
            "11".into(),
            fr_big.iterations.to_string(),
        ],
    );
    println!();
    println!("Complexity: KD-tree O(n/BS) serial sorts; Fractal O(log2 n/BS)");
    println!("traversals. Measured fractal iterations may exceed the balanced");
    println!("bound by 1-3 levels on skewed scenes (dense clusters split deeper).");
}
