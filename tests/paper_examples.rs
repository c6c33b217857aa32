//! Tests pinning the paper's concrete worked examples and reported
//! structural numbers.

use fractalcloud::core::Fractal;
use fractalcloud::pointcloud::generate::{scene_cloud, SceneConfig};
use fractalcloud::pointcloud::partition::{KdTreePartitioner, Partitioner};
use fractalcloud::pointcloud::{Point3, PointCloud};

/// Fig. 6's 80-point example: th = 24 must produce the 43/37 →
/// (19,24)/(17,20) split structure with two iterations.
#[test]
fn fig6_worked_example() {
    let mut pts = Vec::new();
    for i in 0..19 {
        pts.push(Point3::new(0.1 + i as f32 * 0.01, 0.1 + i as f32 * 0.01, 0.5));
    }
    for i in 0..24 {
        pts.push(Point3::new(0.1 + i as f32 * 0.01, 0.9 - i as f32 * 0.01, 0.5));
    }
    for i in 0..17 {
        pts.push(Point3::new(0.9 - i as f32 * 0.01, 0.1 + i as f32 * 0.01, 0.5));
    }
    for i in 0..20 {
        pts.push(Point3::new(0.9 - i as f32 * 0.01, 0.9 - i as f32 * 0.01, 0.5));
    }
    let r = Fractal::with_threshold(24).build(&PointCloud::from_points(pts)).unwrap();
    let sizes: Vec<usize> = r.partition.blocks.iter().map(|b| b.len()).collect();
    assert_eq!(sizes, vec![19, 24, 17, 20]);
    assert_eq!(r.iterations, 2);
    assert_eq!(r.tree.num_leaves(), 4);
    // DFT order: B3, B4, B5, B6 contiguous in memory.
    let perm = r.partition.layout_permutation();
    assert_eq!(perm.len(), 80);
}

/// Fig. 5's anchor counts: KD-tree sorts and fractal traversal bounds.
#[test]
fn fig5_sort_and_traversal_counts() {
    // 1K points, BS 64 → 15 sorts (measured on the real KD builder).
    let cloud = fractalcloud::pointcloud::generate::uniform_cube(1024, 1);
    let kd = KdTreePartitioner::new(64).partition(&cloud).unwrap();
    assert_eq!(kd.cost.sort_invocations, 15);
    // 289K points, BS 256 → 2047 sorts (analytic, matches the figure).
    assert_eq!(KdTreePartitioner::expected_sorts(289_000, 256), 2047);
    // Fractal bound: ceil(log2(n/BS)).
    assert_eq!(Fractal::expected_iterations(1024, 64), 4);
    assert_eq!(Fractal::expected_iterations(289_000, 256), 11);
}

/// §VI-D: outliers in S3DIS-like scenes are 0.5–2.5% of points and the
/// fractal threshold bounds the imbalance regardless.
#[test]
fn outlier_discussion_holds() {
    for frac in [0.005, 0.025] {
        let cfg = SceneConfig { outlier_fraction: frac, ..SceneConfig::default() };
        let cloud = scene_cloud(&cfg, 20_000, 3);
        let r = Fractal::with_threshold(256).build(&cloud).unwrap();
        let max = r.partition.blocks.iter().map(|b| b.len()).max().unwrap();
        assert!(max <= 256, "outlier fraction {frac}: max block {max}");
    }
}

/// §VI-D: the worst-case imbalance of fractal is bounded by th even for
/// "two distant dense regions", while uniform partitioning can reach the
/// full input size in one cell.
#[test]
fn two_distant_clusters_bound() {
    use fractalcloud::pointcloud::generate::uniform_cube;
    use fractalcloud::pointcloud::partition::UniformPartitioner;
    // Two dense unit cubes 100 m apart.
    let mut pts: Vec<Point3> = uniform_cube(5000, 1).iter().collect();
    pts.extend(uniform_cube(5000, 2).iter().map(|p| p + Point3::splat(100.0)));
    let cloud = PointCloud::from_points(pts);

    let fr = Fractal::with_threshold(256).build(&cloud).unwrap();
    let fr_max = fr.partition.blocks.iter().map(|b| b.len()).max().unwrap();
    assert!(fr_max <= 256);

    // A 4×4×4 uniform grid puts each whole cluster in one or two cells.
    let un = UniformPartitioner::new(4, 4, 4).partition(&cloud).unwrap();
    let un_max = un.blocks.iter().map(|b| b.len()).max().unwrap();
    assert!(un_max > 2000, "uniform worst cell {un_max} should be huge");
}

/// Table II consistency: peak GOPS derives from the PE array at 1 GHz.
#[test]
fn table2_peak_performance_consistency() {
    use fractalcloud::accel::AcceleratorConfig;
    use fractalcloud::sim::SystolicConfig;
    let pe = SystolicConfig::pe16x16();
    for c in AcceleratorConfig::table2() {
        assert_eq!(pe.peak_gops(c.freq_ghz), c.peak_gops, "{}", c.name);
    }
}
