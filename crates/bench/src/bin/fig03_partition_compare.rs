//! Fig. 3: comparison of partitioning strategies — none (PointAcc), uniform
//! (PNNPU), KD-tree (Crescent), Fractal — on partition latency, balance,
//! and the accuracy proxy.

use fractalcloud_accel::sim::{EnergyTable, FractalEngine};
use fractalcloud_bench::{format_value, header, row_str, SEED};
use fractalcloud_core::{evaluate_quality, Fractal, QualityConfig};
use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
use fractalcloud_pointcloud::partition::{
    KdTreePartitioner, Partition, Partitioner, UniformPartitioner,
};

fn main() {
    header("Fig. 3", "partitioning strategies: latency, balance, accuracy proxy");
    let n = 16_384;
    let th = 256;
    let cloud = scene_cloud(&SceneConfig::default(), n, SEED);
    let engine = FractalEngine::new(EnergyTable::tsmc28());

    let uniform = UniformPartitioner::with_target_block_size(th).partition(&cloud).unwrap();
    let kd = KdTreePartitioner::new(th).partition(&cloud).unwrap();
    let fractal = Fractal::with_threshold(th).build(&cloud).unwrap().partition;

    let lat_ms = |p: &Partition| -> f64 {
        let cycles = match p.method {
            "kd-tree" => engine.kd_tree_partition(n as u64, th as u64).cycles,
            _ => engine.traversal_partition(&p.cost).cycles,
        };
        cycles as f64 / 1e6 // 1 GHz → ms
    };

    let quality = |p: &Partition, equal: bool| -> f64 {
        let cfg = QualityConfig { equal_allocation: equal, ..QualityConfig::default() };
        let q = evaluate_quality(&cloud, p, &cfg).expect("quality evaluates");
        q.proxy.estimated_accuracy_loss_pp()
    };

    row_str("strategy", &["baseline".into(), "uniform".into(), "kd-tree".into(), "fractal".into()]);
    row_str(
        "partition latency (ms)",
        &[
            "0".into(),
            format_value(lat_ms(&uniform)),
            format_value(lat_ms(&kd)),
            format_value(lat_ms(&fractal)),
        ],
    );
    row_str(
        "imbalance (max/mean)",
        &[
            "-".into(),
            format_value(uniform.balance().imbalance()),
            format_value(kd.balance().imbalance()),
            format_value(fractal.balance().imbalance()),
        ],
    );
    row_str(
        "est. accuracy loss (pp)",
        &[
            "0".into(),
            format_value(quality(&uniform, true)),
            format_value(quality(&kd, false)),
            format_value(quality(&fractal, false)),
        ],
    );
    println!();
    println!("Paper (Fig. 3, PointNeXt on S3DIS): baseline 62.59% mIoU / no");
    println!("partition; uniform 53.79% (−8.8pp), 0.03 ms; kd-tree 62.30%,");
    println!("4.03 ms; fractal 62.03% (−0.6pp), 0.04 ms. Expected shape:");
    println!("kd-tree strictly balanced but ~100× slower; uniform fastest but");
    println!("imbalanced and inaccurate; fractal near-uniform speed, near-kd");
    println!("balance, sub-1pp proxy loss.");
}
