//! §VI-D discussion experiments: the asymptotic limit (1M points) and the
//! imbalance effect of Fractal partitioning.
//!
//! ```text
//! cargo run --release -p fractalcloud-bench --bin discussion_limits
//! ```

use fractalcloud_accel::sim::{EnergyTable, Rspu, RspuConfig};
use fractalcloud_accel::{Accelerator, DesignModel, DesignParams, GpuModel, Workload};
use fractalcloud_bench::{format_value, header, quick, row_str, SEED};
use fractalcloud_core::Fractal;
use fractalcloud_pnn::ModelConfig;
use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};

fn main() {
    header("§VI-D", "asymptotic limit and imbalance effect");
    let model = ModelConfig::pointnext_segmentation();

    // --- Asymptotic speedup at very large scale ---
    let n = if quick() { 131_000 } else { 1_000_000 };
    println!("--- asymptotic scaling (PNXt (s) @ {n}) ---");
    let cloud = scene_cloud(&SceneConfig::default(), n, SEED);
    let w = Workload::prepare_with_threshold(&model, &cloud, 256);
    let gpu = GpuModel::titan_rtx().execute(&w);
    let fc = DesignModel::new(DesignParams::fractalcloud()).execute(&w);
    println!(
        "GPU {:.0} ms, FractalCloud {:.1} ms -> {:.1}x speedup (paper: 105.7x at 1M)",
        gpu.latency_ms(),
        fc.latency_ms(),
        fc.speedup_over(&gpu)
    );
    println!(
        "DRAM working set: coords {:.1} MB (a 24 GB DRAM handles 3M-point PNXt per the paper)",
        n as f64 * 6.0 / 1e6
    );

    // --- Imbalance effect: fractal blocks vs a strictly balanced split ---
    println!();
    println!("--- imbalance effect (point-op makespan, 33K scene) ---");
    let cloud = scene_cloud(&SceneConfig::default(), 33_000, SEED);
    let fr = Fractal::with_threshold(256).build(&cloud).unwrap();
    let sizes: Vec<usize> = fr.partition.blocks.iter().map(|b| b.len()).collect();
    let rspu = Rspu::new(RspuConfig::fractalcloud(), EnergyTable::tsmc28());

    // Makespan of block FPS work with the real (partially imbalanced)
    // fractal blocks versus a hypothetical strictly balanced partition of
    // the same block count.
    let work = |sizes: &[usize]| -> u64 {
        let (total, critical) = fractalcloud_accel::analytic::block_fps(sizes, 0.25, true);
        rspu.block_parallel_from_aggregate(&total, &critical).cycles
    };
    let real = work(&sizes);
    let even = vec![33_000 / sizes.len(); sizes.len()];
    let balanced = work(&even);
    let overhead = 100.0 * (real as f64 / balanced as f64 - 1.0);
    row_str(
        "blocks / min / max",
        &[
            sizes.len().to_string(),
            sizes.iter().min().unwrap().to_string(),
            sizes.iter().max().unwrap().to_string(),
        ],
    );
    row_str("point-op makespan vs strictly balanced", &[format!("+{}%", format_value(overhead))]);
    // End-to-end impact scales by the point-op share of total latency.
    let w33 = Workload::prepare_with_threshold(&model, &cloud, 256);
    let fc33 = DesignModel::new(DesignParams::fractalcloud()).execute(&w33);
    let share = fc33.point_op_ms() / fc33.latency_ms();
    row_str("end-to-end latency impact", &[format!("+{}%", format_value(overhead * share))]);
    println!();
    println!("Paper: partial imbalance adds only 3.0% (PointNeXt) / 2.8%");
    println!("(PointVector) end-to-end latency because the threshold bounds");
    println!("the largest block. Expected: single-digit percent end-to-end.");
}
