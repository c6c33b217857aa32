//! Fig. 1: memory access (MB) and inference latency (ms) of the original
//! baseline structure (global search, PointAcc-style) versus FractalCloud,
//! across 1K → 289K input points.

use fractalcloud_accel::{Accelerator, DesignModel, DesignParams, Workload};
use fractalcloud_bench::{format_value, header, large_scales, points_label, row_str, SEED};
use fractalcloud_pnn::ModelConfig;

fn main() {
    header("Fig. 1", "memory access (MB) and latency (ms): original vs FractalCloud");
    let model = ModelConfig::pointnext_segmentation();
    let mut scales = vec![1024, 4096, 16_384];
    scales.extend(large_scales().into_iter().filter(|&n| n > 16_384));

    let labels: Vec<String> = scales.iter().map(|&n| points_label(n)).collect();
    row_str("points", &labels);

    let mut base_mem = Vec::new();
    let mut our_mem = Vec::new();
    let mut base_lat = Vec::new();
    let mut our_lat = Vec::new();
    for &n in &scales {
        let w = Workload::prepare(&model, n, SEED);
        let base = DesignModel::new(DesignParams::pointacc()).execute(&w);
        let ours = DesignModel::new(DesignParams::fractalcloud()).execute(&w);
        base_mem.push(format_value(base.dram_bytes as f64 / 1e6));
        our_mem.push(format_value(ours.dram_bytes as f64 / 1e6));
        base_lat.push(format_value(base.latency_ms()));
        our_lat.push(format_value(ours.latency_ms()));
    }
    println!("--- memory access (MB) ---");
    row_str("base (global search)", &base_mem);
    row_str("FractalCloud", &our_mem);
    println!("--- latency (ms) ---");
    row_str("base (global search)", &base_lat);
    row_str("FractalCloud", &our_lat);
    println!();
    println!("Paper shape: both curves grow ~quadratically for the baseline and");
    println!("~linearly for FractalCloud; the gap exceeds 100× at 289K points.");
}
