//! Fig. 4: GPU inference latency and point-operation share across the
//! Table I workloads and input scales — the bottleneck-shift motivation.

use fractalcloud_accel::{Accelerator, GpuModel, Workload};
use fractalcloud_bench::{format_value, header, large_scales, row_str, SEED};
use fractalcloud_pnn::ModelConfig;

fn main() {
    header("Fig. 4", "GPU latency (ms) and point-op share across scales");

    // Left half: five Table I workloads at their representative scales.
    let workloads = [
        (ModelConfig::pointnetpp_classification(), 1024),
        (ModelConfig::pointnext_classification(), 2048),
        (ModelConfig::pointnetpp_segmentation(), 4096),
        (ModelConfig::pointnext_segmentation(), 16_384),
        (ModelConfig::pointvector_segmentation(), 16_384),
    ];
    println!("--- representative scales ---");
    row_str(
        "workload",
        &workloads.iter().map(|(m, n)| format!("{}@{}", m.notation, n)).collect::<Vec<_>>(),
    );
    let gpu = GpuModel::titan_rtx();
    let mut lat = Vec::new();
    let mut share = Vec::new();
    for (model, n) in &workloads {
        let r = gpu.execute(&Workload::prepare(model, *n, SEED));
        lat.push(format_value(r.latency_ms()));
        share.push(format!("{:.0}%", 100.0 * r.point_op_ms() / r.latency_ms()));
    }
    row_str("latency (ms)", &lat);
    row_str("point-op share", &share);

    // Right half: PNXt(s) scale sweep (the S3DIS-Test columns).
    println!();
    println!("--- PointNeXt (s) scale sweep ---");
    let model = ModelConfig::pointnext_segmentation();
    let scales = large_scales();
    row_str("points", &scales.iter().map(|n| format!("{}K", n / 1024)).collect::<Vec<_>>());
    let mut lat = Vec::new();
    let mut share = Vec::new();
    for &n in &scales {
        let r = gpu.execute(&Workload::prepare(&model, n, SEED));
        lat.push(format_value(r.latency_ms()));
        share.push(format!("{:.0}%", 100.0 * r.point_op_ms() / r.latency_ms()));
    }
    row_str("latency (ms)", &lat);
    row_str("point-op share", &share);
    println!();
    println!("Paper shape: point-op share rises from ~30-45% at 1K-4K to 78%");
    println!("at 16K and >97% at 131K-289K, while absolute latency grows");
    println!("super-linearly (Fig. 4 reports 10⁰–10⁴ ms over this range).");
}
