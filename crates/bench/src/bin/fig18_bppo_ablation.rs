//! Fig. 18: incremental ablation of the FractalCloud optimizations —
//! Baseline → +delayed-aggregation (Meso) → +RSPU (window check + reuse) →
//! +BWS → +BWG → +BWI → +BWGa — on PointNeXt (s).

use fractalcloud_accel::{Accelerator, DesignModel, DesignParams, Workload};
use fractalcloud_bench::{format_value, header, quick, row_str, SEED};
use fractalcloud_pnn::ModelConfig;

fn main() {
    header("Fig. 18", "incremental speedup & energy savings of RSPU + BPPO");
    let n = if quick() { 33_000 } else { 289_000 };
    println!("(PointNeXt (s) @ {n} points)");
    let w = Workload::prepare(&ModelConfig::pointnext_segmentation(), n, SEED);

    let reports: Vec<_> = DesignParams::ablation_ladder()
        .into_iter()
        .map(|p| DesignModel::new(p).execute(&w))
        .collect();
    let base = &reports[0];

    row_str("step", &reports.iter().map(|r| r.accelerator.clone()).collect::<Vec<_>>());
    row_str(
        "latency (ms)",
        &reports.iter().map(|r| format_value(r.latency_ms())).collect::<Vec<_>>(),
    );
    row_str(
        "cum. speedup",
        &reports.iter().map(|r| format_value(r.speedup_over(base))).collect::<Vec<_>>(),
    );
    row_str(
        "cum. energy saving",
        &reports.iter().map(|r| format_value(r.energy_saving_over(base))).collect::<Vec<_>>(),
    );
    println!();
    println!("Paper: Meso ≈ 1.004×; +RSPU 1.37× (1.48× energy); +BWS 2.3×;");
    println!("+BWG 2.2×; +BWI 20×; +BWGa 1.5× — compounding to ≈209× speedup");
    println!("and 192× energy saving over the unoptimized baseline at 289K.");
    println!("Expected shape: the block-wise interpolation step is the largest");
    println!("single contributor; every step is ≥1×.");
}
