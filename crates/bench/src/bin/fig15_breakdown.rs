//! Fig. 15: latency and energy breakdowns for PointAcc, Crescent, and
//! FractalCloud running PointNeXt (s) on a 33K-point scene.

use fractalcloud_accel::sim::PhaseClass;
use fractalcloud_accel::{Accelerator, DesignModel, DesignParams, Workload};
use fractalcloud_bench::{format_value, header, row_str, SEED};
use fractalcloud_pnn::ModelConfig;

fn main() {
    header("Fig. 15", "latency & energy breakdown, PNXt (s) @ 33K");
    let w = Workload::prepare(&ModelConfig::pointnext_segmentation(), 33_000, SEED);

    let reports = [
        DesignModel::new(DesignParams::pointacc()).execute(&w),
        DesignModel::new(DesignParams::crescent()).execute(&w),
        DesignModel::new(DesignParams::fractalcloud()).execute(&w),
    ];

    println!("--- latency breakdown (ms) ---");
    row_str("design", &reports.iter().map(|r| r.accelerator.clone()).collect::<Vec<_>>());
    row_str(
        "point ops",
        &reports
            .iter()
            .map(|r| {
                format_value(r.class_ms(PhaseClass::PointOp) + r.class_ms(PhaseClass::Partition))
            })
            .collect::<Vec<_>>(),
    );
    row_str(
        "  (partitioning)",
        &reports
            .iter()
            .map(|r| format_value(r.class_ms(PhaseClass::Partition)))
            .collect::<Vec<_>>(),
    );
    row_str("MLPs", &reports.iter().map(|r| format_value(r.mlp_ms())).collect::<Vec<_>>());
    row_str("total", &reports.iter().map(|r| format_value(r.latency_ms())).collect::<Vec<_>>());

    println!();
    println!("--- energy breakdown (mJ) ---");
    row_str("design", &reports.iter().map(|r| r.accelerator.clone()).collect::<Vec<_>>());
    for (label, pick) in [("compute", 0usize), ("SRAM", 1), ("DRAM", 2), ("total", 3)] {
        row_str(
            label,
            &reports
                .iter()
                .map(|r| {
                    let e = r.energy();
                    let v = match pick {
                        0 => e.compute_pj,
                        1 => e.sram_pj,
                        2 => e.dram_pj,
                        _ => e.total_pj(),
                    };
                    format_value(v * 1e-9)
                })
                .collect::<Vec<_>>(),
        );
    }
    println!();
    println!("--- DRAM traffic (MB) ---");
    row_str(
        "bytes",
        &reports.iter().map(|r| format_value(r.dram_bytes as f64 / 1e6)).collect::<Vec<_>>(),
    );
    println!();
    println!("Paper shape (Fig. 15): point ops dominate PointAcc and Crescent");
    println!("latency; FractalCloud total is ~16× lower. PointAcc's energy is");
    println!("DRAM-heavy; Crescent trades DRAM for SRAM energy (1.6 MB buffer)");
    println!("and lands near or above PointAcc's total; FractalCloud is ~10×");
    println!("below both with a small-buffer, streamed-DRAM profile.");
}
