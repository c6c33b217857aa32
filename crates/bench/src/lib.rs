//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper:
//! it runs the corresponding experiment on the simulator stack and prints
//! the measured series next to the paper's reported values, so agreement in
//! *shape* (orderings, growth rates, crossovers) can be checked at a glance.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use fractalcloud_accel::sim::SramConfig;
use fractalcloud_accel::{
    Accelerator, DesignModel, DesignParams, ExecutionReport, GpuModel, Workload,
};
use fractalcloud_pnn::ModelConfig;

/// The deterministic seed every harness uses.
pub const SEED: u64 = 42;

/// Fig. 13's small-scale columns: classification and part segmentation at
/// 1K–4K points.
pub fn small_scale_workloads() -> [(ModelConfig, usize); 5] {
    [
        (ModelConfig::pointnetpp_classification(), 1024),
        (ModelConfig::pointnext_classification(), 2048),
        (ModelConfig::pointnetpp_part_segmentation(), 4096),
        (ModelConfig::pointnext_part_segmentation(), 4096),
        (ModelConfig::pointnetpp_segmentation(), 4096),
    ]
}

/// Fig. 13's large-scale models, swept over [`large_scales`] (the
/// S3DIS-Test columns).
pub fn large_scale_models() -> [ModelConfig; 2] {
    [ModelConfig::pointnext_segmentation(), ModelConfig::pointvector_segmentation()]
}

/// Input scales for the large-scale sweep (Fig. 13 right / Fig. 4). The
/// paper uses 8K/33K/131K/289K; pass `--quick` to any binary to keep the
/// first [`QUICK_LARGE`].
pub const LARGE_SCALES: [usize; 4] = [8192, 33_000, 131_000, 289_000];

/// How many of [`LARGE_SCALES`] a `--quick` run keeps (8K and 33K).
pub const QUICK_LARGE: usize = 2;

/// Returns the large-scale list honoring a `--quick` CLI flag.
pub fn large_scales() -> Vec<usize> {
    let kept = if quick() { QUICK_LARGE } else { LARGE_SCALES.len() };
    LARGE_SCALES[..kept].to_vec()
}

/// True if `--quick` was passed (trims the largest inputs for fast runs).
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// A point-count column label in the paper's units: `n / 1000` points, so
/// 33 000 reads "33K" and 1024 reads "1K".
pub fn points_label(n: usize) -> String {
    format!("{}K", n / 1000)
}

/// Prints a figure/table header.
pub fn header(id: &str, caption: &str) {
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

/// Prints a labelled row of f64 values.
pub fn row(label: &str, values: &[f64]) {
    print!("{label:<26}");
    for v in values {
        print!(" {:>10}", format_value(*v));
    }
    println!();
}

/// Prints a labelled row of strings.
pub fn row_str(label: &str, values: &[String]) {
    print!("{label:<26}");
    for v in values {
        print!(" {v:>10}");
    }
    println!();
}

/// Compact value formatting: 3 significant digits, engineering style.
pub fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Table II's SRAM column: a buffer's capacity in KB, to 0.1 KB.
pub fn sram_kb(sram: &SramConfig) -> f64 {
    (sram.bytes as f64 * 10.0 / 1024.0).round() / 10.0
}

/// One workload executed on every Table II design plus the GPU.
pub struct FleetReports {
    /// GPU baseline.
    pub gpu: ExecutionReport,
    /// [`DesignParams::table2`]'s designs, in its column order.
    pub designs: Vec<ExecutionReport>,
}

impl FleetReports {
    /// Runs the whole fleet on `model` at `n` points.
    pub fn run(model: &ModelConfig, n: usize) -> FleetReports {
        let w = Workload::prepare(model, n, SEED);
        FleetReports {
            gpu: GpuModel::titan_rtx().execute(&w),
            designs: DesignParams::table2()
                .into_iter()
                .map(|p| DesignModel::new(p).execute(&w))
                .collect(),
        }
    }

    /// Speedups over the GPU, one per design.
    pub fn speedups(&self) -> Vec<f64> {
        self.designs.iter().map(|r| r.speedup_over(&self.gpu)).collect()
    }

    /// Energy savings over the GPU, one per design.
    pub fn energy_savings(&self) -> Vec<f64> {
        self.designs.iter().map(|r| r.energy_saving_over(&self.gpu)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_runs_a_small_workload() {
        let f = FleetReports::run(&ModelConfig::pointnetpp_classification(), 512);
        let s = f.speedups();
        assert!(s.iter().all(|&v| v > 0.0));
        // FractalCloud leads the fleet.
        assert!(s[3] >= s[0] && s[3] >= s[1] && s[3] >= s[2]);
    }

    #[test]
    fn formatting_is_compact() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(2.34159), "2.34");
        assert_eq!(format_value(27.4), "27.4");
        assert_eq!(format_value(1893.0), "1893");
    }

    #[test]
    fn point_labels_match_the_paper_columns() {
        let labels: Vec<String> =
            [1024, 4096, 8192, 16_384].into_iter().map(points_label).collect();
        assert_eq!(labels, ["1K", "4K", "8K", "16K"]);
        let labels: Vec<String> = LARGE_SCALES.into_iter().map(points_label).collect();
        assert_eq!(labels, ["8K", "33K", "131K", "289K"]);
    }
}
