//! The accelerator interface and execution reports.

use crate::workload::Workload;
use fractalcloud_sim::{EnergyBreakdown, PhaseClass, Timeline};

/// An accelerator (or GPU) model that can execute a workload.
pub trait Accelerator {
    /// Display name.
    fn name(&self) -> String;

    /// Executes (costs) the workload end to end.
    fn execute(&self, workload: &Workload) -> ExecutionReport;
}

/// The result of executing a workload on a device model.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Device name.
    pub accelerator: String,
    /// Phase-by-phase timeline.
    pub timeline: Timeline,
    /// Clock frequency in GHz (converts cycles → time).
    pub freq_ghz: f64,
    /// DRAM traffic of the point operations and the partition, in bytes
    /// (0 for the GPU baseline). MLP weight and activation DMA is charged in
    /// the energy breakdown but not counted here.
    pub dram_bytes: u64,
}

impl ExecutionReport {
    /// End-to-end latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.timeline.ms(self.freq_ghz)
    }

    /// Total energy breakdown.
    pub fn energy(&self) -> EnergyBreakdown {
        self.timeline.total_energy()
    }

    /// Total energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy().total_mj()
    }

    /// Latency attributed to point operations, in ms.
    pub fn point_op_ms(&self) -> f64 {
        self.class_ms(PhaseClass::PointOp) + self.class_ms(PhaseClass::Partition)
    }

    /// Latency attributed to MLPs, in ms.
    pub fn mlp_ms(&self) -> f64 {
        self.class_ms(PhaseClass::Mlp)
    }

    /// Latency of one phase class, in ms.
    pub fn class_ms(&self, class: PhaseClass) -> f64 {
        self.timeline.cycles_of(class) as f64 / (self.freq_ghz * 1e9) * 1e3
    }

    /// Speedup of `self` over `baseline` (>1 means `self` is faster).
    pub fn speedup_over(&self, baseline: &ExecutionReport) -> f64 {
        baseline.latency_ms() / self.latency_ms()
    }

    /// Energy saving of `self` over `baseline` (>1 means `self` is
    /// cheaper).
    pub fn energy_saving_over(&self, baseline: &ExecutionReport) -> f64 {
        baseline.energy_mj() / self.energy_mj()
    }

    /// Average power in watts.
    pub fn avg_power_w(&self) -> f64 {
        let s = self.latency_ms() * 1e-3;
        if s == 0.0 {
            0.0
        } else {
            self.energy_mj() * 1e-3 / s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractalcloud_sim::{EnergyCategory, Phase};

    fn report(cycles: u64, pj: f64) -> ExecutionReport {
        let mut timeline = Timeline::new();
        let mut energy = EnergyBreakdown::new();
        energy.add(EnergyCategory::Compute, pj);
        timeline.push(Phase {
            name: "x".into(),
            class: PhaseClass::PointOp,
            compute_cycles: cycles,
            dram_cycles: 0,
            overlapped: true,
            energy,
        });
        ExecutionReport { accelerator: "t".into(), timeline, freq_ghz: 1.0, dram_bytes: 0 }
    }

    #[test]
    fn latency_and_speedup() {
        let fast = report(1_000_000, 1e9);
        let slow = report(10_000_000, 5e9);
        assert!((fast.latency_ms() - 1.0).abs() < 1e-9);
        assert!((fast.speedup_over(&slow) - 10.0).abs() < 1e-9);
        assert!((fast.energy_saving_over(&slow) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn average_power() {
        let r = report(1_000_000_000, 1e12); // 1 s, 1 J
        assert!((r.avg_power_w() - 1.0).abs() < 1e-6);
    }
}
