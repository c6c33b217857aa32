//! Phase/timeline accounting: composing unit costs into end-to-end runs.

use crate::energy::EnergyBreakdown;

/// The latency-reporting category of a phase (Fig. 15(a) groups latency
/// into point operations, MLPs, and others).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseClass {
    /// Partitioning (fractal / KD-tree / grid build).
    Partition,
    /// Sampling, neighbor search, gathering.
    PointOp,
    /// MLP / feature computation on the PE array.
    Mlp,
    /// Everything else (control, pooling, layout).
    Other,
}

/// One phase of an accelerator run: a compute component and a memory
/// component that may overlap (double buffering).
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Human-readable name ("fractal", "fps", "mlp-sa1", …).
    pub name: String,
    /// Reporting class.
    pub(crate) class: PhaseClass,
    /// Cycles of on-chip compute (and SRAM, already folded by the caller).
    pub compute_cycles: u64,
    /// Cycles of DRAM traffic.
    pub dram_cycles: u64,
    /// True if the design double-buffers this phase (compute hides memory
    /// or vice versa); false forces compute + memory to serialize.
    pub overlapped: bool,
    /// Energy attributed to this phase.
    pub energy: EnergyBreakdown,
}

impl Phase {
    /// The phase's contribution to total latency.
    pub(crate) fn latency(&self) -> u64 {
        if self.overlapped {
            self.compute_cycles.max(self.dram_cycles)
        } else {
            self.compute_cycles + self.dram_cycles
        }
    }
}

/// An ordered sequence of phases = one inference run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    phases: Vec<Phase>,
}

impl Timeline {
    /// An empty timeline.
    pub(crate) fn new() -> Timeline {
        Timeline::default()
    }

    /// Appends a phase.
    pub(crate) fn push(&mut self, phase: Phase) {
        self.phases.push(phase);
    }

    /// All phases in execution order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total latency in cycles (phases execute serially; overlap is within
    /// a phase).
    pub(crate) fn total_cycles(&self) -> u64 {
        self.phases.iter().map(Phase::latency).sum()
    }

    /// Latency attributed to `class`.
    pub(crate) fn cycles_of(&self, class: PhaseClass) -> u64 {
        self.phases.iter().filter(|p| p.class == class).map(Phase::latency).sum()
    }

    /// Total energy across phases.
    pub(crate) fn total_energy(&self) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::new();
        for p in &self.phases {
            e.merge(&p.energy);
        }
        e
    }

    /// Wall-clock milliseconds at `freq_ghz`.
    pub(crate) fn ms(&self, freq_ghz: f64) -> f64 {
        self.total_cycles() as f64 / (freq_ghz * 1e9) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyCategory;

    fn phase(name: &str, class: PhaseClass, comp: u64, dram: u64, overlapped: bool) -> Phase {
        let mut energy = EnergyBreakdown::new();
        energy.add(EnergyCategory::Compute, comp as f64);
        energy.add(EnergyCategory::Dram, dram as f64);
        Phase {
            name: name.into(),
            class,
            compute_cycles: comp,
            dram_cycles: dram,
            overlapped,
            energy,
        }
    }

    #[test]
    fn overlapped_phase_takes_max() {
        let p = phase("x", PhaseClass::Mlp, 100, 70, true);
        assert_eq!(p.latency(), 100);
        let p = phase("y", PhaseClass::Mlp, 100, 70, false);
        assert_eq!(p.latency(), 170);
    }

    #[test]
    fn timeline_sums_phases_and_classes() {
        let mut t = Timeline::new();
        t.push(phase("fractal", PhaseClass::Partition, 10, 5, true));
        t.push(phase("fps", PhaseClass::PointOp, 100, 20, true));
        t.push(phase("mlp", PhaseClass::Mlp, 50, 80, true));
        assert_eq!(t.total_cycles(), 10 + 100 + 80);
        assert_eq!(t.cycles_of(PhaseClass::PointOp), 100);
        assert_eq!(t.cycles_of(PhaseClass::Partition), 10);
        assert_eq!(t.cycles_of(PhaseClass::Other), 0);
    }

    #[test]
    fn energy_accumulates() {
        let mut t = Timeline::new();
        t.push(phase("a", PhaseClass::Mlp, 10, 0, true));
        t.push(phase("b", PhaseClass::Mlp, 0, 20, true));
        let e = t.total_energy();
        assert_eq!(e.compute_pj, 10.0);
        assert_eq!(e.dram_pj, 20.0);
    }

    #[test]
    fn ms_conversion_at_1ghz() {
        let mut t = Timeline::new();
        t.push(phase("a", PhaseClass::Mlp, 1_000_000, 0, true));
        assert!((t.ms(1.0) - 1.0).abs() < 1e-12);
    }
}
