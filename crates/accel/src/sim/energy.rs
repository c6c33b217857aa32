//! Per-event energy accounting at the 28 nm node.
//!
//! The paper reports post-layout power; we substitute a per-event energy
//! table with values drawn from published 28 nm characterizations (Horowitz
//! ISSCC'14 scaling, PointAcc/Crescent papers' breakdowns). Absolute joules
//! are approximate; *ratios* between compute, small SRAM, large SRAM, and
//! DRAM are what drive every conclusion, and those are well established:
//! `DRAM ≫ large SRAM > small SRAM ≫ 16-bit MAC`.

/// Energy cost table (picojoules per event) at 28 nm, 0.9 V.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EnergyTable {
    /// One FP16 multiply-accumulate (PE array datapath + pipeline regs).
    pub(crate) mac_fp16_pj: f64,
    /// One FP16 add/compare (RSPU comparator, pooling).
    pub(crate) alu_fp16_pj: f64,
    /// Small SRAM bank access, per byte (≤ 64 KB banks, e.g. the 274 KB
    /// multi-bank global buffer).
    pub(crate) sram_small_pj_per_byte: f64,
    /// Large SRAM access, per byte (≥ 1 MB monolithic-ish arrays, e.g.
    /// Crescent's 1.6 MB buffer) — bigger arrays burn more per access.
    pub(crate) sram_large_pj_per_byte: f64,
    /// Local register-file / FIFO access, per byte.
    pub(crate) regfile_pj_per_byte: f64,
    /// NoC transfer, per byte per hop.
    pub(crate) noc_pj_per_byte_hop: f64,
    /// Core leakage + clock-tree power per mm² of logic, in milliwatts.
    pub(crate) static_mw_per_mm2: f64,
}

/// The 28 nm table used throughout the evaluation: every unit model
/// charges its events to it.
pub(crate) const TSMC28: EnergyTable = EnergyTable {
    mac_fp16_pj: 1.1,
    alu_fp16_pj: 0.4,
    sram_small_pj_per_byte: 0.18,
    sram_large_pj_per_byte: 0.55,
    regfile_pj_per_byte: 0.03,
    noc_pj_per_byte_hop: 0.10,
    static_mw_per_mm2: 18.0,
};

/// Energy categories reported in the paper's Fig. 15(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum EnergyCategory {
    /// Datapath compute (PE array, RSPUs, fractal engine, pooling).
    Compute,
    /// On-chip SRAM traffic.
    Sram,
    /// Off-chip DRAM (commands + background, from the DRAM model).
    Dram,
    /// Interconnect.
    Noc,
    /// Leakage + clock tree, proportional to runtime.
    Static,
}

/// Accumulates energy by category.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Compute energy, pJ.
    pub compute_pj: f64,
    /// SRAM energy, pJ.
    pub sram_pj: f64,
    /// DRAM energy, pJ.
    pub dram_pj: f64,
    /// NoC energy, pJ.
    pub noc_pj: f64,
    /// Static (leakage) energy, pJ.
    pub static_pj: f64,
}

impl EnergyBreakdown {
    /// Zeroed breakdown.
    pub(crate) fn new() -> EnergyBreakdown {
        EnergyBreakdown::default()
    }

    /// Adds `pj` to `category`.
    pub(crate) fn add(&mut self, category: EnergyCategory, pj: f64) {
        match category {
            EnergyCategory::Compute => self.compute_pj += pj,
            EnergyCategory::Sram => self.sram_pj += pj,
            EnergyCategory::Dram => self.dram_pj += pj,
            EnergyCategory::Noc => self.noc_pj += pj,
            EnergyCategory::Static => self.static_pj += pj,
        }
    }

    /// Total energy, pJ.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.sram_pj + self.dram_pj + self.noc_pj + self.static_pj
    }

    /// Total energy in millijoules.
    pub(crate) fn total_mj(&self) -> f64 {
        self.total_pj() * 1e-9
    }

    /// Component-wise sum.
    pub(crate) fn merge(&mut self, other: &EnergyBreakdown) {
        self.compute_pj += other.compute_pj;
        self.sram_pj += other.sram_pj;
        self.dram_pj += other.dram_pj;
        self.noc_pj += other.noc_pj;
        self.static_pj += other.static_pj;
    }
}

impl std::ops::Add for EnergyBreakdown {
    type Output = EnergyBreakdown;

    fn add(self, other: EnergyBreakdown) -> EnergyBreakdown {
        let mut out = self;
        out.merge(&other);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_sane_ordering() {
        let t = TSMC28;
        // The hierarchy the whole paper leans on.
        assert!(t.regfile_pj_per_byte < t.sram_small_pj_per_byte);
        assert!(t.sram_small_pj_per_byte < t.sram_large_pj_per_byte);
        assert!(t.alu_fp16_pj < t.mac_fp16_pj);
    }

    #[test]
    fn breakdown_accumulates_by_category() {
        let mut b = EnergyBreakdown::new();
        b.add(EnergyCategory::Compute, 10.0);
        b.add(EnergyCategory::Dram, 100.0);
        b.add(EnergyCategory::Compute, 5.0);
        assert_eq!(b.compute_pj, 15.0);
        assert_eq!(b.dram_pj, 100.0);
        assert_eq!(b.total_pj(), 115.0);
    }

    #[test]
    fn merge_and_add_agree() {
        let mut a = EnergyBreakdown::new();
        a.add(EnergyCategory::Sram, 7.0);
        let mut b = EnergyBreakdown::new();
        b.add(EnergyCategory::Noc, 3.0);
        let c = a + b;
        assert_eq!(c.total_pj(), 10.0);
    }

    #[test]
    fn total_mj_conversion() {
        let mut a = EnergyBreakdown::new();
        a.add(EnergyCategory::Compute, 1e9);
        assert!((a.total_mj() - 1.0).abs() < 1e-12);
    }
}
