//! Multi-banked on-chip SRAM model.

use crate::energy::TSMC28;

/// Configuration of a multi-banked scratchpad (the paper's 274 KB global
/// buffer follows PointAcc's organization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramConfig {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Number of independently-addressed banks.
    pub(crate) banks: usize,
    /// Port width per bank, bytes per cycle.
    pub(crate) bank_width: usize,
}

impl SramConfig {
    /// The FractalCloud / PointAcc 274 KB buffer: 16 banks × ~17 KB, 16 B
    /// ports.
    pub(crate) fn global_buffer_274k() -> SramConfig {
        SramConfig { bytes: 274 * 1024, banks: 16, bank_width: 16 }
    }

    /// Crescent's 1622.8 KB buffer (Table II).
    pub(crate) fn crescent_1622k() -> SramConfig {
        SramConfig { bytes: 1622 * 1024 + 819, banks: 16, bank_width: 16 }
    }

    /// Mesorasi's 1624 KB buffer (Table II).
    pub(crate) fn mesorasi_1624k() -> SramConfig {
        SramConfig { bytes: 1624 * 1024, banks: 16, bank_width: 16 }
    }

    /// Energy per byte for this macro size (banks ≥ ~1 MB total use the
    /// "large array" cost — longer wordlines/bitlines and H-tree).
    pub(crate) fn pj_per_byte(&self) -> f64 {
        if self.bytes >= 1 << 20 {
            TSMC28.sram_large_pj_per_byte
        } else {
            TSMC28.sram_small_pj_per_byte
        }
    }
}

/// How concurrent accessors hit the banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SramPattern {
    /// Each accessor streams its own bank (post-Fractal block-per-bank
    /// layout, §IV-A): zero conflicts.
    BankAligned,
    /// Accessors address banks uniformly at random (pre-Fractal global
    /// layout): conflicts follow balls-into-bins serialization.
    Random,
    /// Single sequential stream (weights, DFT block stream).
    Sequential,
}

/// Result of an SRAM access batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SramAccess {
    /// Cycles to satisfy the batch.
    pub(crate) cycles: u64,
    /// Energy in picojoules.
    pub(crate) energy_pj: f64,
    /// Effective conflict factor applied (1.0 = conflict-free).
    pub(crate) conflict_factor: f64,
}

/// Multi-banked SRAM: converts byte volumes + access patterns into cycles
/// and energy.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sram {
    config: SramConfig,
}

impl Sram {
    /// Creates an SRAM model.
    pub(crate) fn new(config: SramConfig) -> Sram {
        Sram { config }
    }

    /// Estimates a batch of `bytes` accessed by `accessors` concurrent
    /// units under `pattern`.
    ///
    /// `Random` applies the expected balls-into-bins serialization factor:
    /// with `a` accessors over `b` banks per cycle, the expected number of
    /// rounds to drain one cycle's worth of requests is the expected maximum
    /// bin load, approximated by `a/b + ln(b)/ln(1 + b·ln(b)/a)`-style
    /// closed forms; we use the simpler and well-tested
    /// `max(1, a/b) + conflict_penalty` with penalty 0.35·ln(min(a,b)).
    pub(crate) fn access(&self, bytes: u64, pattern: SramPattern, accessors: usize) -> SramAccess {
        if bytes == 0 {
            return SramAccess { cycles: 0, energy_pj: 0.0, conflict_factor: 1.0 };
        }
        let accessors = accessors.max(1);
        let banks = self.config.banks.max(1);
        let conflict_factor = match pattern {
            SramPattern::BankAligned | SramPattern::Sequential => 1.0,
            SramPattern::Random => {
                let a = accessors.min(banks) as f64;
                1.0 + 0.35 * a.ln().max(0.0) + (accessors as f64 / banks as f64 - 1.0).max(0.0)
            }
        };
        // Usable width: each accessor drives one bank port.
        let width = (accessors.min(banks) * self.config.bank_width) as u64;
        let base_cycles = bytes.div_ceil(width);
        let cycles = (base_cycles as f64 * conflict_factor).ceil() as u64;
        let energy_pj = bytes as f64 * self.config.pj_per_byte();
        SramAccess { cycles, energy_pj, conflict_factor }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sram() -> Sram {
        Sram::new(SramConfig::global_buffer_274k())
    }

    #[test]
    fn bank_aligned_achieves_peak() {
        let s = sram();
        let bytes = 1 << 16;
        let a = s.access(bytes, SramPattern::BankAligned, 16);
        assert_eq!(a.cycles, bytes / (16 * 16));
        assert_eq!(a.conflict_factor, 1.0);
    }

    #[test]
    fn random_pattern_pays_conflicts() {
        let s = sram();
        let bytes = 1 << 16;
        let aligned = s.access(bytes, SramPattern::BankAligned, 16);
        let random = s.access(bytes, SramPattern::Random, 16);
        assert!(random.cycles > aligned.cycles);
        assert!(random.conflict_factor > 1.5);
    }

    #[test]
    fn fewer_accessors_use_less_width() {
        let s = sram();
        let one = s.access(1 << 16, SramPattern::BankAligned, 1);
        let sixteen = s.access(1 << 16, SramPattern::BankAligned, 16);
        assert_eq!(one.cycles, sixteen.cycles * 16);
    }

    #[test]
    fn energy_is_per_byte_and_size_dependent() {
        let t = TSMC28;
        let small = sram().access(1000, SramPattern::Sequential, 1);
        assert!((small.energy_pj - 1000.0 * t.sram_small_pj_per_byte).abs() < 1e-9);
        let big = Sram::new(SramConfig::crescent_1622k());
        let b = big.access(1000, SramPattern::Sequential, 1);
        assert!(
            b.energy_pj > small.energy_pj * 2.0,
            "large array should cost ≫ per byte: {} vs {}",
            b.energy_pj,
            small.energy_pj
        );
    }

    #[test]
    fn bank_conflicts_serialize_a_megabyte() {
        let s = sram();
        let aligned = s.access(1 << 20, SramPattern::BankAligned, 16);
        let random = s.access(1 << 20, SramPattern::Random, 16);
        assert!(random.cycles > aligned.cycles);
    }

    #[test]
    fn zero_bytes_is_free() {
        let a = sram().access(0, SramPattern::Random, 16);
        assert_eq!(a.cycles, 0);
        assert_eq!(a.energy_pj, 0.0);
    }

    #[test]
    fn config_constants_match_table2() {
        assert_eq!(SramConfig::global_buffer_274k().bytes, 280_576);
        assert!(SramConfig::crescent_1622k().bytes > 1_600_000);
    }
}
