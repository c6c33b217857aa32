//! DMA engine: DRAM ↔ global-buffer transfers in core-clock cycles.

use fractalcloud_dram::{AccessPattern, DramConfig, StreamEstimate, StreamModel};

/// A DMA transfer cost in *core* cycles (the accelerators run at 1 GHz; the
/// DDR4-2133 memory clock is 1.0665 GHz, so cycles must be converted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaCost {
    /// Core-clock cycles the transfer occupies.
    pub core_cycles: u64,
    /// DRAM energy in picojoules.
    pub dram_energy_pj: f64,
    /// Bytes moved.
    pub bytes: u64,
    /// Estimated DRAM row-buffer hit rate.
    pub hit_rate: f64,
}

impl DmaCost {
    /// A zero transfer.
    pub fn zero() -> DmaCost {
        DmaCost { core_cycles: 0, dram_energy_pj: 0.0, bytes: 0, hit_rate: 1.0 }
    }

    /// Sums two transfers executed back-to-back.
    pub fn merge(&self, other: &DmaCost) -> DmaCost {
        let bytes = self.bytes + other.bytes;
        DmaCost {
            core_cycles: self.core_cycles + other.core_cycles,
            dram_energy_pj: self.dram_energy_pj + other.dram_energy_pj,
            bytes,
            hit_rate: if bytes == 0 {
                1.0
            } else {
                (self.hit_rate * self.bytes as f64 + other.hit_rate * other.bytes as f64)
                    / bytes as f64
            },
        }
    }
}

/// The DMA engine: wraps the DRAM stream model and converts to core clock.
///
/// # Examples
///
/// ```
/// use fractalcloud_sim::Dma;
/// use fractalcloud_dram::AccessPattern;
///
/// let dma = Dma::at_1ghz();
/// let stream = dma.read(1 << 20, AccessPattern::Sequential);
/// let random = dma.read(1 << 20, AccessPattern::Random);
/// assert!(random.core_cycles > 2 * stream.core_cycles);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dma {
    model: StreamModel,
    core_period_ps: u64,
}

impl Dma {
    /// A DMA over DDR4-2133 with a 1 GHz core clock (every Table II design).
    pub fn at_1ghz() -> Dma {
        Dma::new(StreamModel::new(DramConfig::ddr4_2133()), 1000)
    }

    /// Creates a DMA engine with an explicit core period (picoseconds).
    pub fn new(model: StreamModel, core_period_ps: u64) -> Dma {
        Dma { model, core_period_ps }
    }

    /// The core clock in GHz.
    pub fn core_ghz(&self) -> f64 {
        1000.0 / self.core_period_ps as f64
    }

    /// The underlying DRAM model.
    pub fn dram(&self) -> &StreamModel {
        &self.model
    }

    /// Reads `bytes` with `pattern`.
    pub fn read(&self, bytes: u64, pattern: AccessPattern) -> DmaCost {
        self.convert(self.model.read(bytes, pattern), bytes)
    }

    /// Writes `bytes` with `pattern`.
    pub fn write(&self, bytes: u64, pattern: AccessPattern) -> DmaCost {
        self.convert(self.model.write(bytes, pattern), bytes)
    }

    fn convert(&self, e: StreamEstimate, bytes: u64) -> DmaCost {
        let ns = e.ns(self.model.config());
        let core_cycles = (ns * 1000.0 / self.core_period_ps as f64).ceil() as u64;
        DmaCost { core_cycles, dram_energy_pj: e.energy_pj, bytes, hit_rate: e.hit_rate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_read_is_near_peak_bandwidth() {
        let dma = Dma::at_1ghz();
        let bytes = 17 << 20; // ~1 ms of traffic at peak
        let c = dma.read(bytes as u64, AccessPattern::Sequential);
        // 17 GB/s peak at 80% efficiency → ≥ 1.17 ms → ≥ 1.17 M core cycles.
        let gbps = bytes as f64 / (c.core_cycles as f64 * 1e-9) / 1e9;
        assert!((10.0..17.1).contains(&gbps), "achieved {gbps} GB/s");
    }

    #[test]
    fn conversion_accounts_for_clock_difference() {
        let dma = Dma::at_1ghz();
        let c = dma.read(1 << 20, AccessPattern::Sequential);
        // DRAM cycles are 937 ps; core cycles 1000 ps → fewer core cycles
        // than DRAM cycles for the same wall time.
        let dram_cycles = dma.dram().read(1 << 20, AccessPattern::Sequential).cycles;
        assert!(c.core_cycles < dram_cycles);
    }

    #[test]
    fn merge_weighted_hit_rate() {
        let a = DmaCost { core_cycles: 10, dram_energy_pj: 5.0, bytes: 100, hit_rate: 1.0 };
        let b = DmaCost { core_cycles: 10, dram_energy_pj: 5.0, bytes: 100, hit_rate: 0.0 };
        let m = a.merge(&b);
        assert!((m.hit_rate - 0.5).abs() < 1e-9);
        assert_eq!(m.core_cycles, 20);
    }

    #[test]
    fn zero_cost() {
        let z = DmaCost::zero();
        assert_eq!(z.merge(&DmaCost::zero()).bytes, 0);
    }
}
