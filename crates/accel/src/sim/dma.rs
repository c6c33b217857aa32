//! DMA engine: DRAM ↔ global-buffer transfers in core-clock cycles.

use crate::config::DramConfig;
use crate::stream::{AccessPattern, StreamEstimate, StreamModel};

/// The core clock period of every Table II design (1 GHz), in picoseconds.
const CORE_PERIOD_PS: u64 = 1000;

/// A DMA transfer cost in *core* cycles (the accelerators run at 1 GHz; the
/// DDR4-2133 memory clock is 1.0665 GHz, so cycles must be converted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DmaCost {
    /// Core-clock cycles the transfer occupies.
    pub(crate) core_cycles: u64,
    /// DRAM energy in picojoules.
    pub(crate) dram_energy_pj: f64,
    /// Bytes moved.
    pub(crate) bytes: u64,
}

/// The DMA engine: wraps the DRAM stream model and converts to core clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Dma {
    model: StreamModel,
}

impl Dma {
    /// A DMA over DDR4-2133 with a 1 GHz core clock (every Table II design).
    pub fn at_1ghz() -> Dma {
        Dma { model: StreamModel::new(DramConfig::ddr4_2133()) }
    }

    /// The core clock in GHz.
    pub fn core_ghz(&self) -> f64 {
        1000.0 / CORE_PERIOD_PS as f64
    }

    /// The underlying DRAM model.
    pub fn dram(&self) -> &StreamModel {
        &self.model
    }

    /// Reads `bytes` with `pattern`.
    pub(crate) fn read(&self, bytes: u64, pattern: AccessPattern) -> DmaCost {
        self.convert(self.model.read(bytes, pattern), bytes)
    }

    fn convert(&self, e: StreamEstimate, bytes: u64) -> DmaCost {
        let ns = e.ns(self.model.config());
        let core_cycles = (ns * 1000.0 / CORE_PERIOD_PS as f64).ceil() as u64;
        DmaCost { core_cycles, dram_energy_pj: e.energy_pj, bytes }
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

    /// Random 64-byte reads cost more than twice a sequential stream of the
    /// same size.
    #[test]
    fn random_reads_cost_over_twice_a_stream() {
        let dma = Dma::at_1ghz();
        let stream = dma.read(1 << 20, AccessPattern::Sequential);
        let random = dma.read(1 << 20, AccessPattern::Random);
        assert!(random.core_cycles > 2 * stream.core_cycles);
    }
}
