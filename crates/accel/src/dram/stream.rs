//! Fast analytic DRAM model for very long traces.
//!
//! The cycle-accurate FR-FCFS controller (`controller.rs`, built for tests
//! only) is exact but too slow for the paper's large-scale workloads
//! (hundreds of millions of bursts). This module provides a calibrated
//! closed-form model of the same outputs (cycles, energy); the calibration
//! constants are cross-checked against the cycle model by unit tests in
//! this file, so the two stay consistent by construction.

use crate::config::DramConfig;

/// Fraction of peak bandwidth achieved by long sequential streams
/// (calibrated against the cycle model: see tests).
const SEQ_EFFICIENCY: f64 = 0.80;
/// Effective bank-level parallelism for random granules.
const RANDOM_BLP: f64 = 4.0;

/// Access-pattern classes the accelerator models emit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AccessPattern {
    /// Long unit-stride bursts (post-Fractal DFT streams, weight streams).
    Sequential,
    /// Random 64-byte granules across a working set much larger than the
    /// row buffers (conventional gather / global search spills).
    Random,
    /// Random accesses with `granule` contiguous bytes each (block loads at
    /// random block addresses).
    Strided {
        /// Contiguous bytes fetched per access.
        granule: usize,
    },
}

/// Result of an analytic transfer estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StreamEstimate {
    /// DRAM-clock cycles occupied.
    pub(crate) cycles: u64,
    /// Energy in picojoules.
    pub(crate) energy_pj: f64,
    /// Estimated row-buffer hit rate.
    pub(crate) hit_rate: f64,
}

impl StreamEstimate {
    /// Zero-traffic estimate.
    fn zero() -> StreamEstimate {
        StreamEstimate { cycles: 0, energy_pj: 0.0, hit_rate: 1.0 }
    }

    /// Wall-clock time in nanoseconds.
    pub(crate) fn ns(&self, cfg: &DramConfig) -> f64 {
        cfg.cycles_to_ns(self.cycles)
    }
}

/// Calibrated analytic DRAM model.
///
/// Sequential streams run at `SEQ_EFFICIENCY` of peak; random 64-byte
/// granules are bank-parallelism-limited to one burst per
/// `tRC / min(banks, 4-ish overlap)`; strided transfers amortize one
/// ACT/PRE per granule.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamModel {
    cfg: DramConfig,
}

impl StreamModel {
    /// Creates a model with the DDR4-2133 calibration.
    pub(crate) fn new(cfg: DramConfig) -> StreamModel {
        StreamModel { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Estimates a read of `bytes` with the given pattern.
    pub(crate) fn read(&self, bytes: u64, pattern: AccessPattern) -> StreamEstimate {
        if bytes == 0 {
            return StreamEstimate::zero();
        }
        let cfg = &self.cfg;
        let burst_bytes = cfg.burst_bytes() as u64;
        let bursts = bytes.div_ceil(burst_bytes);
        let burst_cycles = cfg.burst_cycles();

        let (cycles, acts, hit_rate) = match pattern {
            AccessPattern::Sequential => {
                // One ACT per row's worth of bursts; bandwidth-limited.
                let acts = bytes.div_ceil(cfg.row_bytes as u64);
                let data_cycles = (bursts * burst_cycles) as f64 / SEQ_EFFICIENCY;
                (data_cycles.ceil() as u64, acts, 1.0 - acts as f64 / bursts.max(1) as f64)
            }
            AccessPattern::Random => {
                // Every burst pays ACT+column; overlapped across RANDOM_BLP
                // banks.
                let per = cfg.t_rc as f64 / RANDOM_BLP;
                let data_floor = (bursts * burst_cycles) as f64;
                let cyc = (bursts as f64 * per).max(data_floor);
                (cyc.ceil() as u64, bursts, 0.0)
            }
            AccessPattern::Strided { granule } => {
                let granule = granule.max(burst_bytes as usize) as u64;
                let accesses = bytes.div_ceil(granule);
                let bursts_per_access = granule.div_ceil(burst_bytes);
                // Each access: one row miss then hits; row-crossing ignored
                // for granules ≤ row size.
                let acts = accesses * granule.div_ceil(cfg.row_bytes as u64).max(1);
                let per_access =
                    cfg.t_rcd as f64 + (bursts_per_access * burst_cycles) as f64 / SEQ_EFFICIENCY;
                let cyc = (accesses as f64 * per_access) / RANDOM_BLP.min(2.0);
                // Never faster than the sequential stream of the same size.
                let data_floor = (bursts * burst_cycles) as f64 / SEQ_EFFICIENCY;
                (cyc.max(data_floor).ceil() as u64, acts, 1.0 - acts as f64 / bursts.max(1) as f64)
            }
        };

        // Refresh overhead: tRFC out of every tREFI.
        let refresh_factor = 1.0 + cfg.t_rfc as f64 / cfg.t_refi as f64;
        let cycles = (cycles as f64 * refresh_factor).ceil() as u64;

        let mut energy = acts as f64 * cfg.act_pre_pj + bursts as f64 * cfg.read_pj;
        energy += cfg.background_mw * 1e-3 * cfg.cycles_to_ns(cycles);
        StreamEstimate { cycles, energy_pj: energy, hit_rate: hit_rate.clamp(0.0, 1.0) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, Request};

    /// The analytic sequential model must stay within 25% of the cycle
    /// model — this is the calibration contract.
    #[test]
    fn sequential_calibration_matches_cycle_model() {
        let cfg = DramConfig::ddr4_2133();
        let bytes = 512 * 1024u64;
        let mut ctrl = Controller::new(cfg.clone());
        let reqs: Vec<Request> = (0..bytes / 64).map(|i| Request::read(i * 64)).collect();
        let exact = ctrl.run_trace(&reqs);
        let model = StreamModel::new(cfg).read(bytes, AccessPattern::Sequential);
        let ratio = model.cycles as f64 / exact.cycles as f64;
        assert!((0.75..=1.25).contains(&ratio), "sequential ratio {ratio}");
    }

    #[test]
    fn random_calibration_matches_cycle_model() {
        let cfg = DramConfig::ddr4_2133();
        // Random-ish: large prime stride so banks/rows scatter.
        let n = 4096u64;
        let mut ctrl = Controller::new(cfg.clone());
        let stride = 786_433u64 * 64; // prime × burst
        let reqs: Vec<Request> = (0..n).map(|i| Request::read((i * stride) % (1 << 33))).collect();
        let exact = ctrl.run_trace(&reqs);
        let model = StreamModel::new(cfg).read(n * 64, AccessPattern::Random);
        let ratio = model.cycles as f64 / exact.cycles as f64;
        assert!((0.5..=2.0).contains(&ratio), "random ratio {ratio}");
    }

    #[test]
    fn random_is_much_slower_than_sequential() {
        let model = StreamModel::new(DramConfig::ddr4_2133());
        let bytes = 1 << 24;
        let seq = model.read(bytes, AccessPattern::Sequential);
        let rnd = model.read(bytes, AccessPattern::Random);
        assert!(rnd.cycles > seq.cycles * 2, "random {} vs sequential {}", rnd.cycles, seq.cycles);
        assert!(rnd.energy_pj > seq.energy_pj * 2.0);
    }

    #[test]
    fn strided_interpolates_between_extremes() {
        let model = StreamModel::new(DramConfig::ddr4_2133());
        let bytes = 1 << 22;
        let seq = model.read(bytes, AccessPattern::Sequential);
        let rnd = model.read(bytes, AccessPattern::Random);
        let strided = model.read(bytes, AccessPattern::Strided { granule: 1024 });
        assert!(strided.cycles >= seq.cycles);
        assert!(strided.cycles <= rnd.cycles);
    }

    #[test]
    fn zero_bytes_is_free() {
        let model = StreamModel::new(DramConfig::ddr4_2133());
        let e = model.read(0, AccessPattern::Sequential);
        assert_eq!(e.cycles, 0);
        assert_eq!(e.energy_pj, 0.0);
    }

    /// Random DRAM access is the enemy: a random megabyte takes more
    /// cycles than a sequential one.
    #[test]
    fn random_megabyte_takes_more_cycles_than_sequential() {
        let model = StreamModel::new(DramConfig::ddr4_2133());
        let seq = model.read(1 << 20, AccessPattern::Sequential);
        let rnd = model.read(1 << 20, AccessPattern::Random);
        assert!(rnd.cycles > seq.cycles);
    }

    #[test]
    fn sequential_hit_rate_is_high() {
        let model = StreamModel::new(DramConfig::ddr4_2133());
        let e = model.read(1 << 22, AccessPattern::Sequential);
        assert!(e.hit_rate > 0.9);
        let r = model.read(1 << 22, AccessPattern::Random);
        assert_eq!(r.hit_rate, 0.0);
    }
}
