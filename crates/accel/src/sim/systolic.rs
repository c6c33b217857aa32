//! 16×16 output-stationary systolic array model (the MLP engine).

use crate::energy::TSMC28;

/// Systolic array configuration. All Table II accelerators use 16×16 PEs at
/// 1 GHz → 256 MACs/cycle → 512 GOPS (2 ops per MAC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystolicConfig {
    /// PE rows.
    pub rows: usize,
    /// PE columns.
    pub cols: usize,
}

impl SystolicConfig {
    /// The 16×16 array of Table II.
    pub fn pe16x16() -> SystolicConfig {
        SystolicConfig { rows: 16, cols: 16 }
    }

    /// Peak multiply-accumulates per cycle.
    pub(crate) fn macs_per_cycle(&self) -> usize {
        self.rows * self.cols
    }

    /// Peak GOPS at `freq_ghz` (2 ops per MAC).
    pub fn peak_gops(&self, freq_ghz: f64) -> f64 {
        2.0 * self.macs_per_cycle() as f64 * freq_ghz
    }
}

/// Result of a GEMM on the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GemmCost {
    /// Cycles including tile fill/drain.
    pub(crate) cycles: u64,
    /// MAC operations executed (`m·n·k`).
    pub(crate) macs: u64,
    /// Compute energy in picojoules.
    pub(crate) energy_pj: f64,
    /// Achieved utilization in `[0, 1]`.
    pub(crate) utilization: f64,
}

/// Cycle/energy model of a weight-stationary-ish tiled GEMM
/// `C[m×n] = A[m×k] × B[k×n]`, tiles of `rows × cols`, `k`-deep pipelines
/// with `rows + cols` fill/drain per tile wave.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Systolic {
    config: SystolicConfig,
}

impl Systolic {
    /// Creates an array model.
    pub(crate) fn new(config: SystolicConfig) -> Systolic {
        Systolic { config }
    }

    /// Costs a GEMM of `m × k` by `k × n`.
    pub(crate) fn gemm(&self, m: u64, n: u64, k: u64) -> GemmCost {
        if m == 0 || n == 0 || k == 0 {
            return GemmCost { cycles: 0, macs: 0, energy_pj: 0.0, utilization: 1.0 };
        }
        let r = self.config.rows as u64;
        let c = self.config.cols as u64;
        let tiles_m = m.div_ceil(r);
        let tiles_n = n.div_ceil(c);
        let fill_drain = r + c;
        let cycles = tiles_m * tiles_n * (k + fill_drain);
        let macs = m * n * k;
        let peak = cycles * self.config.macs_per_cycle() as u64;
        GemmCost {
            cycles,
            macs,
            energy_pj: macs as f64 * TSMC28.mac_fp16_pj,
            utilization: macs as f64 / peak as f64,
        }
    }

    /// Costs a max-pooling reduction over `groups` of `size` elements with
    /// `channels` channels (the pooling unit, one comparator lane per PE
    /// column).
    pub(crate) fn max_pool(&self, groups: u64, size: u64, channels: u64) -> GemmCost {
        let compares = groups * size.saturating_sub(1).max(1) * channels;
        let lanes = self.config.cols as u64;
        let cycles = compares.div_ceil(lanes);
        GemmCost {
            cycles,
            macs: 0,
            energy_pj: compares as f64 * TSMC28.alu_fp16_pj,
            utilization: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pe() -> Systolic {
        Systolic::new(SystolicConfig::pe16x16())
    }

    #[test]
    fn peak_is_512_gops_at_1ghz() {
        assert_eq!(SystolicConfig::pe16x16().peak_gops(1.0), 512.0);
    }

    #[test]
    fn aligned_gemm_utilization_is_high() {
        let g = pe().gemm(1024, 256, 256);
        assert!(g.utilization > 0.8, "utilization {}", g.utilization);
        assert_eq!(g.macs, 1024 * 256 * 256);
    }

    #[test]
    fn tiny_gemm_wastes_the_array() {
        let g = pe().gemm(4, 4, 16);
        assert!(g.utilization < 0.1);
    }

    #[test]
    fn cycles_scale_linearly_in_k() {
        let a = pe().gemm(16, 16, 100);
        let b = pe().gemm(16, 16, 200);
        assert!(b.cycles > a.cycles);
        assert!(b.cycles < 2 * a.cycles); // fill/drain amortizes
    }

    #[test]
    fn ragged_tiles_round_up() {
        let g = pe().gemm(17, 17, 32);
        // 2×2 tiles.
        assert_eq!(g.cycles, 4 * (32 + 32));
    }

    #[test]
    fn gemm_of_a_thousand_rows_keeps_half_the_array_busy() {
        let big = pe().gemm(1024, 64, 64);
        assert!(big.utilization > 0.5);
    }

    #[test]
    fn max_pool_counts_compares() {
        let p = pe().max_pool(128, 32, 64);
        assert_eq!(p.macs, 0);
        assert!(p.energy_pj > 0.0);
        assert_eq!(p.cycles, (128 * 31 * 64u64).div_ceil(16));
    }

    #[test]
    fn zero_work_is_free() {
        let g = pe().gemm(0, 16, 16);
        assert_eq!(g.cycles, 0);
        assert_eq!(g.energy_pj, 0.0);
    }
}
