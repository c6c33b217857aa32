//! DDR4 device configuration: organization, timing, and energy parameters.

/// DDR4 organization and timing parameters, in memory-clock cycles.
///
/// Defaults model the paper's evaluation memory, **DDR4-2133 with a 64-bit
/// channel (17 GB/s peak)**, with JEDEC-typical grade timings (CL15). The
/// energy constants follow the DRAMsim3 methodology (IDD-derived per-command
/// energies) collapsed to per-event picojoules.
///
/// The fields under `#[cfg(test)]` are read only by the test builds: the
/// reference bank and controller models and the timing unit tests.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    // ---- organization ----
    /// Independent channels (each with its own controller).
    pub(crate) channels: usize,
    /// Bank groups per rank (DDR4: 4).
    #[cfg(test)]
    pub(crate) bank_groups: usize,
    /// Banks per bank group (DDR4: 4).
    #[cfg(test)]
    pub(crate) banks_per_group: usize,
    /// Rows per bank.
    #[cfg(test)]
    pub(crate) rows: usize,
    /// Row (page) size in bytes.
    pub(crate) row_bytes: usize,
    /// Data-bus width in bytes (x64 channel = 8).
    pub(crate) bus_bytes: usize,
    /// Burst length in beats (DDR4: 8 → 64-byte transactions).
    pub(crate) burst_length: usize,

    // ---- clocking ----
    /// Memory-clock period in picoseconds (DDR4-2133: I/O at 1066.5 MHz,
    /// tCK ≈ 937 ps).
    pub(crate) t_ck_ps: u64,

    // ---- timings (cycles) ----
    /// ACT → internal read/write delay.
    pub(crate) t_rcd: u64,
    /// PRE → ACT delay.
    #[cfg(test)]
    pub(crate) t_rp: u64,
    /// CAS (read) latency.
    #[cfg(test)]
    pub(crate) cl: u64,
    /// CAS write latency.
    #[cfg(test)]
    pub(crate) cwl: u64,
    /// ACT → PRE minimum.
    #[cfg(test)]
    pub(crate) t_ras: u64,
    /// ACT → ACT same bank.
    pub(crate) t_rc: u64,
    /// Column-to-column, same bank group.
    #[cfg(test)]
    pub(crate) t_ccd_l: u64,
    /// Column-to-column, different bank group.
    #[cfg(test)]
    pub(crate) t_ccd_s: u64,
    /// Write recovery (end of write data → PRE).
    #[cfg(test)]
    pub(crate) t_wr: u64,
    /// Refresh cycle time.
    pub(crate) t_rfc: u64,
    /// Average refresh interval.
    pub(crate) t_refi: u64,

    // ---- energy (picojoules / milliwatts) ----
    /// Energy of one ACT + PRE pair.
    pub(crate) act_pre_pj: f64,
    /// Energy of one read burst (column access + I/O, 64 B).
    pub(crate) read_pj: f64,
    /// Energy of one write burst.
    #[cfg(test)]
    pub(crate) write_pj: f64,
    /// Energy of one refresh operation (per rank).
    #[cfg(test)]
    pub(crate) refresh_pj: f64,
    /// Background (standby) power per rank, in milliwatts.
    pub(crate) background_mw: f64,
}

impl DramConfig {
    /// DDR4-2133, 64-bit channel, 17 GB/s — the configuration every
    /// accelerator in Table II is evaluated with.
    pub(crate) fn ddr4_2133() -> DramConfig {
        DramConfig {
            channels: 1,
            #[cfg(test)]
            bank_groups: 4,
            #[cfg(test)]
            banks_per_group: 4,
            #[cfg(test)]
            rows: 32768,
            row_bytes: 2048,
            bus_bytes: 8,
            burst_length: 8,
            t_ck_ps: 937,
            t_rcd: 15,
            #[cfg(test)]
            t_rp: 15,
            #[cfg(test)]
            cl: 15,
            #[cfg(test)]
            cwl: 11,
            #[cfg(test)]
            t_ras: 33,
            t_rc: 47,
            #[cfg(test)]
            t_ccd_l: 6,
            #[cfg(test)]
            t_ccd_s: 4,
            #[cfg(test)]
            t_wr: 16,
            t_rfc: 374,   // 350 ns
            t_refi: 8316, // 7.8 µs
            // Micron DDR4 datasheet-derived approximations (8 Gb x8 dies,
            // one-rank x64 DIMM): ACT+PRE ≈ 1.8 nJ, RD/WR burst ≈ 1.1 nJ
            // (≈17 pJ/byte), REF ≈ 27 nJ, standby ≈ 110 mW.
            act_pre_pj: 1800.0,
            read_pj: 1100.0,
            #[cfg(test)]
            write_pj: 1150.0,
            #[cfg(test)]
            refresh_pj: 27000.0,
            background_mw: 110.0,
        }
    }

    /// Total banks per channel.
    #[cfg(test)]
    pub(crate) fn banks(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Bytes transferred by one burst.
    pub(crate) fn burst_bytes(&self) -> usize {
        self.bus_bytes * self.burst_length
    }

    /// Bus cycles occupied by one burst's data (DDR: two beats per clock).
    pub(crate) fn burst_cycles(&self) -> u64 {
        (self.burst_length / 2).max(1) as u64
    }

    /// Peak bandwidth in bytes per second.
    pub fn peak_bandwidth(&self) -> f64 {
        // Two beats per clock (DDR), bus_bytes per beat.
        let clock_hz = 1.0e12 / self.t_ck_ps as f64;
        2.0 * clock_hz * self.bus_bytes as f64 * self.channels as f64
    }

    /// Converts a cycle count to nanoseconds.
    pub(crate) fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * self.t_ck_ps as f64 / 1000.0
    }

    /// Columns (bursts) per row.
    #[cfg(test)]
    pub(crate) fn bursts_per_row(&self) -> usize {
        self.row_bytes / self.burst_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_2133_peak_bandwidth_is_17gbs() {
        let c = DramConfig::ddr4_2133();
        let gbps = c.peak_bandwidth() / 1e9;
        assert!((gbps - 17.06).abs() < 0.1, "peak {gbps} GB/s");
    }

    #[test]
    fn burst_is_64_bytes() {
        let c = DramConfig::ddr4_2133();
        assert_eq!(c.burst_bytes(), 64);
        assert_eq!(c.burst_cycles(), 4);
        assert_eq!(c.banks(), 16);
    }

    #[test]
    fn timing_relations_hold() {
        let c = DramConfig::ddr4_2133();
        // JEDEC: tRC = tRAS + tRP.
        assert!(c.t_rc >= c.t_ras + c.t_rp - 1);
        assert!(c.t_ccd_l >= c.t_ccd_s);
        assert!(c.t_refi > c.t_rfc);
    }

    #[test]
    fn cycles_to_ns_conversion() {
        let c = DramConfig::ddr4_2133();
        assert!((c.cycles_to_ns(1000) - 937.0).abs() < 1e-9);
    }

    #[test]
    fn bursts_per_row() {
        let c = DramConfig::ddr4_2133();
        assert_eq!(c.bursts_per_row(), 32);
    }
}
