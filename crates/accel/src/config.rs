//! Table II accelerator configurations and the FractalCloud chip summary
//! (Fig. 12).

/// Hardware configuration of one accelerator (one column of Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Design name.
    pub name: &'static str,
    /// PE-array geometry (all designs: 16×16).
    pub pe_array: (usize, usize),
    /// On-chip SRAM in KB.
    pub sram_kb: f64,
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// Core area in mm² (28 nm).
    pub area_mm2: f64,
    /// DRAM interface description.
    pub dram: &'static str,
    /// DRAM peak bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Technology node in nm.
    pub tech_nm: u32,
    /// Peak throughput in GOPS.
    pub peak_gops: f64,
}

impl AcceleratorConfig {
    /// Mesorasi (MICRO'20), Table II column 1.
    pub fn mesorasi() -> AcceleratorConfig {
        AcceleratorConfig {
            name: "Mesorasi",
            pe_array: (16, 16),
            sram_kb: 1624.0,
            freq_ghz: 1.0,
            area_mm2: 4.59,
            dram: "DDR4-2133",
            dram_gbps: 17.0,
            tech_nm: 28,
            peak_gops: 512.0,
        }
    }

    /// PointAcc (MICRO'21), Table II column 2.
    pub fn pointacc() -> AcceleratorConfig {
        AcceleratorConfig {
            name: "PointAcc",
            pe_array: (16, 16),
            sram_kb: 274.0,
            freq_ghz: 1.0,
            area_mm2: 1.91,
            dram: "DDR4-2133",
            dram_gbps: 17.0,
            tech_nm: 28,
            peak_gops: 512.0,
        }
    }

    /// Crescent (ISCA'22), Table II column 3.
    pub fn crescent() -> AcceleratorConfig {
        AcceleratorConfig {
            name: "Crescent",
            pe_array: (16, 16),
            sram_kb: 1622.8,
            freq_ghz: 1.0,
            area_mm2: 4.75,
            dram: "DDR4-2133",
            dram_gbps: 17.0,
            tech_nm: 28,
            peak_gops: 512.0,
        }
    }

    /// FractalCloud (this paper), Table II column 4.
    pub fn fractalcloud() -> AcceleratorConfig {
        AcceleratorConfig {
            name: "FractalCloud",
            pe_array: (16, 16),
            sram_kb: 274.0,
            freq_ghz: 1.0,
            area_mm2: 1.5,
            dram: "DDR4-2133",
            dram_gbps: 17.0,
            tech_nm: 28,
            peak_gops: 512.0,
        }
    }

    /// All Table II rows, in column order.
    pub fn table2() -> Vec<AcceleratorConfig> {
        vec![
            AcceleratorConfig::mesorasi(),
            AcceleratorConfig::pointacc(),
            AcceleratorConfig::crescent(),
            AcceleratorConfig::fractalcloud(),
        ]
    }
}

/// The FractalCloud chip summary of Fig. 12.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Die area in mm².
    pub die_area_mm2: f64,
    /// Core area in mm².
    pub core_area_mm2: f64,
    /// SRAM capacity in KB.
    pub sram_kb: f64,
    /// Clock in GHz.
    pub freq_ghz: f64,
    /// Average power in watts.
    pub avg_power_w: f64,
    /// Technology node.
    pub tech: &'static str,
}

impl ChipSpec {
    /// The published FractalCloud layout numbers.
    pub fn fractalcloud() -> ChipSpec {
        ChipSpec {
            die_area_mm2: 3.0,
            core_area_mm2: 1.5,
            sram_kb: 274.0,
            freq_ghz: 1.0,
            avg_power_w: 0.58,
            tech: "TSMC 28nm",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let t = AcceleratorConfig::table2();
        assert_eq!(t.len(), 4);
        assert!(t.iter().all(|c| c.pe_array == (16, 16)));
        assert!(t.iter().all(|c| c.freq_ghz == 1.0));
        assert!(t.iter().all(|c| c.tech_nm == 28));
        assert!(t.iter().all(|c| c.peak_gops == 512.0));
        assert!(t.iter().all(|c| c.dram_gbps == 17.0));
        let fc = &t[3];
        assert_eq!(fc.area_mm2, 1.5);
        assert_eq!(fc.sram_kb, 274.0);
        // FractalCloud is the smallest design.
        assert!(t.iter().all(|c| c.area_mm2 >= fc.area_mm2));
    }

    #[test]
    fn chip_spec_matches_fig12() {
        let s = ChipSpec::fractalcloud();
        assert_eq!(s.core_area_mm2, 1.5);
        assert_eq!(s.avg_power_w, 0.58);
        assert_eq!(s.die_area_mm2, 3.0);
    }
}
