//! Table II + Fig. 12: the evaluated hardware accelerators and the
//! FractalCloud chip summary, printed from the designs the models run.

use fractalcloud_accel::DesignParams;
use fractalcloud_bench::{header, sram_kb};
use fractalcloud_sim::{Dma, SystolicConfig};

/// The DRAM column names `DramConfig::ddr4_2133`, which `Dma::at_1ghz`
/// streams from in every design.
const DRAM: &str = "DDR4-2133";
/// The technology column: the node of `EnergyTable::tsmc28`.
const TECH_NM: u32 = 28;

/// Fig. 12's published layout numbers; no model computes them.
const DIE_AREA_MM2: f64 = 3.0;
const AVG_POWER_W: f64 = 0.58;
const TECH: &str = "TSMC 28nm";

fn main() {
    // The units `DesignModel::new` builds every design with.
    let pe = SystolicConfig::pe16x16();
    let ghz = Dma::at_1ghz().core_ghz();

    header("Table II", "evaluated hardware accelerators");
    println!(
        "{:<14} {:>7} {:>10} {:>7} {:>10} {:>12} {:>6} {:>10}",
        "accelerator", "cores", "SRAM (KB)", "freq", "area (mm²)", "DRAM", "tech", "peak GOPS"
    );
    for p in DesignParams::table2() {
        println!(
            "{:<14} {:>7} {:>10} {:>6}G {:>10} {:>12} {:>4}nm {:>10}",
            p.name,
            format!("{}x{}", pe.rows, pe.cols),
            sram_kb(&p.sram),
            ghz,
            p.area_mm2,
            DRAM,
            TECH_NM,
            pe.peak_gops(ghz)
        );
    }

    println!();
    header("Fig. 12", "FractalCloud chip summary (paper layout numbers)");
    let fc = DesignParams::fractalcloud();
    println!("die area      {:>8} mm²", DIE_AREA_MM2);
    println!("core area     {:>8} mm²", fc.area_mm2);
    println!("SRAM          {:>8} KB", sram_kb(&fc.sram));
    println!("frequency     {:>8} GHz", ghz);
    println!("avg power     {:>8} W", AVG_POWER_W);
    println!("technology    {:>10}", TECH);
}
