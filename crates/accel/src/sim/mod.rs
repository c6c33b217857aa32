//! The on-chip units of Fig. 8 and its baselines, each a cycle and energy
//! model the designs are built from:
//!
//! * `Sram` — the multi-banked global buffer with bank-conflict modeling;
//! * `Systolic` — the 16×16 PE array (MLP engine) with tiling
//!   ([`SystolicConfig`]);
//! * `Sorter` — the merge-sort unit (KD-tree mode);
//! * [`Rspu`] — the reuse-and-skip point units;
//! * [`FractalEngine`] — the partition datapath (fractal/uniform/KD modes);
//! * [`Dma`] — the memory interface over the [`dram`](crate::dram) model;
//! * [`Timeline`] — phase composition with double-buffered overlap;
//! * `EnergyTable` / [`EnergyBreakdown`] — 28 nm per-event energy
//!   accounting (on-chip network energy is a per-byte-hop rate the designs
//!   charge on point-operation DMA traffic).
//!
//! [`DesignModel`](crate::DesignModel) composes them into the Table II
//! designs; the items exported here are the ones the figure functions read.
//!
//! # Example
//!
//! Table II's shared columns: every design's 16×16 PE array at the DMA's
//! 1 GHz clock peaks at 512 GOPS.
//!
//! ```
//! use fractalcloud_accel::sim::{Dma, SystolicConfig};
//!
//! let ghz = Dma::at_1ghz().core_ghz();
//! assert_eq!(SystolicConfig::pe16x16().peak_gops(ghz), 512.0);
//! ```

pub use crate::dma::Dma;
pub use crate::energy::EnergyBreakdown;
pub use crate::fractal_engine::{FractalEngine, PartitionEngineCost};
pub use crate::kernel::{Phase, PhaseClass, Timeline};
pub use crate::rspu::{Rspu, RspuConfig, RspuCost};
pub use crate::sram::SramConfig;
pub use crate::systolic::SystolicConfig;
