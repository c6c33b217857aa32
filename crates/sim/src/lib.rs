//! Cycle-level accelerator simulation substrate for FractalCloud.
//!
//! This crate models the on-chip hardware of Fig. 8 and its baselines:
//!
//! * [`Sram`] — the multi-banked global buffer with bank-conflict modeling;
//! * [`Systolic`] — the 16×16 PE array (MLP engine) with tiling;
//! * [`Sorter`] — the merge-sort unit (KD-tree mode, PointAcc top-k);
//! * [`Rspu`] — the reuse-and-skip point units with block scheduling;
//! * [`FractalEngine`] — the partition datapath (fractal/uniform/KD modes);
//! * [`Dma`] — the memory-interface model over `fractalcloud-dram`;
//! * [`Timeline`] — phase composition with double-buffered overlap;
//! * [`EnergyTable`] / [`EnergyBreakdown`] — 28 nm per-event energy
//!   accounting (on-chip network energy is a per-byte-hop rate that
//!   `fractalcloud-accel` charges on point-operation DMA traffic).
//!
//! Accelerator-level models (FractalCloud, PointAcc, Crescent, …) live in
//! `fractalcloud-accel` and are built by composing these units.
//!
//! # Example
//!
//! ```
//! use fractalcloud_sim::{EnergyTable, Systolic, SystolicConfig};
//!
//! let pe = Systolic::new(SystolicConfig::pe16x16(), EnergyTable::tsmc28());
//! let cost = pe.mlp_layer(4096, 64, 128);
//! assert!(cost.utilization > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod dma;
mod energy;
mod fractal_engine;
mod kernel;
mod rspu;
mod sorter;
mod sram;
mod systolic;

pub use dma::{Dma, DmaCost};
pub use energy::{EnergyBreakdown, EnergyCategory, EnergyTable};
pub use fractal_engine::{FractalEngine, FractalEngineConfig, PartitionEngineCost};
pub use kernel::{Phase, PhaseClass, Timeline};
pub use rspu::{Rspu, RspuConfig, RspuCost};
pub use sorter::{SortCost, Sorter, SorterConfig};
pub use sram::{Sram, SramAccess, SramConfig, SramPattern};
pub use systolic::{GemmCost, Systolic, SystolicConfig};
