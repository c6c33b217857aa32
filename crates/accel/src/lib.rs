//! Accelerator models for the FractalCloud evaluation.
//!
//! Builds the Table II designs — FractalCloud, PointAcc, Crescent, Mesorasi
//! — plus PNNPU and a TITAN RTX-class GPU baseline, all as cost models over
//! the on-chip unit models of [`sim`] and the DDR4-2133 model of [`dram`].
//! A [`Workload`] carries the network's shape plan
//! ([`fractalcloud_pnn::Segments`], the same plan the executor builds its
//! layers from) and the measured partition structure; every model walks the
//! plan stage by stage and charges analytic point-operation work
//! (cross-validated against the executable implementations).
//!
//! Each paper comparison is stated once, as the parameter sets the models
//! run: [`DesignParams::table2`] is Table II's four designs in column order
//! (the bench crate's `table2` prints their rows, Fig. 13's fleet runs
//! them) and [`DesignParams::ablation_ladder`] is Fig. 18's seven rungs.
//! The columns every design shares (PE array, clock, DRAM) are the unit
//! constructors [`DesignModel::new`] builds each design with, and every
//! unit charges its events to the one 28 nm energy table.
//!
//! # Example
//!
//! ```
//! use fractalcloud_accel::{Accelerator, DesignModel, DesignParams, GpuModel, Workload};
//! use fractalcloud_pnn::ModelConfig;
//!
//! let w = Workload::prepare(&ModelConfig::pointnext_segmentation(), 8192, 1);
//! let fc = DesignModel::new(DesignParams::fractalcloud()).execute(&w);
//! let gpu = GpuModel::titan_rtx().execute(&w);
//! assert!(fc.speedup_over(&gpu) > 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analytic;
mod device;
pub mod dram;
mod gpu;
mod models;
pub mod sim;
mod workload;

// The unit models. Their sources are grouped under `sim/` (on-chip units)
// and `dram/` (DDR4), but each is a module of the crate root: the units
// name one another as `crate::energy`, `crate::stream`, …, and `sim` /
// `dram` re-export what the figure functions and tests read. The cycle-level
// controller and its banks are the reference `StreamModel`'s calibration
// tests run against; nothing else needs them.
#[cfg(test)]
#[path = "dram/bank.rs"]
mod bank;
#[path = "dram/config.rs"]
mod config;
#[cfg(test)]
#[path = "dram/controller.rs"]
mod controller;
#[path = "sim/dma.rs"]
mod dma;
#[path = "sim/energy.rs"]
mod energy;
#[path = "sim/fractal_engine.rs"]
mod fractal_engine;
#[path = "sim/kernel.rs"]
mod kernel;
#[path = "sim/rspu.rs"]
mod rspu;
#[path = "sim/sorter.rs"]
mod sorter;
#[path = "sim/sram.rs"]
mod sram;
#[path = "dram/stream.rs"]
mod stream;
#[path = "sim/systolic.rs"]
mod systolic;

pub use device::{Accelerator, ExecutionReport};
pub use gpu::{GpuConfig, GpuModel};
pub use models::{DesignModel, DesignParams, PartitionKind};
pub use workload::{cloud_for_task, Workload};
