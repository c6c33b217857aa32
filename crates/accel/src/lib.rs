//! Accelerator models for the FractalCloud evaluation.
//!
//! Builds the Table II designs — FractalCloud, PointAcc, Crescent, Mesorasi
//! — plus PNNPU and a TITAN RTX-class GPU baseline, all as cost models over
//! the `fractalcloud-sim` unit library. A [`Workload`] carries the network's
//! shape plan ([`fractalcloud_pnn::Segments`], the same plan the executor
//! builds its layers from) and the measured partition structure; every
//! model walks the plan stage by stage and charges analytic point-operation
//! work (cross-validated against the executable implementations).
//!
//! Each paper comparison is stated once, as the parameter sets the models
//! run: [`DesignParams::table2`] is Table II's four designs in column order
//! (the `table2_accelerators` bin prints their rows, Fig. 13's fleet runs
//! them) and [`DesignParams::ablation_ladder`] is Fig. 18's seven rungs.
//! The columns every design shares (PE array, clock, DRAM, energy table)
//! are the `fractalcloud-sim` unit constructors [`DesignModel::new`] builds
//! each design with.
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
mod gpu;
mod models;
mod workload;

pub use device::{Accelerator, ExecutionReport};
pub use gpu::{GpuConfig, GpuModel};
pub use models::{DesignModel, DesignParams, PartitionKind};
pub use workload::{cloud_for_task, Workload};
