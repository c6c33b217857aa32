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
mod config;
mod device;
mod gpu;
mod models;
mod workload;

pub use config::{AcceleratorConfig, ChipSpec};
pub use device::{Accelerator, ExecutionReport};
pub use gpu::{GpuConfig, GpuModel};
pub use models::{DesignModel, DesignParams, PartitionKind};
pub use workload::{cloud_for_task, Workload};
