//! Point-based neural network (PNN) model zoo, its shape plans, and the
//! CPU executor that serves them.
//!
//! This crate provides the workload side of the FractalCloud evaluation:
//!
//! * [`ModelConfig`] — the Table I networks (PointNet++, PointNeXt,
//!   PointVector) across classification / part-segmentation / segmentation;
//! * [`Segments`] — a network's shape plan at a given input size: stem,
//!   set-abstraction stages (sample → group → gather → MLP → pool),
//!   feature-propagation stages and head, worked out once. The executor
//!   builds its layers from it and accelerator models cost it;
//! * [`NetworkExecutor`] — real-arithmetic end-to-end inference, global
//!   search ([`NetworkExecutor::run`]) or a block-parallel first stage
//!   ([`NetworkExecutor::run_with_stage1`]); workspace-backed,
//!   allocation-free when warm, with selectable eager vs Mesorasi delayed
//!   [`Aggregation`] (bit-identical outputs; delayed is the default).
//!
//! # Example
//!
//! ```
//! use fractalcloud_pnn::{ModelConfig, Segments};
//!
//! let model = ModelConfig::pointnext_segmentation();
//! let plan = Segments::new(&model, 16384)?;
//! assert_eq!(plan.abstraction[0].n_out, 4096);
//! assert!(plan.global_distance_evals() > plan.total_macs() / 10);
//! # Ok::<(), fractalcloud_pointcloud::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod infer;
pub mod layers;
mod segment;
mod zoo;

pub use infer::{Aggregation, InferOutput, InferenceConfig, NetworkExecutor};
pub use segment::{FpSegment, MlpShape, SaSegment, Segments};
pub use zoo::{FeaturePropagation, ModelConfig, SetAbstraction, Task};
