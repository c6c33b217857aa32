//! Point-based neural network (PNN) model zoo, operation traces, and the
//! CPU executor that serves them.
//!
//! This crate provides the workload side of the FractalCloud evaluation:
//!
//! * [`ModelConfig`] — the Table I networks (PointNet++, PointNeXt,
//!   PointVector) across classification / part-segmentation / segmentation;
//! * [`OpTrace`] — shape-level operation traces that accelerator models
//!   cost (sampling, grouping, gather, MLP, pooling, interpolation);
//! * [`NetworkExecutor`] — real-arithmetic end-to-end inference, global
//!   search ([`NetworkExecutor::run`]) or a block-parallel first stage
//!   ([`NetworkExecutor::run_with_stage1`]); workspace-backed,
//!   allocation-free when warm, with selectable eager vs Mesorasi delayed
//!   [`Aggregation`] (bit-identical outputs; delayed is the default).
//!
//! # Example
//!
//! ```
//! use fractalcloud_pnn::{ModelConfig, OpTrace};
//!
//! let model = ModelConfig::pointnext_segmentation();
//! let trace = OpTrace::build(&model, 16384);
//! assert!(trace.global_distance_evals() > trace.total_macs() / 10);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod infer;
pub mod layers;
mod trace;
mod zoo;

pub use infer::{Aggregation, InferOutput, InferenceConfig, NetworkExecutor};
pub use trace::{MlpKind, OpTrace, PnnOp};
pub use zoo::{FeaturePropagation, ModelConfig, SetAbstraction, Task};
