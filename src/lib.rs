//! # FractalCloud
//!
//! A complete Rust reproduction of *"FractalCloud: A Fractal-Inspired
//! Architecture for Efficient Large-Scale Point Cloud Processing"*
//! (HPCA 2026): the Fractal shape-aware partitioner, block-parallel point
//! operations, a cycle-level model of the accelerator and its baselines
//! (PointAcc, Crescent, Mesorasi, PNNPU, GPU), and every substrate they
//! need — point-cloud geometry, synthetic datasets, a DDR4 model, on-chip
//! unit models, and a PNN model zoo with its serving executor.
//!
//! This facade crate re-exports the whole workspace under one name:
//!
//! * [`pointcloud`] — geometry, datasets, reference ops, baseline
//!   partitioners ([`fractalcloud_pointcloud`]);
//! * [`core`] — Fractal + BPPO, the paper's contribution
//!   ([`fractalcloud_core`]);
//! * [`dram`] — the DDR4-2133 model ([`fractalcloud_dram`]);
//! * [`sim`] — on-chip unit models ([`fractalcloud_sim`]);
//! * [`pnn`] — networks, traces and the serving executor
//!   ([`fractalcloud_pnn`]);
//! * [`accel`] — accelerator cost models ([`fractalcloud_accel`]);
//! * [`parallel`] — the scoped-thread worker pool
//!   ([`fractalcloud_parallel`]);
//! * [`serve`] — the batched request-serving engine and TCP front-end
//!   ([`fractalcloud_serve`]).
//!
//! # Quickstart
//!
//! ```
//! use fractalcloud::core::{block_fps, BppoConfig, Fractal};
//! use fractalcloud::pointcloud::generate::{scene_cloud, SceneConfig};
//!
//! // 1. A synthetic indoor scan.
//! let cloud = scene_cloud(&SceneConfig::default(), 8192, 7);
//!
//! // 2. Shape-aware partitioning (Alg. 1, th = 256).
//! let result = Fractal::with_threshold(256).build(&cloud)?;
//! assert!(result.partition.blocks.iter().all(|b| b.len() <= 256));
//!
//! // 3. Block-parallel sampling at a fixed 1/4 rate.
//! let sampled = block_fps(&cloud, &result.partition, 0.25, &BppoConfig::default())?;
//! assert_eq!(sampled.indices.len(), 2048);
//! # Ok::<(), fractalcloud::pointcloud::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use fractalcloud_accel as accel;
pub use fractalcloud_core as core;
pub use fractalcloud_dram as dram;
pub use fractalcloud_parallel as parallel;
pub use fractalcloud_pnn as pnn;
pub use fractalcloud_pointcloud as pointcloud;
pub use fractalcloud_serve as serve;
pub use fractalcloud_sim as sim;
