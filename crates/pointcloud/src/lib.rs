//! Point-cloud substrate for the FractalCloud reproduction.
//!
//! This crate provides everything the FractalCloud accelerator study needs
//! *below* the paper's contribution:
//!
//! * [`Point3`], [`Aabb`], [`PointCloud`] — geometry and storage
//!   (structure-of-arrays, optional dense features);
//! * [`generate`] — deterministic synthetic datasets with ModelNet40-,
//!   ShapeNet- and S3DIS-like statistics;
//! * [`ops`] — exact global point operations (FPS, ball query, KNN, gather,
//!   interpolation) with hardware-relevant work counters, built on the
//!   runtime-dispatched kernels of [`kernels`] (the original per-point
//!   formulations are retained in [`ops::reference`] as equivalence
//!   oracles);
//! * [`kernels`] — runtime-dispatched distance/argmax/top-k backends
//!   (chunked SoA, explicit AVX2 behind feature detection; bit-identical,
//!   `FRACTALCLOUD_KERNEL` overrides the selection) with
//!   batched-query KNN/ball-query selection, operating directly on the SoA
//!   coordinate slices;
//! * [`partition`] — baseline partitioners (uniform grid, KD-tree, octree)
//!   behind a common [`partition::Partitioner`] trait;
//! * [`metrics`] — accuracy-proxy metrics comparing approximate block-wise
//!   operations against the exact references.
//!
//! The paper's own contribution — the Fractal partitioner and block-parallel
//! point operations — lives in the `fractalcloud-core` crate, which builds
//! on these types.
//!
//! # Quick example
//!
//! ```
//! use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
//! use fractalcloud_pointcloud::ops::farthest_point_sample;
//!
//! let cloud = scene_cloud(&SceneConfig::default(), 1024, 42);
//! let sampled = farthest_point_sample(&cloud, 256, 0)?;
//! assert_eq!(sampled.indices.len(), 256);
//! # Ok::<(), fractalcloud_pointcloud::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod aabb;
mod cloud;
pub mod count_alloc;
mod error;
pub mod generate;
pub mod kernels;
pub mod metrics;
pub mod ops;
pub mod partition;
mod point;

pub use aabb::Aabb;
pub use cloud::{Iter, PointCloud};
pub use error::{Error, Result};
pub use point::{Axis, InvalidAxisError, Point3};
