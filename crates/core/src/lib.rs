//! # FractalCloud core: Fractal partitioning and block-parallel point ops
//!
//! This crate implements the primary contribution of *"FractalCloud: A
//! Fractal-Inspired Architecture for Efficient Large-Scale Point Cloud
//! Processing"* (HPCA 2026):
//!
//! * [`Fractal`] — the shape-aware partitioner (Alg. 1): recursive
//!   axis-cycled midpoint splits from per-axis extrema, threshold-controlled
//!   block division, and a depth-first-traversal (DFT) memory layout;
//! * [`FractalTree`] — the binary tree over blocks, with the parent
//!   search-space rule for neighbor operations;
//! * [`bppo`] — Block-Parallel Point Operations: block-wise sampling
//!   ([`block_fps`]), grouping ([`block_ball_query`]) and interpolation
//!   ([`block_interpolate`]);
//! * [`Pipeline`] — a validated, reusable partition + BPPO pipeline (the
//!   seam the `fractalcloud-serve` request engine is built on);
//! * [`quality`] — accuracy-proxy evaluation of block vs global pipelines;
//! * [`workspace`] — reusable scratch arenas ([`Workspace`], [`workspace::Pool`])
//!   threaded through the build and BPPO hot paths so a warmed pipeline
//!   performs no per-frame heap allocation (the software analogue of the
//!   paper's on-chip block residency).
//!
//! # Example: partition, sample, group
//!
//! ```
//! use fractalcloud_core::{block_ball_query, block_fps, BppoConfig, Fractal};
//! use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
//!
//! let cloud = scene_cloud(&SceneConfig::default(), 4096, 7);
//! let result = Fractal::with_threshold(256).build(&cloud)?;
//!
//! let cfg = BppoConfig::default();
//! let sampled = block_fps(&cloud, &result.partition, 0.25, &cfg)?;
//! let grouped = block_ball_query(
//!     &cloud, &result.partition, &sampled.per_block, 0.4, 16, &cfg)?;
//! assert_eq!(grouped.center_indices.len(), sampled.indices.len());
//! # Ok::<(), fractalcloud_pointcloud::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bppo;
mod fractal;
pub mod lod;
mod pipeline;
pub mod quality;
mod tree;
pub mod workspace;

pub use bppo::interpolation::BlockInterpolationResult;
pub use bppo::{
    ball_query_block_model, block_ball_query, block_fps, block_fps_with_counts, block_interpolate,
    block_sample_counts, equal_sample_counts, BlockFpsResult, BlockNeighborResult, BppoConfig,
    ReuseStats,
};
pub use fractal::{Fractal, FractalConfig, FractalResult};
pub use lod::{LodCursor, LodSegment, LodSegmentRef, LodSlice, SampleOrder};
pub use pipeline::{fnv1a64, Pipeline, PipelineConfig, PipelineOutput, FNV1A64_SEED};
pub use quality::{evaluate_quality, QualityConfig, QualityReport};
pub use tree::{FractalNode, FractalTree, NodeId};
pub use workspace::{InferScratch, LevelMeta, Workspace};
