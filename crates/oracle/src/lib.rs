//! # FractalCloud test oracles
//!
//! The seed's per-point scalar formulations, kept only to check the fast
//! paths against. Nothing shipped depends on this crate: the pointcloud,
//! core and root packages take it as a dev-dependency, and their property
//! and equivalence tests assert that the optimized operations return the
//! oracles' exact indices, distances and counters on every kernel backend.
//!
//! * [`ops`] — global FPS, K-NN, ball query and interpolation, one candidate
//!   at a time (the oracle for [`fractalcloud_pointcloud::ops`]);
//! * [`bppo`] — block-wise FPS walking the window-check mask candidate by
//!   candidate (the oracle for [`fractalcloud_core::block_fps`]);
//! * [`WindowCheck`] — a bit-exact functional model of the RSPU
//!   redundancy-skipping mask (Fig. 11(c)).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bppo;
pub mod ops;
mod window;

pub use window::WindowCheck;
