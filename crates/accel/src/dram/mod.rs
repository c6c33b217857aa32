//! The DDR4-2133 model (DRAMsim3-style) every design streams from.
//!
//! The paper evaluates every accelerator against DDR4-2133 (17 GB/s) and
//! uses DRAMsim3 for off-chip power. [`DramConfig`] holds the organization,
//! JEDEC timings and per-command energies; [`StreamModel`] is the
//! closed-form model the designs charge large transfers with, through
//! [`Dma`](crate::sim::Dma). A cycle-level FR-FCFS controller over
//! protocol-enforcing bank state machines is built for the tests only: the
//! stream model's calibration tests check it against the controller.

pub use crate::config::DramConfig;
pub use crate::stream::StreamModel;
