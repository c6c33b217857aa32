//! # fractalcloud-serve: batched request serving for partition + BPPO
//!
//! The front door the ROADMAP's "millions of users" north star needs: a
//! request/response engine that turns the FractalCloud library into a
//! service. A *frame* (one LiDAR-scale point cloud plus a
//! [`PipelineConfig`](fractalcloud_core::PipelineConfig)) goes in; the block-FPS samples and ball-query groups
//! — bit-identical to direct [`fractalcloud_core`] calls on every kernel
//! backend — come out.
//!
//! The moving parts, one module each:
//!
//! * [`ServeConfig`] — tunables, set through its builder methods;
//! * [`Engine`] — bounded admission queue with [`Priority`] classes
//!   (weighted dequeue, Bulk-sheds-first displacement at the bound) and
//!   counted load-shedding (never unbounded growth), an adaptive batcher
//!   fusing compatible frames into one lane per request on
//!   [`fractalcloud_parallel::for_each_budget`] (each request's share of
//!   the thread budget is inherited by the block fan-out inside its
//!   pipeline — bit-identical results for every budget), and a partition
//!   LRU ([`cache`]) keyed by frame hash;
//! * [`Metrics`] — per-stage counters (global and per priority class),
//!   queue-depth gauges, and log-bucketed p50/p99 latency histograms;
//! * [`protocol`] — the length-prefixed little-endian wire format (the
//!   request kind byte carries the priority in its high nibble, Normal =
//!   0 for backward compatibility);
//! * [`TcpServer`]/[`ServeClient`] — a plain `std::net` TCP front-end
//!   (threads, no async runtime) with a concurrent-connection limit,
//!   round-robin admission across connections, and per-connection socket
//!   timeouts, plus its blocking client (self-healing via [`RetryPolicy`]:
//!   seeded backoff, reconnect-and-replay on GOAWAY or transport death);
//! * [`overload`](OverloadLevel) — graceful degradation: an adaptive
//!   brown-out controller ([`BrownoutConfig`]) watches queue waits and
//!   deadline sheds, and under pressure serves non-High frames at a
//!   reduced LOD budget (each degraded response is the exact
//!   `budget_served`-sample prefix of the full run — quality fades, wire
//!   contracts hold), escalating to shed-mode at the top level;
//!   [`Engine::drain`]/[`Engine::resume`] give zero-downtime maintenance
//!   (work answered GOAWAY, in-flight requests finish, probes stay live).
//!
//! Beyond frames, the engine serves end-to-end **network inference**
//! (`INFER` on the wire, [`Engine::submit_infer`] in-process): the frame
//! path's partition + stage-1 sampling/grouping feeds a
//! [`fractalcloud_pnn::NetworkExecutor`] with selectable eager vs Mesorasi
//! delayed [`Aggregation`] — bit-identical logits either way, in-process or
//! over TCP. Warmed serving is allocation-free end to end: submit with
//! [`Engine::process_shared`] / [`Engine::process_infer`] and return
//! response buffers with [`Engine::recycle`] / [`Engine::recycle_infer`].
//!
//! # Quickstart
//!
//! ```
//! use fractalcloud_serve::{Engine, ServeConfig, ServeClient, TcpServer};
//! use fractalcloud_core::PipelineConfig;
//! use fractalcloud_pointcloud::generate::uniform_cube;
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::start(ServeConfig::default().workers(2)));
//! let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine))?;
//!
//! let mut client = ServeClient::connect(server.local_addr())?;
//! let reply = client.process(&uniform_cube(1024, 7), &PipelineConfig::default()).unwrap();
//! assert_eq!(reply.sampled_indices.len(), 256);
//!
//! server.shutdown();
//! engine.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
mod config;
mod engine;
pub mod faults;
mod metrics;
mod net;
mod overload;
pub mod protocol;

pub use config::ServeConfig;
pub use engine::{
    Engine, EngineHealth, FrameResponse, InferRequest, InferResponse, InferTicket, Priority,
    ServeError, ShedReason, StreamChunkResponse, StreamTicket, Ticket,
};
pub use faults::{FaultKind, FaultPlan, FaultPoint};
// Re-exported so serve clients can build an [`InferRequest`] without
// depending on the pnn crate directly.
pub use fractalcloud_pnn::{Aggregation, ModelConfig};
pub use metrics::{LatencyHistogram, Metrics, MetricsSnapshot};
pub use net::{ClientError, RetryPolicy, ServeClient, StreamEvent, TcpServer};
pub use overload::{BrownoutConfig, OverloadLevel};
