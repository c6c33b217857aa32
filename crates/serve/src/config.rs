//! Serving-engine configuration.

use crate::faults::FaultPlan;
use crate::overload::BrownoutConfig;

/// Tunables for [`Engine`](crate::Engine) and the TCP front-end, set
/// through the builder methods on [`ServeConfig::default`]. The one
/// environment input is the fault plan (`FRACTALCLOUD_FAULTS`, see
/// [`FaultPlan::parse`]); the worker count and thread budget default to
/// the process-wide pool (`FRACTALCLOUD_THREADS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum queued (admitted but not yet started) requests. Admission
    /// beyond this sheds with [`ShedReason::QueueFull`](crate::ShedReason)
    /// instead of growing the queue — the queue is the *only* buffer, so
    /// memory use is bounded by construction. A capacity of 0 sheds every
    /// request (useful for drain tests and hard maintenance mode).
    pub queue_capacity: usize,
    /// Worker threads pulling batches off the queue.
    pub workers: usize,
    /// Maximum compatible frames fused into one batch by a worker.
    pub max_batch: usize,
    /// Largest admissible frame, in points; larger frames shed with
    /// [`ShedReason::Oversized`](crate::ShedReason). Also bounds how many
    /// payload bytes the TCP front-end will read for one request.
    pub max_points: usize,
    /// Partition-LRU capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Thread budget shared by the requests of one batch: a lone request
    /// gets the whole budget, while a fused batch divides it across one
    /// lane per request; a lane spends its share on the block fan-out
    /// inside its pipeline (the Fractal build is single-threaded) and, for
    /// `INFER`, on splitting each wide dense layer's rows.
    pub thread_budget: usize,
    /// Maximum concurrent TCP connections; further connects are answered
    /// with `status::TOO_MANY_CONNECTIONS` (retryable) and closed.
    pub max_connections: usize,
    /// Default per-request deadline in milliseconds (0 = none). A request
    /// whose deadline passes before execution is shed with the retryable
    /// [`ShedReason::DeadlineExceeded`](crate::ShedReason); one that
    /// expires mid-run is cancelled at the next pipeline stage seam.
    /// Per-request wire deadlines override this default.
    pub deadline_ms: u64,
    /// Streaming first-paint depth in samples: how much of the quality
    /// ordering the first chunk of an [`OP_STREAM`](crate::protocol) frame
    /// carries. The first chunk is the stream's one engine job, at the
    /// requester's priority (it is the time-to-first-point the viewer
    /// sees); refinement chunks are cut from its output on the connection
    /// thread. A wire value of 0 selects this default.
    pub stream_first_paint: usize,
    /// Streaming refinement-chunk size in samples (wire value 0 selects
    /// this default).
    pub stream_chunk: usize,
    /// Default refinement credits granted at stream open: how many chunks
    /// beyond first paint the server pushes before it blocks waiting for
    /// `STREAM_CREDIT` frames (wire value 0 selects this default).
    pub stream_credits: usize,
    /// Seeded fault-injection plan ([`FaultPlan::OFF`] outside chaos
    /// testing; the `FRACTALCLOUD_FAULTS` environment plan by default, so
    /// an exported spec soaks everything built on [`ServeConfig`]).
    pub faults: FaultPlan,
    /// Adaptive brown-out controller tunables (see [`BrownoutConfig`]).
    pub brownout: BrownoutConfig,
    /// Per-connection socket read/write timeout in milliseconds (slow-peer
    /// defense: a slow-loris writer or a peer that stops reading trips the
    /// timeout and the connection closes, freeing its slot). 0 disables.
    pub idle_timeout_ms: u64,
}

impl ServeConfig {
    /// Returns `self` with the given admission-queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Returns `self` with the given worker-thread count (minimum 1).
    pub fn workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers.max(1);
        self
    }

    /// Returns `self` with the given maximum batch size (minimum 1).
    pub fn max_batch(mut self, max_batch: usize) -> ServeConfig {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Returns `self` with the given per-frame point limit.
    pub fn max_points(mut self, max_points: usize) -> ServeConfig {
        self.max_points = max_points;
        self
    }

    /// Returns `self` with the given partition-cache capacity.
    pub fn cache_capacity(mut self, cache_capacity: usize) -> ServeConfig {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Returns `self` with the given batch thread budget (minimum 1).
    pub fn thread_budget(mut self, thread_budget: usize) -> ServeConfig {
        self.thread_budget = thread_budget.max(1);
        self
    }

    /// Returns `self` with the given concurrent-connection limit (minimum 1).
    pub fn max_connections(mut self, max_connections: usize) -> ServeConfig {
        self.max_connections = max_connections.max(1);
        self
    }

    /// Returns `self` with the given default request deadline (0 = none).
    pub fn deadline_ms(mut self, deadline_ms: u64) -> ServeConfig {
        self.deadline_ms = deadline_ms;
        self
    }

    /// Returns `self` with the given streaming first-paint depth
    /// (minimum 1 sample).
    pub fn stream_first_paint(mut self, samples: usize) -> ServeConfig {
        self.stream_first_paint = samples.max(1);
        self
    }

    /// Returns `self` with the given streaming refinement-chunk size
    /// (minimum 1 sample).
    pub fn stream_chunk(mut self, samples: usize) -> ServeConfig {
        self.stream_chunk = samples.max(1);
        self
    }

    /// Returns `self` with the given default refinement-credit grant
    /// (minimum 1 chunk).
    pub fn stream_credits(mut self, credits: usize) -> ServeConfig {
        self.stream_credits = credits.max(1);
        self
    }

    /// Returns `self` with the given fault-injection plan (chaos tests);
    /// [`FaultPlan::OFF`] restores fault-free serving.
    pub fn faults(mut self, faults: FaultPlan) -> ServeConfig {
        self.faults = faults;
        self
    }

    /// Returns `self` with the given brown-out controller tunables.
    pub fn brownout(mut self, brownout: BrownoutConfig) -> ServeConfig {
        self.brownout = brownout;
        self
    }

    /// Returns `self` with the given per-connection socket timeout in
    /// milliseconds (0 disables slow-peer timeouts).
    pub fn idle_timeout_ms(mut self, idle_timeout_ms: u64) -> ServeConfig {
        self.idle_timeout_ms = idle_timeout_ms;
        self
    }

    /// Largest request payload the TCP front-end accepts, in bytes (the
    /// fixed request-parameter block plus `max_points` xyz triplets plus
    /// the largest optional trailer, so a maximal frame still streams).
    pub fn max_payload_bytes(&self) -> usize {
        crate::protocol::REQUEST_FIXED_BYTES
            + self.max_points.saturating_mul(12)
            + crate::protocol::REQUEST_TRAILER_MAX_BYTES
    }
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 64,
            workers: fractalcloud_parallel::workers(),
            max_batch: 8,
            max_points: 1 << 20,
            cache_capacity: 32,
            thread_budget: fractalcloud_parallel::workers(),
            max_connections: 64,
            deadline_ms: 0,
            stream_first_paint: 512,
            stream_chunk: 4096,
            stream_credits: 4,
            faults: FaultPlan::from_env(),
            brownout: BrownoutConfig::default(),
            idle_timeout_ms: 30_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp_minimums() {
        let c = ServeConfig::default().workers(0).max_batch(0).thread_budget(0);
        assert_eq!(c.workers, 1);
        assert_eq!(c.max_batch, 1);
        assert_eq!(c.thread_budget, 1);
    }

    #[test]
    fn zero_capacity_queue_is_representable() {
        let c = ServeConfig::default().queue_capacity(0);
        assert_eq!(c.queue_capacity, 0);
    }

    #[test]
    fn payload_bound_tracks_max_points() {
        let c = ServeConfig::default().max_points(10);
        assert_eq!(
            c.max_payload_bytes(),
            crate::protocol::REQUEST_FIXED_BYTES + 120 + crate::protocol::REQUEST_TRAILER_MAX_BYTES
        );
    }

    #[test]
    fn stream_builders_clamp_minimums() {
        let c = ServeConfig::default().stream_first_paint(0).stream_chunk(0).stream_credits(0);
        assert_eq!(c.stream_first_paint, 1);
        assert_eq!(c.stream_chunk, 1);
        assert_eq!(c.stream_credits, 1);
    }
}
