//! Per-stage serving metrics: admission/shed counters, queue-depth gauges,
//! batch statistics, cache hit rates, and log-bucketed latency histograms.
//!
//! Everything is lock-free atomics so the hot path (admission, completion)
//! never contends with scrapes; [`Metrics::snapshot`] reads a consistent
//! *approximate* view (counters may advance between loads, which is the
//! usual contract for monitoring counters).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of log₂ microsecond buckets in a [`LatencyHistogram`]
/// (bucket 39 ≈ 2³⁸ µs ≈ 76 h — effectively "anything slower").
const BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram over microseconds.
///
/// Bucket `i` counts samples with `floor(log₂(µs)) == i` (bucket 0 holds
/// sub-microsecond and 1 µs samples). Quantiles are answered with the upper
/// bound of the bucket the quantile falls in, so `quantile_us` over-reports
/// by at most 2× — plenty for p50/p99 shed/latency dashboards, with zero
/// allocation and constant memory.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    total_us: AtomicU64,
    samples: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total_us: AtomicU64::new(0),
            samples: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - us.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 with no samples).
    pub fn mean_us(&self) -> u64 {
        self.total_us.load(Ordering::Relaxed).checked_div(self.samples()).unwrap_or(0)
    }

    /// Upper bound (µs) of the bucket containing quantile `q` in `[0, 1]`.
    ///
    /// An **empty** histogram returns 0 for every `q` — "no latency
    /// observed yet", deliberately distinct from every recordable sample
    /// (the smallest bucket's upper bound is 2), so dashboards can tell
    /// "no data" from "fast". Samples at or beyond bucket 39 saturate
    /// there and report its upper bound (2⁴⁰ µs).
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.samples();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }
}

/// All counters the engine and TCP front-end maintain.
#[derive(Debug)]
pub struct Metrics {
    /// Requests offered to the engine's `submit_*` entry points, plus wire
    /// INFER requests naming a model the server does not serve. A
    /// progressive-LOD stream over TCP is **one** request here (its first
    /// paint) however many chunks it refines to — and so one in `admitted`,
    /// `completed` and the latency / queue-wait histograms.
    pub submitted: AtomicU64,
    /// Requests admitted to the queue.
    pub admitted: AtomicU64,
    /// Requests shed: queue at capacity.
    pub shed_queue_full: AtomicU64,
    /// Requests shed: frame larger than `max_points`.
    pub shed_oversized: AtomicU64,
    /// Requests shed: engine shutting down.
    pub shed_shutdown: AtomicU64,
    /// Requests rejected before queueing: invalid parameters / empty frame
    /// / unknown model.
    pub rejected_invalid: AtomicU64,
    /// Requests completed (response delivered).
    pub completed: AtomicU64,
    /// Batches executed.
    pub batches: AtomicU64,
    /// Frames executed across all batches (`/ batches` = mean batch size).
    pub batched_frames: AtomicU64,
    /// Partition-cache hits.
    pub cache_hits: AtomicU64,
    /// Partition-cache misses.
    pub cache_misses: AtomicU64,
    /// Current queue depth (gauge).
    pub queue_depth: AtomicU64,
    /// High-water queue depth since start.
    pub peak_queue_depth: AtomicU64,
    /// TCP connections that disconnected mid-request or errored.
    pub net_disconnects: AtomicU64,
    /// TCP requests rejected as malformed (bad magic/opcode/size).
    pub net_malformed: AtomicU64,
    /// TCP connections refused at the concurrent-connection limit.
    pub net_conn_refused: AtomicU64,
    /// Requests shed because their deadline expired before execution
    /// (in the queue, at batch assembly, or at a pipeline stage seam).
    pub shed_deadline: AtomicU64,
    /// Requests resolved with the non-retryable internal-error status
    /// because their executor panicked (or an injected `err` fault fired).
    pub failed_internal: AtomicU64,
    /// Worker panics survived (each isolated to the batch it was running).
    pub worker_panics: AtomicU64,
    /// Replacement workers spawned by panic supervision.
    pub workers_respawned: AtomicU64,
    /// Worker threads currently alive (gauge).
    pub workers_alive: AtomicU64,
    /// Faults injected by the seeded fault layer (all points and kinds);
    /// stays 0 when `FRACTALCLOUD_FAULTS` is unset.
    pub faults_injected: AtomicU64,
    /// Milliseconds from `epoch` to the most recent published response
    /// (0 until the first response) — the liveness clock behind
    /// [`Engine::health`](crate::Engine::health).
    pub last_progress_ms: AtomicU64,
    /// When this metrics registry was created (the engine's start).
    epoch: Instant,
    /// Queue-bound sheds per priority class (indexed by
    /// [`Priority::index`](crate::Priority::index): High, Normal, Bulk) —
    /// counts both direct queue-full sheds and jobs displaced at the bound
    /// by a higher class.
    pub shed_by_class: [AtomicU64; 3],
    /// End-to-end latency (admission → response ready).
    pub latency: LatencyHistogram,
    /// End-to-end latency per priority class (same indexing as
    /// `shed_by_class`).
    pub latency_by_class: [LatencyHistogram; 3],
    /// Queue-wait latency (admission → batch start).
    pub queue_wait: LatencyHistogram,
    /// Queue-wait latency per priority class (same indexing as
    /// `shed_by_class`) — covers every work kind, so INFER traffic shows in
    /// the same percentiles as frames.
    pub queue_wait_by_class: [LatencyHistogram; 3],
    /// Progressive-LOD streams opened (`OP_STREAM` requests accepted).
    pub streams_opened: AtomicU64,
    /// Chunks *sliced* across all streams — incremented where the slice is
    /// taken: by the engine when a chunk job executes (a stream's first
    /// paint, every in-process chunk) and by the connection thread for each
    /// refinement it cuts from the held ordering. Never by the socket
    /// write, so a cancelled stream provably stops advancing this counter.
    pub stream_chunks_sent: AtomicU64,
    /// Streams ended early by an explicit `STREAM_CANCEL` frame.
    pub streams_cancelled: AtomicU64,
    /// Streams closed for any reason (completion, cancel, disconnect,
    /// shed). `streams_opened - streams_closed` is the live-stream gauge;
    /// a persistent gap means a hung stream.
    pub streams_closed: AtomicU64,
    /// MACs executed point-granular by delayed aggregation, summed over all
    /// inference served (from each forward pass's `OpCounters`).
    pub op_macs_moved: AtomicU64,
    /// MACs avoided versus eager aggregation, summed over all inference.
    pub op_macs_saved: AtomicU64,
    /// Bytes gathered into dense MLP inputs by eager aggregation, summed
    /// over all inference.
    pub op_gather_bytes: AtomicU64,
    /// Responses served degraded under brown-out, indexed
    /// `[class][level - 1]` (class per
    /// [`Priority::index`](crate::Priority::index); brown-out levels 1–3).
    /// High priority is never degraded, so its row provably stays zero.
    pub requests_degraded: [[AtomicU64; 3]; 3],
    /// `GOAWAY` statuses written to draining connections.
    pub goaway_sent: AtomicU64,
    /// Connections that closed after receiving at least one `GOAWAY`.
    pub connections_drained: AtomicU64,
    /// Client-side retries reported into this registry
    /// ([`Metrics::record_retries`]) — in-process harnesses fold their
    /// [`RetryPolicy`](crate::RetryPolicy) activity in here so one scrape
    /// shows both sides of a storm.
    pub retries_total: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            submitted: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_oversized: AtomicU64::new(0),
            shed_shutdown: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_frames: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            peak_queue_depth: AtomicU64::new(0),
            net_disconnects: AtomicU64::new(0),
            net_malformed: AtomicU64::new(0),
            net_conn_refused: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            failed_internal: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
            workers_alive: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            last_progress_ms: AtomicU64::new(0),
            epoch: Instant::now(),
            shed_by_class: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: LatencyHistogram::default(),
            latency_by_class: std::array::from_fn(|_| LatencyHistogram::default()),
            queue_wait: LatencyHistogram::default(),
            queue_wait_by_class: std::array::from_fn(|_| LatencyHistogram::default()),
            streams_opened: AtomicU64::new(0),
            stream_chunks_sent: AtomicU64::new(0),
            streams_cancelled: AtomicU64::new(0),
            streams_closed: AtomicU64::new(0),
            op_macs_moved: AtomicU64::new(0),
            op_macs_saved: AtomicU64::new(0),
            op_gather_bytes: AtomicU64::new(0),
            requests_degraded: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            goaway_sent: AtomicU64::new(0),
            connections_drained: AtomicU64::new(0),
            retries_total: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// Records a new queue depth, maintaining the high-water mark.
    pub fn set_queue_depth(&self, depth: usize) {
        let d = depth as u64;
        self.queue_depth.store(d, Ordering::Relaxed);
        self.peak_queue_depth.fetch_max(d, Ordering::Relaxed);
    }

    /// Stamps the liveness clock: "a response was just published".
    pub fn note_progress(&self) {
        let now_ms = self.epoch.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        self.last_progress_ms.fetch_max(now_ms, Ordering::Relaxed);
    }

    /// Milliseconds since the last published response (since the registry's
    /// creation when nothing has completed yet).
    pub fn progress_age_ms(&self) -> u64 {
        let now_ms = self.epoch.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        now_ms.saturating_sub(self.last_progress_ms.load(Ordering::Relaxed))
    }

    /// Milliseconds since this registry was created (the engine's start).
    pub fn uptime_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
    }

    /// Folds `n` client-side retries into `retries_total` — the hook an
    /// in-process harness uses to account its
    /// [`RetryPolicy`](crate::RetryPolicy) activity against the engine it
    /// was retrying.
    pub fn record_retries(&self, n: u64) {
        self.retries_total.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes an approximate point-in-time snapshot of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MetricsSnapshot {
            submitted: load(&self.submitted),
            admitted: load(&self.admitted),
            shed_queue_full: load(&self.shed_queue_full),
            shed_oversized: load(&self.shed_oversized),
            shed_shutdown: load(&self.shed_shutdown),
            rejected_invalid: load(&self.rejected_invalid),
            completed: load(&self.completed),
            batches: load(&self.batches),
            batched_frames: load(&self.batched_frames),
            cache_hits: load(&self.cache_hits),
            cache_misses: load(&self.cache_misses),
            queue_depth: load(&self.queue_depth),
            peak_queue_depth: load(&self.peak_queue_depth),
            net_disconnects: load(&self.net_disconnects),
            net_malformed: load(&self.net_malformed),
            net_conn_refused: load(&self.net_conn_refused),
            shed_deadline: load(&self.shed_deadline),
            failed_internal: load(&self.failed_internal),
            worker_panics: load(&self.worker_panics),
            workers_respawned: load(&self.workers_respawned),
            workers_alive: load(&self.workers_alive),
            faults_injected: load(&self.faults_injected),
            shed_by_class: std::array::from_fn(|i| load(&self.shed_by_class[i])),
            latency_p99_by_class_us: std::array::from_fn(|i| {
                self.latency_by_class[i].quantile_us(0.99)
            }),
            completed_by_class: std::array::from_fn(|i| self.latency_by_class[i].samples()),
            latency_p50_us: self.latency.quantile_us(0.50),
            latency_p99_us: self.latency.quantile_us(0.99),
            latency_mean_us: self.latency.mean_us(),
            queue_wait_p99_us: self.queue_wait.quantile_us(0.99),
            queue_wait_p99_by_class_us: std::array::from_fn(|i| {
                self.queue_wait_by_class[i].quantile_us(0.99)
            }),
            streams_opened: load(&self.streams_opened),
            stream_chunks_sent: load(&self.stream_chunks_sent),
            streams_cancelled: load(&self.streams_cancelled),
            streams_closed: load(&self.streams_closed),
            op_macs_moved: load(&self.op_macs_moved),
            op_macs_saved: load(&self.op_macs_saved),
            op_gather_bytes: load(&self.op_gather_bytes),
            requests_degraded: std::array::from_fn(|c| {
                std::array::from_fn(|l| load(&self.requests_degraded[c][l]))
            }),
            goaway_sent: load(&self.goaway_sent),
            connections_drained: load(&self.connections_drained),
            retries_total: load(&self.retries_total),
        }
    }
}

/// A plain-data copy of [`Metrics`] for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Requests offered (a TCP stream counts once, as its first paint).
    pub submitted: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Shed: queue at capacity.
    pub shed_queue_full: u64,
    /// Shed: oversized frame.
    pub shed_oversized: u64,
    /// Shed: shutting down.
    pub shed_shutdown: u64,
    /// Rejected: invalid parameters / empty frame / unknown model.
    pub rejected_invalid: u64,
    /// Responses delivered.
    pub completed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Frames across all batches.
    pub batched_frames: u64,
    /// Partition-cache hits.
    pub cache_hits: u64,
    /// Partition-cache misses.
    pub cache_misses: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
    /// High-water queue depth.
    pub peak_queue_depth: u64,
    /// TCP disconnects/errors.
    pub net_disconnects: u64,
    /// Malformed TCP requests.
    pub net_malformed: u64,
    /// TCP connections refused at the connection limit.
    pub net_conn_refused: u64,
    /// Shed: deadline expired before execution.
    pub shed_deadline: u64,
    /// Resolved with the internal-error status (executor panicked).
    pub failed_internal: u64,
    /// Worker panics survived.
    pub worker_panics: u64,
    /// Replacement workers spawned by supervision.
    pub workers_respawned: u64,
    /// Worker threads alive at snapshot time.
    pub workers_alive: u64,
    /// Faults injected by the seeded fault layer.
    pub faults_injected: u64,
    /// Queue-bound sheds per priority class (High, Normal, Bulk).
    pub shed_by_class: [u64; 3],
    /// p99 end-to-end latency per priority class (µs, bucket upper bound).
    pub latency_p99_by_class_us: [u64; 3],
    /// Responses delivered per priority class.
    pub completed_by_class: [u64; 3],
    /// p50 end-to-end latency (µs, bucket upper bound).
    pub latency_p50_us: u64,
    /// p99 end-to-end latency (µs, bucket upper bound).
    pub latency_p99_us: u64,
    /// Mean end-to-end latency (µs, exact).
    pub latency_mean_us: u64,
    /// p99 queue wait (µs, bucket upper bound).
    pub queue_wait_p99_us: u64,
    /// p99 queue wait per priority class (µs, bucket upper bound).
    pub queue_wait_p99_by_class_us: [u64; 3],
    /// Progressive-LOD streams opened.
    pub streams_opened: u64,
    /// Chunks sliced across all streams, by the engine or a connection.
    pub stream_chunks_sent: u64,
    /// Streams ended early by explicit cancel.
    pub streams_cancelled: u64,
    /// Streams closed for any reason (`opened - closed` = live gauge).
    pub streams_closed: u64,
    /// MACs executed point-granular by delayed aggregation (all inference).
    pub op_macs_moved: u64,
    /// MACs avoided versus eager aggregation (all inference).
    pub op_macs_saved: u64,
    /// Bytes gathered into dense MLP inputs by eager aggregation.
    pub op_gather_bytes: u64,
    /// Responses served degraded under brown-out, `[class][level - 1]`.
    pub requests_degraded: [[u64; 3]; 3],
    /// `GOAWAY` statuses written to draining connections.
    pub goaway_sent: u64,
    /// Connections closed after receiving at least one `GOAWAY`.
    pub connections_drained: u64,
    /// Client-side retries folded into this registry.
    pub retries_total: u64,
}

impl MetricsSnapshot {
    /// Total shed requests across every reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_oversized + self.shed_shutdown + self.shed_deadline
    }

    /// Total responses served degraded, across every class and level.
    pub fn degraded_total(&self) -> u64 {
        self.requests_degraded.iter().flatten().sum()
    }

    /// Mean frames per executed batch (1.0 when nothing ran).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            1.0
        } else {
            self.batched_frames as f64 / self.batches as f64
        }
    }
}

/// Priority-class label values, [`Priority::index`](crate::Priority::index)
/// order.
const CLASS_NAMES: [&str; 3] = ["high", "normal", "bulk"];

/// Renders a snapshot + health view (plus the fault layer's per-point
/// injection counts) as Prometheus-style text — the body the `METRICS` wire
/// opcode and [`Engine::metrics_text`](crate::Engine::metrics_text) serve.
/// Every line matches the grammar [`fractalcloud_obs::expo`] documents.
pub(crate) fn render_prometheus(
    s: &MetricsSnapshot,
    h: &crate::EngineHealth,
    fault_points: &[(&'static str, u64)],
) -> String {
    use fractalcloud_obs::expo::line;
    let mut out = String::with_capacity(2048);
    let u = |out: &mut String, name: &str, v: u64| line(out, name, &[], v as f64);

    u(&mut out, "fractalcloud_uptime_ms", h.uptime_ms);
    line(&mut out, "fractalcloud_live", &[], f64::from(u8::from(h.live)));
    for (outcome, v) in [
        ("submitted", s.submitted),
        ("admitted", s.admitted),
        ("completed", s.completed),
        ("rejected_invalid", s.rejected_invalid),
        ("failed_internal", s.failed_internal),
    ] {
        line(&mut out, "fractalcloud_requests_total", &[("outcome", outcome)], v as f64);
    }
    for (reason, v) in [
        ("queue_full", s.shed_queue_full),
        ("oversized", s.shed_oversized),
        ("shutdown", s.shed_shutdown),
        ("deadline", s.shed_deadline),
    ] {
        line(&mut out, "fractalcloud_shed_total", &[("reason", reason)], v as f64);
    }
    for (i, class) in CLASS_NAMES.iter().enumerate() {
        line(
            &mut out,
            "fractalcloud_shed_by_class_total",
            &[("class", class)],
            s.shed_by_class[i] as f64,
        );
        line(
            &mut out,
            "fractalcloud_completed_by_class_total",
            &[("class", class)],
            s.completed_by_class[i] as f64,
        );
        line(
            &mut out,
            "fractalcloud_latency_p99_us",
            &[("class", class)],
            s.latency_p99_by_class_us[i] as f64,
        );
        line(
            &mut out,
            "fractalcloud_queue_wait_p99_us",
            &[("class", class)],
            s.queue_wait_p99_by_class_us[i] as f64,
        );
        line(&mut out, "fractalcloud_queued", &[("class", class)], h.queued_by_class[i] as f64);
    }
    for (stat, v) in
        [("p50", s.latency_p50_us), ("p99", s.latency_p99_us), ("mean", s.latency_mean_us)]
    {
        line(&mut out, "fractalcloud_latency_us", &[("stat", stat)], v as f64);
    }
    u(&mut out, "fractalcloud_queue_wait_p99_us_all", s.queue_wait_p99_us);
    u(&mut out, "fractalcloud_batches_total", s.batches);
    u(&mut out, "fractalcloud_batched_frames_total", s.batched_frames);
    line(&mut out, "fractalcloud_mean_batch", &[], s.mean_batch());
    for (kind, v) in [("hit", s.cache_hits), ("miss", s.cache_misses)] {
        line(&mut out, "fractalcloud_partition_cache_total", &[("kind", kind)], v as f64);
    }
    u(&mut out, "fractalcloud_queue_depth", s.queue_depth);
    u(&mut out, "fractalcloud_queue_depth_peak", s.peak_queue_depth);
    for (event, v) in [
        ("disconnects", s.net_disconnects),
        ("malformed", s.net_malformed),
        ("conn_refused", s.net_conn_refused),
    ] {
        line(&mut out, "fractalcloud_net_total", &[("event", event)], v as f64);
    }
    for (state, v) in [("alive", h.workers_alive), ("configured", h.workers_configured)] {
        line(&mut out, "fractalcloud_workers", &[("state", state)], v as f64);
    }
    u(&mut out, "fractalcloud_worker_panics_total", s.worker_panics);
    u(&mut out, "fractalcloud_workers_respawned_total", s.workers_respawned);
    u(&mut out, "fractalcloud_last_progress_age_ms", h.last_progress_age_ms);
    u(&mut out, "fractalcloud_faults_injected_total", s.faults_injected);
    for (point, v) in fault_points {
        line(&mut out, "fractalcloud_faults_injected_at_total", &[("point", point)], *v as f64);
    }
    // `chunks_sent` counts chunks sliced (engine jobs and connection-side
    // refinements alike); `requests_total` above counts one job per stream.
    for (event, v) in [
        ("opened", s.streams_opened),
        ("chunks_sent", s.stream_chunks_sent),
        ("cancelled", s.streams_cancelled),
        ("closed", s.streams_closed),
    ] {
        line(&mut out, "fractalcloud_streams_total", &[("event", event)], v as f64);
    }
    u(&mut out, "fractalcloud_streams_open", h.streams_open);
    line(&mut out, "fractalcloud_overload_level", &[], f64::from(h.overload_level));
    line(&mut out, "fractalcloud_draining", &[], f64::from(u8::from(h.draining)));
    for (c, class) in CLASS_NAMES.iter().enumerate() {
        for l in 0..3 {
            let level = ["1", "2", "3"][l];
            line(
                &mut out,
                "fractalcloud_requests_degraded_total",
                &[("class", class), ("level", level)],
                s.requests_degraded[c][l] as f64,
            );
        }
    }
    u(&mut out, "fractalcloud_goaway_sent_total", s.goaway_sent);
    u(&mut out, "fractalcloud_connections_drained_total", s.connections_drained);
    u(&mut out, "fractalcloud_retries_total", s.retries_total);
    for (kind, v) in [("moved", s.op_macs_moved), ("saved", s.op_macs_saved)] {
        line(&mut out, "fractalcloud_op_macs_total", &[("kind", kind)], v as f64);
    }
    u(&mut out, "fractalcloud_op_gather_bytes_total", s.op_gather_bytes);
    line(&mut out, "fractalcloud_trace_enabled", &[], f64::from(u8::from(h.trace_enabled)));
    u(&mut out, "fractalcloud_trace_capacity_events", h.trace_capacity);
    u(&mut out, "fractalcloud_trace_dropped_total", h.trace_dropped);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for us in [1u64, 10, 100, 1000, 10_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.samples(), 5);
        // p50 sample is 100 µs: bucket 6 (64..128) upper bound is 128.
        assert_eq!(h.quantile_us(0.5), 128);
        // p99 = largest sample's bucket (8192..16384 → 16384).
        assert_eq!(h.quantile_us(0.99), 16_384);
        assert!(h.quantile_us(0.0) >= 2);
        assert_eq!(h.mean_us(), (1 + 10 + 100 + 1000 + 10_000) / 5);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        // The documented empty-case contract: 0 for every quantile, which
        // no recorded sample can produce (minimum bucket bound is 2).
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 0);
        }
        assert_eq!(h.mean_us(), 0);
        assert_eq!(h.samples(), 0);
    }

    #[test]
    fn absurd_durations_saturate_into_the_last_bucket() {
        let h = LatencyHistogram::default();
        // ≥ 2³⁹ µs (≈ 6.4 days) lands in bucket 39, the catch-all; so does
        // anything larger, including a duration whose µs exceed u64.
        h.record(Duration::from_micros(1 << 39));
        h.record(Duration::from_secs(u64::MAX / 1_000_000));
        h.record(Duration::MAX);
        assert_eq!(h.samples(), 3);
        // All three saturate to bucket 39's upper bound (2⁴⁰ µs), and the
        // quantile walk terminates inside the array rather than falling off
        // the end.
        assert_eq!(h.quantile_us(0.5), 1 << 40);
        assert_eq!(h.quantile_us(1.0), 1 << 40);
        // A fast sample alongside them still resolves to its own bucket.
        h.record(Duration::from_micros(3));
        assert_eq!(h.quantile_us(0.0), 4);
    }

    #[test]
    fn queue_depth_tracks_high_water() {
        let m = Metrics::default();
        m.set_queue_depth(3);
        m.set_queue_depth(9);
        m.set_queue_depth(2);
        let s = m.snapshot();
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.peak_queue_depth, 9);
    }

    #[test]
    fn snapshot_derives_batch_and_shed_totals() {
        let m = Metrics::default();
        m.batches.store(4, Ordering::Relaxed);
        m.batched_frames.store(10, Ordering::Relaxed);
        m.shed_queue_full.store(2, Ordering::Relaxed);
        m.shed_oversized.store(1, Ordering::Relaxed);
        m.shed_deadline.store(5, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.mean_batch(), 2.5);
        assert_eq!(s.shed_total(), 8);
    }

    #[test]
    fn every_exposition_line_parses_as_name_labels_value() {
        let snapshot = MetricsSnapshot {
            submitted: 12,
            batches: 4,
            batched_frames: 10,
            op_macs_saved: 123_456,
            streams_opened: 5,
            stream_chunks_sent: 17,
            streams_cancelled: 1,
            streams_closed: 4,
            requests_degraded: [[0; 3], [9, 0, 2], [0; 3]],
            goaway_sent: 3,
            connections_drained: 2,
            retries_total: 6,
            ..Default::default()
        };
        let health = crate::EngineHealth {
            live: true,
            draining: true,
            overload_level: 2,
            workers_alive: 2,
            workers_configured: 2,
            queued_by_class: [0, 1, 2],
            last_progress_age_ms: 7,
            worker_panics: 0,
            workers_respawned: 0,
            uptime_ms: 1234,
            trace_enabled: true,
            trace_capacity: 16384,
            trace_dropped: 0,
            streams_open: 1,
        };
        let text = render_prometheus(&snapshot, &health, &[("worker", 3)]);
        let mut lines = 0;
        for l in text.lines() {
            let parsed = fractalcloud_obs::expo::parse_line(l)
                .unwrap_or_else(|| panic!("exposition line failed to parse: {l:?}"));
            assert!(parsed.name.starts_with("fractalcloud_"), "foreign prefix: {l:?}");
            lines += 1;
        }
        assert!(lines >= 40, "expected a full exposition, got {lines} lines");
        assert!(text.contains("fractalcloud_requests_total{outcome=\"submitted\"} 12\n"));
        assert!(text.contains("fractalcloud_mean_batch 2.5\n"));
        assert!(text.contains("fractalcloud_op_macs_total{kind=\"saved\"} 123456\n"));
        assert!(text.contains("fractalcloud_streams_total{event=\"opened\"} 5\n"));
        assert!(text.contains("fractalcloud_streams_total{event=\"chunks_sent\"} 17\n"));
        assert!(text.contains("fractalcloud_streams_total{event=\"cancelled\"} 1\n"));
        assert!(text.contains("fractalcloud_streams_total{event=\"closed\"} 4\n"));
        assert!(text.contains("fractalcloud_streams_open 1\n"));
        assert!(text.contains("fractalcloud_faults_injected_at_total{point=\"worker\"} 3\n"));
        assert!(text.contains("fractalcloud_trace_capacity_events 16384\n"));
        assert!(text.contains("fractalcloud_overload_level 2\n"));
        assert!(text.contains("fractalcloud_draining 1\n"));
        assert!(
            text.contains("fractalcloud_requests_degraded_total{class=\"normal\",level=\"1\"} 9\n")
        );
        assert!(
            text.contains("fractalcloud_requests_degraded_total{class=\"normal\",level=\"3\"} 2\n")
        );
        assert!(text.contains("fractalcloud_goaway_sent_total 3\n"));
        assert!(text.contains("fractalcloud_connections_drained_total 2\n"));
        assert!(text.contains("fractalcloud_retries_total 6\n"));
        assert_eq!(snapshot.degraded_total(), 11);
    }

    #[test]
    fn progress_clock_is_monotonic_and_bounded() {
        let m = Metrics::default();
        m.note_progress();
        let a = m.last_progress_ms.load(Ordering::Relaxed);
        m.note_progress();
        let b = m.last_progress_ms.load(Ordering::Relaxed);
        assert!(b >= a, "the liveness stamp never moves backwards");
        assert!(m.progress_age_ms() < 60_000, "age is measured from the stamp, not from zero");
    }
}
