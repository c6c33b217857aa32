//! # fractalcloud-obs: flight-recorder tracing for the serving stack
//!
//! A crash-box style **flight recorder**: every thread that records spans
//! owns a lock-free ring buffer of fixed-size span events. Recording on the
//! hot path is a handful of relaxed atomic stores into pre-allocated slots —
//! no allocation, no locks, no syscalls. When tracing is disabled (the
//! default) every instrumentation point reduces to a single relaxed load and
//! branch, so the serving hot path stays allocation-free and within noise of
//! an uninstrumented build.
//!
//! * `FRACTALCLOUD_TRACE=off|on[:capacity]` — lazily parsed on first probe;
//!   [`enable`] / [`disable`] flip the recorder programmatically.
//! * Spans carry a **request id** and **priority class**, so a fused batch
//!   fanned out across worker lanes reassembles into one per-request
//!   timeline ([`spans_for`]).
//! * [`drain`] empties every ring (accounting events lost to wraparound) and
//!   [`chrome::trace_json`] renders the result as Chrome trace-event JSON
//!   for `chrome://tracing` / Perfetto.
//! * [`expo`] holds the Prometheus-style text exposition line builder and a
//!   parser used by format tests.
//!
//! Concurrent drains are serialized on the ring registry lock; a drain that
//! races a still-recording thread may observe a torn slot for an event being
//! overwritten at that instant — acceptable for a diagnostics recorder, and
//! impossible once the workload is quiescent (how the tests and the
//! `TRACE_DUMP` endpoint use it).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chrome;
pub mod expo;

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{fence, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Ring capacity (events per thread) when `FRACTALCLOUD_TRACE=on` does not
/// name one.
pub const DEFAULT_CAPACITY: usize = 16_384;

/// Sentinel priority class for spans recorded outside any request context.
pub const NO_CLASS: u8 = 0xFF;

/// What a span measures. The discriminant is packed into the ring slot, so
/// variants must stay dense from zero (see [`SpanKind::ALL`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Admission to start-of-execution wait in the priority queue.
    QueueWait = 0,
    /// A request was fused into a batch; `aux` = batch size.
    BatchFuse = 1,
    /// Fractal partition construction for a frame.
    PartitionBuild = 2,
    /// Partition served from the LRU cache (instantaneous).
    PartitionCacheHit = 3,
    /// FPS sampling; `aux` = block index (`u32::MAX` = whole frame, or one
    /// whole level of an inference stage past the first).
    BlockSample = 4,
    /// Ball-query grouping; `aux` as for [`SpanKind::BlockSample`].
    BlockGroup = 5,
    /// One set-abstraction stage's shared MLP; `aux` = stage index.
    StageMlp = 6,
    /// Segmented-max aggregation after a stage MLP; `aux` = stage index.
    Aggregate = 7,
    /// A fault-injection point fired; `aux` = `FaultPoint` index.
    FaultFire = 8,
    /// Wire-format response encoding.
    WireEncode = 9,
    /// Response write to the socket.
    WireWrite = 10,
    /// One streaming refinement chunk sliced and emitted; `aux` = chunk
    /// end depth (`hi`, clamped to `u32`).
    ChunkEmit = 11,
}

impl SpanKind {
    /// Every kind, indexable by discriminant.
    pub const ALL: [SpanKind; 12] = [
        SpanKind::QueueWait,
        SpanKind::BatchFuse,
        SpanKind::PartitionBuild,
        SpanKind::PartitionCacheHit,
        SpanKind::BlockSample,
        SpanKind::BlockGroup,
        SpanKind::StageMlp,
        SpanKind::Aggregate,
        SpanKind::FaultFire,
        SpanKind::WireEncode,
        SpanKind::WireWrite,
        SpanKind::ChunkEmit,
    ];

    /// Stable snake_case name (used in trace dumps and stage breakdowns).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue_wait",
            SpanKind::BatchFuse => "batch_fuse",
            SpanKind::PartitionBuild => "partition_build",
            SpanKind::PartitionCacheHit => "partition_cache_hit",
            SpanKind::BlockSample => "block_sample",
            SpanKind::BlockGroup => "block_group",
            SpanKind::StageMlp => "stage_mlp",
            SpanKind::Aggregate => "aggregate",
            SpanKind::FaultFire => "fault_fire",
            SpanKind::WireEncode => "wire_encode",
            SpanKind::WireWrite => "wire_write",
            SpanKind::ChunkEmit => "chunk_emit",
        }
    }

    fn from_code(code: u8) -> Option<SpanKind> {
        SpanKind::ALL.get(code as usize).copied()
    }
}

/// One recorded span, as read back out of a ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Request id minted at admission ([`next_request_id`]); 0 = no request.
    pub request_id: u64,
    /// Priority class index at record time ([`NO_CLASS`] outside a request).
    pub class: u8,
    /// What was measured.
    pub kind: SpanKind,
    /// Kind-specific payload (block index, stage index, batch size, ...).
    pub aux: u32,
    /// Start, microseconds since the recorder epoch (first enablement).
    pub start_us: u64,
    /// Duration in microseconds (0 for instantaneous events).
    pub dur_us: u64,
    /// Id of the recording thread's ring (Chrome trace `tid`); unique for
    /// the life of the process.
    pub thread: u64,
}

// One ring slot: four atomics so the recorder needs no unsafe and drains can
// tolerate racing writers. `meta` packs kind | class << 8 | aux << 32.
struct Slot {
    request_id: AtomicU64,
    start_us: AtomicU64,
    dur_us: AtomicU64,
    meta: AtomicU64,
}

struct Ring {
    id: u64,
    slots: Box<[Slot]>,
    /// Total events ever recorded on this ring (monotonic; single writer).
    written: AtomicU64,
    /// Drain watermark (only advanced under the registry lock).
    consumed: AtomicU64,
    /// Events lost to wraparound, folded in at drain time.
    dropped: AtomicU64,
}

impl Ring {
    fn new(id: u64, capacity: usize) -> Ring {
        let slots = (0..capacity)
            .map(|_| Slot {
                request_id: AtomicU64::new(0),
                start_us: AtomicU64::new(0),
                dur_us: AtomicU64::new(0),
                meta: AtomicU64::new(u64::MAX),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            id,
            slots,
            written: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    // Hot path. Only ever called from the owning thread, so plain
    // load/store on `written` is race-free; Release publishes the slot
    // contents to drains.
    fn push(
        &self,
        request_id: u64,
        class: u8,
        kind: SpanKind,
        aux: u32,
        start_us: u64,
        dur_us: u64,
    ) {
        let seq = self.written.load(Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        slot.request_id.store(request_id, Ordering::Relaxed);
        slot.start_us.store(start_us, Ordering::Relaxed);
        slot.dur_us.store(dur_us, Ordering::Relaxed);
        slot.meta.store(kind as u64 | (class as u64) << 8 | (aux as u64) << 32, Ordering::Relaxed);
        self.written.store(seq + 1, Ordering::Release);
    }

    fn read_range(&self) -> (u64, u64) {
        let written = self.written.load(Ordering::Acquire);
        let consumed = self.consumed.load(Ordering::Relaxed);
        let available = written - consumed;
        (written - available.min(self.slots.len() as u64), written)
    }

    fn read_slot(&self, seq: u64) -> Option<SpanEvent> {
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let meta = slot.meta.load(Ordering::Relaxed);
        let kind = SpanKind::from_code((meta & 0xFF) as u8)?;
        Some(SpanEvent {
            request_id: slot.request_id.load(Ordering::Relaxed),
            class: (meta >> 8 & 0xFF) as u8,
            kind,
            aux: (meta >> 32) as u32,
            start_us: slot.start_us.load(Ordering::Relaxed),
            dur_us: slot.dur_us.load(Ordering::Relaxed),
            thread: self.id,
        })
    }

    fn drain_into(&self, out: &mut Vec<SpanEvent>) {
        let written = self.written.load(Ordering::Acquire);
        let consumed = self.consumed.load(Ordering::Relaxed);
        let lost = (written - consumed).saturating_sub(self.slots.len() as u64);
        if lost > 0 {
            self.dropped.fetch_add(lost, Ordering::Relaxed);
        }
        let (start, end) = self.read_range();
        for seq in start..end {
            if let Some(event) = self.read_slot(seq) {
                out.push(event);
            }
        }
        self.consumed.store(written, Ordering::Relaxed);
    }

    fn pending_lost(&self) -> u64 {
        let written = self.written.load(Ordering::Acquire);
        let consumed = self.consumed.load(Ordering::Relaxed);
        (written - consumed).saturating_sub(self.slots.len() as u64)
    }
}

/// Every ring a thread has registered and not yet retired. A ring is shared
/// by its recording thread (the `RING` thread-local) and this registry; the
/// thread-local lets go at thread exit, and the next [`drain`] retires the
/// ring — so memory follows the threads alive now, not every thread that
/// ever recorded a span.
#[derive(Default)]
struct Registry {
    rings: Vec<Arc<Ring>>,
    /// Next ring id; monotonic, so a retired ring's id is never reissued.
    next_id: u64,
    /// `dropped` counts carried over from retired rings.
    retired_dropped: u64,
}

struct State {
    capacity: usize,
    epoch: Instant,
    registry: Mutex<Registry>,
}

impl State {
    fn new(capacity: usize) -> State {
        State {
            capacity: capacity.max(16),
            epoch: Instant::now(),
            registry: Mutex::new(Registry::default()),
        }
    }

    fn register(&self) -> Arc<Ring> {
        let mut registry = self.registry.lock().unwrap();
        let ring = Arc::new(Ring::new(registry.next_id, self.capacity));
        registry.next_id += 1;
        registry.rings.push(Arc::clone(&ring));
        ring
    }
}

const FLAG_UNINIT: u8 = 0;
const FLAG_OFF: u8 = 1;
const FLAG_ON: u8 = 2;

static FLAG: AtomicU8 = AtomicU8::new(FLAG_UNINIT);
static STATE: OnceLock<State> = OnceLock::new();
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
    static CTX: Cell<(u64, u8)> = const { Cell::new((0, NO_CLASS)) };
}

/// Is the flight recorder on? A single relaxed load + branch in steady
/// state; the first call parses `FRACTALCLOUD_TRACE`.
#[inline]
pub fn enabled() -> bool {
    match FLAG.load(Ordering::Relaxed) {
        FLAG_OFF => false,
        FLAG_ON => true,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let spec = std::env::var("FRACTALCLOUD_TRACE").unwrap_or_default();
    let spec = spec.trim();
    let on = match spec.split_once(':') {
        Some((mode, cap)) => {
            let on = matches!(mode, "on" | "1" | "true");
            if on {
                let capacity = cap.parse().unwrap_or(DEFAULT_CAPACITY);
                STATE.get_or_init(|| State::new(capacity));
            }
            on
        }
        None => matches!(spec, "on" | "1" | "true"),
    };
    if on {
        enable(DEFAULT_CAPACITY);
    } else {
        FLAG.store(FLAG_OFF, Ordering::Relaxed);
    }
    on
}

/// Turn the recorder on programmatically. `capacity` (events per thread)
/// only takes effect the first time the recorder state is created; later
/// calls just flip the switch back on.
pub fn enable(capacity: usize) {
    STATE.get_or_init(|| State::new(capacity));
    FLAG.store(FLAG_ON, Ordering::Relaxed);
}

/// Turn the recorder off. Rings (and any undrained events) are retained.
pub fn disable() {
    FLAG.store(FLAG_OFF, Ordering::Relaxed);
}

/// Mint a process-unique request id (monotonic from 1; 0 means "none").
pub fn next_request_id() -> u64 {
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

/// Read the calling thread's `(request_id, class)` tracing context.
pub fn current_context() -> (u64, u8) {
    CTX.with(|c| c.get())
}

/// Restores the previous thread-local tracing context on drop.
#[must_use = "dropping the guard immediately restores the previous context"]
pub struct ContextGuard {
    prev: (u64, u8),
}

/// Set the calling thread's tracing context for the span sites below the
/// current frame (worker lanes set this per work item so fan-out spans
/// carry the originating request).
pub fn scoped_context(request_id: u64, class: u8) -> ContextGuard {
    let prev = CTX.with(|c| c.replace((request_id, class)));
    ContextGuard { prev }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// An in-flight span. Records on [`Span::done`] or drop; when tracing is
/// off, creation is a branch and `Option::None` — no clock read.
#[must_use = "a span measures until it is dropped or `done()`"]
pub struct Span {
    kind: SpanKind,
    aux: u32,
    start: Option<Instant>,
}

/// Start a span of `kind` with kind-specific payload `aux`, attributed to
/// the current thread context.
#[inline]
pub fn span(kind: SpanKind, aux: u32) -> Span {
    Span { kind, aux, start: if enabled() { Some(Instant::now()) } else { None } }
}

impl Span {
    /// Finish the span now (otherwise it finishes when dropped).
    pub fn done(self) {}

    fn finish(&mut self) {
        if let Some(start) = self.start.take() {
            let (request_id, class) = current_context();
            record_span_at(self.kind, request_id, class, start, Instant::now(), self.aux);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Record an instantaneous event attributed to the current thread context.
#[inline]
pub fn event(kind: SpanKind, aux: u32) {
    if !enabled() {
        return;
    }
    let now = Instant::now();
    let (request_id, class) = current_context();
    record_span_at(kind, request_id, class, now, now, aux);
}

/// Record a span with explicit attribution and endpoints — for callers that
/// hold both timestamps already (e.g. queue wait: admission → dequeue).
pub fn record_span_at(
    kind: SpanKind,
    request_id: u64,
    class: u8,
    start: Instant,
    end: Instant,
    aux: u32,
) {
    if !enabled() {
        return;
    }
    let state = STATE.get_or_init(|| State::new(DEFAULT_CAPACITY));
    let start_us = start.checked_duration_since(state.epoch).map_or(0, |d| d.as_micros() as u64);
    let dur_us = end.checked_duration_since(start).map_or(0, |d| d.as_micros() as u64);
    RING.with(|cell| {
        cell.get_or_init(|| state.register()).push(request_id, class, kind, aux, start_us, dur_us);
    });
}

/// Drain every thread's ring: returns all undrained events sorted by start
/// time and advances the consumed watermark (folding wraparound losses into
/// [`status`]'s `dropped`). Rings whose thread has exited are retired once
/// drained.
pub fn drain() -> Vec<SpanEvent> {
    let Some(state) = STATE.get() else {
        return Vec::new();
    };
    let mut registry = state.registry.lock().unwrap();
    let Registry { rings, retired_dropped, .. } = &mut *registry;
    let mut out = Vec::new();
    rings.retain(|ring| {
        // A count of one means the registry is the only owner left: the
        // thread-local handle was released at thread exit, so nothing can
        // push to this ring again. (A live thread's handle was cloned under
        // this lock in `register`, so its ring never reads as one.) Ask
        // before draining, so a thread that exits mid-drain keeps its ring
        // for the next one; the fence pairs with the release decrement of
        // that handle's drop, making an exited thread's last pushes visible.
        let live = Arc::strong_count(ring) > 1;
        fence(Ordering::Acquire);
        ring.drain_into(&mut out);
        if !live {
            *retired_dropped += ring.dropped.load(Ordering::Relaxed);
        }
        live
    });
    out.sort_by_key(|e| (e.start_us, e.request_id, e.thread));
    out
}

/// Non-consuming scan: every retained event for `request_id`, sorted by
/// start time. Used by the slow-request log so a diagnostic print does not
/// steal events from a later `TRACE_DUMP`.
pub fn spans_for(request_id: u64) -> Vec<SpanEvent> {
    let Some(state) = STATE.get() else {
        return Vec::new();
    };
    let registry = state.registry.lock().unwrap();
    let mut out = Vec::new();
    for ring in registry.rings.iter() {
        let (start, end) = ring.read_range();
        for seq in start..end {
            if let Some(event) = ring.read_slot(seq) {
                if event.request_id == request_id {
                    out.push(event);
                }
            }
        }
    }
    out.sort_by_key(|e| (e.start_us, e.thread));
    out
}

/// Recorder health, surfaced through `Engine::health()` / FCS1 HEALTH.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStatus {
    /// Is the recorder currently on?
    pub enabled: bool,
    /// Per-thread ring capacity in events (0 = recorder never initialized).
    pub capacity: u64,
    /// Events lost to ring wraparound (drained + still-pending losses).
    pub dropped: u64,
}

/// Current recorder status (see [`TraceStatus`]).
pub fn status() -> TraceStatus {
    let enabled = enabled();
    let Some(state) = STATE.get() else {
        return TraceStatus { enabled, capacity: 0, dropped: 0 };
    };
    let registry = state.registry.lock().unwrap();
    let mut dropped = registry.retired_dropped;
    for ring in registry.rings.iter() {
        dropped += ring.dropped.load(Ordering::Relaxed) + ring.pending_lost();
    }
    TraceStatus { enabled, capacity: state.capacity as u64, dropped }
}

/// `FRACTALCLOUD_SLOW_MS` threshold, parsed once. `None` disables the
/// slow-request log.
pub fn slow_threshold_ms() -> Option<u64> {
    static SLOW: OnceLock<Option<u64>> = OnceLock::new();
    *SLOW.get_or_init(|| {
        std::env::var("FRACTALCLOUD_SLOW_MS").ok().and_then(|v| v.trim().parse().ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The recorder is process-global; serialize tests that enable/drain it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn ring_wraparound_keeps_newest_and_counts_drops() {
        let _guard = lock();
        enable(64);
        drain();
        let capacity = STATE.get().unwrap().capacity as u64;
        let req = next_request_id();
        let total = capacity + 37;
        let t = Instant::now();
        for i in 0..total {
            record_span_at(SpanKind::BlockSample, req, 1, t, t, i as u32);
        }
        let before = status().dropped;
        let events: Vec<_> = drain().into_iter().filter(|e| e.request_id == req).collect();
        // Only this thread's ring wrapped; the newest `capacity` survive.
        assert_eq!(events.len(), capacity as usize);
        let mut auxes: Vec<u64> = events.iter().map(|e| e.aux as u64).collect();
        auxes.sort_unstable();
        assert_eq!(auxes.first(), Some(&(total - capacity)));
        assert_eq!(auxes.last(), Some(&(total - 1)));
        assert!(status().dropped >= before.max(37));
    }

    #[test]
    fn cross_thread_spans_reassemble_by_request_id() {
        let _guard = lock();
        enable(64);
        drain();
        let req = next_request_id();
        let other = next_request_id();
        let threads: Vec<_> = (0..4)
            .map(|lane| {
                std::thread::spawn(move || {
                    let _ctx = scoped_context(req, (lane % 3) as u8);
                    let s = span(SpanKind::BlockSample, lane);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    s.done();
                    event(SpanKind::PartitionCacheHit, lane);
                    // Noise under a different request id.
                    record_span_at(
                        SpanKind::BlockGroup,
                        other,
                        NO_CLASS,
                        Instant::now(),
                        Instant::now(),
                        lane,
                    );
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mine = spans_for(req);
        assert_eq!(mine.len(), 8, "4 spans + 4 events for the request");
        let samples: Vec<_> = mine.iter().filter(|e| e.kind == SpanKind::BlockSample).collect();
        assert_eq!(samples.len(), 4);
        assert!(samples.iter().all(|e| e.dur_us >= 1_000));
        // Each lane recorded on its own ring.
        let rings: std::collections::HashSet<u64> = mine.iter().map(|e| e.thread).collect();
        assert_eq!(rings.len(), 4);
        // The non-consuming scan left everything for drain().
        let drained: Vec<_> = drain().into_iter().filter(|e| e.request_id == req).collect();
        assert_eq!(drained.len(), 8);
    }

    #[test]
    fn drain_retires_the_rings_of_exited_threads() {
        let _guard = lock();
        enable(64);
        drain();
        let registered = || -> Vec<u64> {
            STATE.get().unwrap().registry.lock().unwrap().rings.iter().map(|r| r.id).collect()
        };
        let capacity = STATE.get().unwrap().capacity as u64;
        let req = next_request_id();
        let t = Instant::now();
        // 64 short-lived threads, one span each; thread 0 also wraps its
        // ring by 5 so there is a `dropped` count to carry past retirement.
        for lane in 0..64u32 {
            std::thread::spawn(move || {
                if lane == 0 {
                    for _ in 0..capacity + 5 {
                        record_span_at(SpanKind::BlockGroup, 0, NO_CLASS, t, t, 0);
                    }
                }
                record_span_at(SpanKind::BlockSample, req, 1, t, t, lane);
            })
            .join()
            .unwrap();
        }
        // This thread records too, and outlives the drain.
        record_span_at(SpanKind::BlockSample, req, 1, t, t, 64);
        assert!(registered().len() >= 65, "every recording thread registered a ring");
        let before = status().dropped;
        assert!(before >= 5);

        let mut events: Vec<_> = drain().into_iter().filter(|e| e.request_id == req).collect();
        events.sort_unstable_by_key(|e| e.aux);
        let lanes: Vec<u32> = events.iter().map(|e| e.aux).collect();
        assert_eq!(lanes, (0..=64).collect::<Vec<_>>(), "one drain returns every thread's event");
        let mine = events.pop().expect("lane 64 is this thread").thread;
        let left = registered();
        assert!(left.contains(&mine), "a live thread keeps its ring");
        assert!(
            events.iter().all(|e| !left.contains(&e.thread)),
            "the 64 exited threads' rings are retired, {} rings left",
            left.len()
        );
        assert_eq!(status().dropped, before, "a retired ring's drop count is kept");

        // The surviving ring still records, under the id it always had.
        record_span_at(SpanKind::BlockSample, req, 1, t, t, 65);
        let again: Vec<_> = drain().into_iter().filter(|e| e.request_id == req).collect();
        assert_eq!(again.len(), 1);
        assert_eq!((again[0].aux, again[0].thread), (65, mine));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let _guard = lock();
        enable(64);
        drain();
        disable();
        let req = next_request_id();
        span(SpanKind::StageMlp, 0).done();
        event(SpanKind::Aggregate, 1);
        record_span_at(SpanKind::QueueWait, req, 0, Instant::now(), Instant::now(), 0);
        enable(64);
        assert!(drain().iter().all(|e| e.request_id != req));
    }

    #[test]
    fn context_guard_nests_and_restores() {
        let _guard = lock();
        assert_eq!(current_context(), (0, NO_CLASS));
        {
            let _outer = scoped_context(7, 1);
            assert_eq!(current_context(), (7, 1));
            {
                let _inner = scoped_context(9, 2);
                assert_eq!(current_context(), (9, 2));
            }
            assert_eq!(current_context(), (7, 1));
        }
        assert_eq!(current_context(), (0, NO_CLASS));
    }

    #[test]
    fn chrome_trace_json_is_well_formed() {
        let events = [SpanEvent {
            request_id: 42,
            class: 1,
            kind: SpanKind::StageMlp,
            aux: 2,
            start_us: 10,
            dur_us: 5,
            thread: 3,
        }];
        let json = chrome::trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"stage_mlp\""));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"request_id\":42"));
        assert!(chrome::trace_json(&[]).contains("\"traceEvents\":[]"));
    }
}
