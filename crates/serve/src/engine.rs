//! The request/response engine: bounded admission, adaptive batching, and a
//! budgeted worker pool over the core pipeline.
//!
//! # Lifecycle of a request
//!
//! 1. **Validation** — parameters and frame size are checked before any
//!    queueing; bad requests are *rejected* (caller bug), not shed.
//! 2. **Admission** — the bounded queue (one lane per [`Priority`] class)
//!    either accepts the job or sheds it with a counted [`ShedReason`]. At
//!    the bound an arrival may displace a queued job of strictly lower
//!    class (Bulk sheds first). The queue is the only buffer in the
//!    engine, so memory under overload is bounded by construction.
//! 3. **Batching** — a worker pops the next job per the weighted priority
//!    schedule (4 High : 2 Normal : 1 Bulk), then pulls up to
//!    `max_batch - 1` further *compatible* jobs (equal
//!    [`PipelineConfig`]) from every class, highest first, preserving each
//!    class's arrival order among what remains.
//! 4. **Execution** — one schedule for every request kind: a lone job
//!    runs inline on its worker with the whole thread budget (block
//!    fan-out); a fused batch runs one lane per job
//!    ([`fractalcloud_parallel::parallel_map_budget_with`]), and each
//!    lane's share of the budget is inherited by every nested fan-out
//!    ([`fractalcloud_parallel::effective_budget`]) — the paper's
//!    block-parallel point operations spread one frame's independent blocks
//!    over whatever the lane was granted — so the batch's total worker
//!    count stays within the configured budget. Every lane runs the same
//!    staged executor (`run_job`): deadline and fault checks, partition
//!    (cached or built), stage 1 (sampling + grouping at the job's sample
//!    budget, in the lane's workspace and pooled staging), then the kind's
//!    epilogue — swap the vectors into a pooled [`FrameResponse`], cache
//!    the ordering and slice a chunk, or run the network forward pass.
//!    Results are bit-identical to direct library calls for every budget
//!    and batch size, so scheduling is purely a latency/throughput
//!    decision.
//! 5. **Completion** — the response is published through the request's
//!    [`Ticket`] and latency is recorded, globally and per class.
//!
//! Partition reuse: before building, each frame's [`frame_key`] is looked
//! up in the engine-wide [`PartitionCache`]; identical frame bytes at the
//! same threshold reuse the cached `Arc<FractalResult>` and skip straight
//! to the BPPO half ([`Pipeline::run_with_partition`]).
//!
//! # Failure model
//!
//! A request always gets **exactly one** terminal outcome, whatever happens
//! to the worker executing it:
//!
//! * Every admitted job carries a drop-guard ([`TicketGuard`]) that
//!   resolves its slot with the non-retryable [`ServeError::Internal`] if
//!   the job is dropped unresolved — so an executor panic (real or
//!   injected) can never strand a waiter in [`Ticket::wait`].
//! * Worker panics are supervised: the unwinding worker spawns a
//!   replacement (succession) and exits; `worker_panics` /
//!   `workers_respawned` count the events, and the engine keeps serving.
//!   Workspaces and output staging live during an unwind are discarded,
//!   never re-pooled (see [`fractalcloud_core::workspace::PoolGuard`]).
//! * Shared mutexes are recovered from poisoning with
//!   [`lock_unpoisoned`]: every critical section over the queue, cache,
//!   worker registry and ticket slots keeps its data valid even when
//!   interrupted by a panic (single `VecDeque`/`HashMap`/`Vec`/`Option`
//!   operations — each is exception-safe in isolation), so a poisoned
//!   lock still guards a valid-by-construction structure.
//! * Deadlines are cooperative: expired-in-queue jobs shed with the
//!   retryable [`ShedReason::DeadlineExceeded`], the batcher excludes
//!   expired frames from fusion, and mid-run expiry cancels at the
//!   pipeline stage seams ([`CancelToken`]).
//! * The seeded fault layer ([`crate::faults`]) injects panics, delays and
//!   errors at fixed points for chaos testing; it is off by default and
//!   its disabled cost is one `Option` check per site.

use crate::cache::{frame_key, PartitionCache};
use crate::config::ServeConfig;
use crate::faults::{self, FaultLayer, FaultPoint};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::overload::{OverloadController, OverloadLevel, MAX_BROWNOUT, SHED_LEVEL};
use fractalcloud_core::workspace::{global_pool, Pool};
use fractalcloud_core::{
    fnv1a64, CancelToken, LodSlice, Pipeline, PipelineConfig, PipelineOutput, Workspace,
    FNV1A64_SEED,
};
use fractalcloud_obs as obs;
use fractalcloud_pnn::{Aggregation, InferOutput, InferenceConfig, ModelConfig, NetworkExecutor};
use fractalcloud_pointcloud::ops::OpCounters;
use fractalcloud_pointcloud::{Error, PointCloud};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks `m`, recovering from poisoning instead of propagating the panic
/// of whichever thread died while holding the guard.
///
/// Soundness contract (checked at every call site in this crate): the data
/// behind the mutex must be valid after *any* prefix of the critical
/// section — which holds here because each critical section performs
/// individually exception-safe container operations (`VecDeque`
/// push/pop, `HashMap` get/insert, `Vec` push/drain, `Option` writes) and
/// never leaves a multi-step invariant half-established.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Request priority classes.
///
/// The admission queue keeps one lane per class and dequeues them with a
/// fixed weighted schedule (4 High : 2 Normal : 1 Bulk per cycle, falling
/// back to the highest non-empty class), so High work completes first under
/// overload while Bulk is never starved outright. At the queue bound the
/// policy inverts: an arriving request may displace a queued job of a
/// *strictly lower* class (youngest first), so Bulk sheds first when
/// capacity runs out.
///
/// On the wire the class rides in the high nibble of the `FCS1` request
/// kind byte ([`Priority::to_wire`]); pre-priority clients send zeros
/// there, which decodes as [`Priority::Normal`] — the backward-compatible
/// default.
// No PartialOrd/Ord: the declaration order (High first, for dequeue
// preference) would derive `High < Bulk`, inverting every natural
// urgency comparison a caller might write. Compare via [`Priority::index`]
// (smaller = more urgent) instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic; dequeued first and never displaced by
    /// arrivals of equal or lower class.
    High,
    /// The default class (and what pre-priority clients get).
    Normal,
    /// Throughput traffic; first to shed at the queue bound.
    Bulk,
}

impl Priority {
    /// Every class, in dequeue-preference order (High first).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Bulk];

    /// Dense index (High = 0, Normal = 1, Bulk = 2) — the order used by
    /// per-class metrics arrays.
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Bulk => 2,
        }
    }

    /// Lower-case class name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Bulk => "bulk",
        }
    }

    /// The wire nibble (`0` Normal, `1` High, `2` Bulk). Normal is zero so
    /// a pre-priority client's kind byte decodes to the default class.
    pub fn to_wire(self) -> u8 {
        match self {
            Priority::Normal => 0,
            Priority::High => 1,
            Priority::Bulk => 2,
        }
    }

    /// Decodes a wire nibble; `None` for unknown values (malformed).
    pub fn from_wire(bits: u8) -> Option<Priority> {
        match bits {
            0 => Some(Priority::Normal),
            1 => Some(Priority::High),
            2 => Some(Priority::Bulk),
            _ => None,
        }
    }
}

/// Why a request was load-shed instead of queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was at capacity.
    QueueFull,
    /// The frame exceeded the engine's `max_points` limit.
    Oversized {
        /// Points in the offered frame.
        points: usize,
        /// The configured admission limit.
        max_points: usize,
    },
    /// The engine is draining for shutdown.
    ShuttingDown,
    /// The request's deadline expired before it finished executing (in the
    /// queue, at batch assembly, or at a pipeline stage seam). Retryable —
    /// with a fresh deadline.
    DeadlineExceeded,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "admission queue full"),
            ShedReason::Oversized { points, max_points } => {
                write!(f, "frame of {points} points exceeds limit of {max_points}")
            }
            ShedReason::ShuttingDown => write!(f, "engine shutting down"),
            ShedReason::DeadlineExceeded => write!(f, "deadline exceeded before completion"),
        }
    }
}

/// Errors a request can complete with.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Load-shed before execution (retryable; the engine is protecting
    /// itself, the request was fine).
    Shed(ShedReason),
    /// Rejected as invalid (not retryable as-is: empty frame or bad
    /// parameters).
    Invalid(Error),
    /// The request's executor failed (panicked, or hit an injected fault).
    /// Not retryable blindly — the same input may fail the same way; the
    /// engine itself survived and keeps serving.
    Internal,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed(r) => write!(f, "request shed: {r}"),
            ServeError::Invalid(e) => write!(f, "invalid request: {e}"),
            ServeError::Internal => write!(f, "internal error: the request's executor failed"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A processed frame: the block-FPS samples and their ball-query groups,
/// exactly as the direct library calls would return them, plus serving
/// metadata.
///
/// Hand a finished response back with [`Engine::recycle`] and its index
/// buffers rejoin the engine's staging pool — the warmed cache-hit serving
/// path then performs no heap allocation at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameResponse {
    /// Sampled global indices (block order), identical to
    /// `block_fps(..).indices`.
    pub sampled_indices: Vec<usize>,
    /// `centers × num` neighbor indices, row-major, identical to
    /// `block_ball_query(..).indices`.
    pub neighbor_indices: Vec<usize>,
    /// In-radius hits per center before padding.
    pub found: Vec<usize>,
    /// Neighbor slots per center.
    pub num: usize,
    /// Leaf blocks in the frame's partition.
    pub blocks: usize,
    /// Aggregated work counters of the sampling stage.
    pub sample_counters: OpCounters,
    /// Aggregated work counters of the grouping stage.
    pub group_counters: OpCounters,
    /// True when the partition came from the LRU cache.
    pub cache_hit: bool,
    /// Number of frames fused into the batch this one ran in.
    pub batch_size: usize,
    /// True when the engine browned this response out under overload: it
    /// carries only the first `budget_served` samples of the answer the
    /// request asked for — a bit-identical prefix of that answer, per the
    /// quality-ordering contract.
    pub degraded: bool,
    /// Samples actually served when `degraded` (0 when not degraded).
    pub budget_served: usize,
}

/// One network-inference result, with serving metadata attached.
///
/// Hand a finished response back with [`Engine::recycle_infer`] and its
/// logit buffers rejoin the engine's staging pool, keeping the warmed
/// inference path allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Logits, row indices, and the MACs-moved / MACs-saved / gather-bytes
    /// accounting of the executed schedule.
    pub output: InferOutput,
    /// The aggregation schedule that actually ran (the server resolves
    /// "default" before executing).
    pub aggregation: Aggregation,
    /// True when the partition came from the LRU cache.
    pub cache_hit: bool,
    /// Number of requests fused into the batch this one ran in.
    pub batch_size: usize,
}

/// What a resolved slot carries: one variant per request kind. Private —
/// a [`Ticket<T>`] unwraps the variant its submission created (the kinds
/// never cross because a ticket is only ever minted by the matching
/// `submit_*`, which also picks the accessor below).
#[derive(Debug)]
enum EngineResponse {
    Frame(FrameResponse),
    Infer(InferResponse),
    Chunk(StreamChunkResponse),
}

impl EngineResponse {
    fn frame(self) -> Option<FrameResponse> {
        match self {
            EngineResponse::Frame(r) => Some(r),
            _ => None,
        }
    }

    fn infer(self) -> Option<InferResponse> {
        match self {
            EngineResponse::Infer(r) => Some(r),
            _ => None,
        }
    }

    fn chunk(self) -> Option<StreamChunkResponse> {
        match self {
            EngineResponse::Chunk(r) => Some(r),
            _ => None,
        }
    }
}

/// One coarse-to-fine refinement slice of a streamed frame: samples
/// `slice.lo..slice.hi` of the frame's quality ordering, with their
/// neighbor rows — the engine-side payload behind a `CHUNK` wire frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamChunkResponse {
    /// The per-block refinement deltas (see
    /// [`PipelineOutput::slice_level`]).
    pub slice: LodSlice,
    /// True when the frame's partition came from the LRU cache (the same
    /// flag a direct request reports, so accumulated chunks reproduce a
    /// direct response byte-for-byte on a warm frame).
    pub cache_hit: bool,
    /// The full-depth output the slice was cut from (the cached ordering):
    /// the TCP front-end keeps it and cuts the stream's later refinements
    /// itself ([`fractalcloud_core::LodCursor`]) instead of submitting them.
    pub output: Arc<PipelineOutput>,
}

/// Engine lifecycle states (stored in an `AtomicU8`). `SOFT_DRAINING` is
/// the zero-downtime maintenance state ([`Engine::drain`]): admissions
/// shed, but workers keep running (and keep finishing in-flight work, and
/// can still be re-armed by [`Engine::resume`]); `DRAINING` is the
/// terminal shutdown drain, after which workers exit.
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;
const SOFT_DRAINING: u8 = 3;

/// A one-shot completion slot shared between a worker and a waiter.
#[derive(Debug, Default)]
struct Slot {
    result: Mutex<Option<Result<EngineResponse, ServeError>>>,
    ready: Condvar,
}

/// A free-list of completion slots. A request needs one `Arc<Slot>` per
/// submission; recycling them (instead of `Arc::new` per request) removes
/// the last steady-state allocation from the warmed serving path.
///
/// A slot is released by whichever end — the waiter's [`Ticket`] or the
/// engine's [`TicketGuard`] — drops its `Arc` *last*: each release attempt
/// checks `Arc::strong_count == 1` (plus no weak refs), i.e. "I hold the
/// only handle". Both ends racing see a count of 2 and neither pools (the
/// slot just deallocates — safe, merely one allocation next time); the
/// count reaching 1 for exactly one of them is what makes double-pooling
/// impossible. Observing the other side's decrement also orders its final
/// mutex accesses before the reset here, and the reset-then-push happens
/// while no other handle exists, so a recycled slot is always `None` and
/// unobserved.
#[derive(Debug, Default)]
struct SlotStash {
    slots: Mutex<Vec<Arc<Slot>>>,
}

impl SlotStash {
    fn take(&self) -> Arc<Slot> {
        lock_unpoisoned(&self.slots).pop().unwrap_or_default()
    }

    fn release(&self, slot: Arc<Slot>) {
        if Arc::strong_count(&slot) == 1 && Arc::weak_count(&slot) == 0 {
            *lock_unpoisoned(&slot.result) = None;
            lock_unpoisoned(&self.slots).push(slot);
        }
    }
}

/// Handle to one in-flight request; redeem with [`Ticket::wait`]. `T` is
/// the response kind the submission produces: [`FrameResponse`] for frames
/// (the default), [`InferResponse`] for [`InferTicket`],
/// [`StreamChunkResponse`] for [`StreamTicket`].
#[derive(Debug)]
pub struct Ticket<T = FrameResponse> {
    /// `Some` until the drop handler releases the slot to the stash.
    slot: Option<Arc<Slot>>,
    stash: Arc<SlotStash>,
    /// Flight-recorder request id minted at admission.
    req: u64,
    /// Picks this ticket's variant out of the resolved slot.
    open: fn(EngineResponse) -> Option<T>,
}

/// Handle to one in-flight inference request ([`Engine::submit_infer`]).
pub type InferTicket = Ticket<InferResponse>;

/// Handle to one in-flight streaming chunk
/// ([`Engine::submit_stream_chunk`]).
pub type StreamTicket = Ticket<StreamChunkResponse>;

impl<T> Ticket<T> {
    /// The flight-recorder request id this admission minted — the key that
    /// reassembles the request's spans ([`fractalcloud_obs::spans_for`])
    /// and labels its wire-side spans.
    pub fn request_id(&self) -> u64 {
        self.req
    }

    /// Blocks until the response (or terminal error) is ready. Never hangs:
    /// every admitted job carries a drop-guard that resolves the slot (with
    /// [`ServeError::Internal`]) even when its executor panics or its
    /// worker dies.
    pub fn wait(self) -> Result<T, ServeError> {
        let slot = self.slot.as_ref().expect("slot present until drop");
        let mut guard = lock_unpoisoned(&slot.result);
        while guard.is_none() {
            guard = slot.ready.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        self.unwrap_kind(guard.take().expect("checked above"))
    }

    /// [`Ticket::wait`] bounded by a timeout: `None` when the response was
    /// still pending after `timeout` (the ticket is consumed; the request
    /// keeps running and resolves into the abandoned slot). The engine's
    /// failure model makes `None` an anomaly worth asserting on — chaos
    /// tests use exactly that.
    pub fn wait_timeout(self, timeout: Duration) -> Option<Result<T, ServeError>> {
        let slot = self.slot.as_ref().expect("slot present until drop");
        let deadline = Instant::now().checked_add(timeout)?;
        let mut guard = lock_unpoisoned(&slot.result);
        while guard.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _timed_out) = slot
                .ready
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
        Some(self.unwrap_kind(guard.take().expect("checked above")))
    }

    /// A mismatched variant is unreachable by construction (see
    /// [`EngineResponse`]); kept total so a logic error surfaces as an
    /// error, never a panic in a waiter.
    fn unwrap_kind(&self, outcome: Result<EngineResponse, ServeError>) -> Result<T, ServeError> {
        outcome.and_then(|r| (self.open)(r).ok_or(ServeError::Internal))
    }
}

impl<T> Drop for Ticket<T> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            self.stash.release(slot);
        }
    }
}

/// The engine-side twin of a [`Ticket`]: owns the obligation to resolve
/// the slot exactly once. Explicit resolution goes through
/// [`TicketGuard::finish`]; if the guard is instead *dropped* unresolved —
/// an executor unwound, a worker died with jobs in hand, a batch vector
/// was discarded mid-panic — `Drop` resolves the slot with
/// [`ServeError::Internal`] so the waiter always wakes. First resolution
/// wins; later ones are no-ops.
struct TicketGuard {
    priority: Priority,
    admitted_at: Instant,
    /// Flight-recorder request id (shared with the waiter's [`Ticket`]).
    req: u64,
    /// `Some` until the drop handler releases the slot to the stash.
    slot: Option<Arc<Slot>>,
    stash: Arc<SlotStash>,
    metrics: Arc<Metrics>,
    /// Whether this guard already resolved its slot. Tracked on the guard
    /// (not inferred from the slot) because a waiter *takes* the result
    /// out of the slot — an emptied slot must not look unresolved to the
    /// guard's own `Drop`.
    resolved: bool,
}

impl TicketGuard {
    /// Resolves the ticket with `outcome` and records the outcome-class
    /// metrics (latency + completion for delivered responses, the
    /// dedicated counters for deadline sheds and internal failures;
    /// queue-bound sheds are counted by the displacing submitter).
    fn finish(mut self, outcome: Result<EngineResponse, ServeError>) {
        self.resolve(outcome);
        // The impending Drop finds `resolved` set: no-op.
    }

    fn resolve(&mut self, outcome: Result<EngineResponse, ServeError>) {
        if self.resolved {
            return;
        }
        self.resolved = true;
        let slot = self.slot.as_ref().expect("slot present until drop");
        let mut guard = lock_unpoisoned(&slot.result);
        if guard.is_some() {
            return;
        }
        match &outcome {
            Ok(_) | Err(ServeError::Invalid(_)) => {
                let elapsed = self.admitted_at.elapsed();
                self.metrics.latency.record(elapsed);
                self.metrics.latency_by_class[self.priority.index()].record(elapsed);
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
                self.metrics.note_progress();
                if let Some(threshold) = obs::slow_threshold_ms() {
                    if elapsed.as_millis() as u64 >= threshold {
                        log_slow_request(self.req, self.priority, elapsed, threshold);
                    }
                }
            }
            Err(ServeError::Shed(ShedReason::DeadlineExceeded)) => {
                self.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServeError::Shed(_)) => {}
            Err(ServeError::Internal) => {
                self.metrics.failed_internal.fetch_add(1, Ordering::Relaxed);
            }
        }
        *guard = Some(outcome);
        drop(guard);
        slot.ready.notify_all();
    }
}

impl Drop for TicketGuard {
    fn drop(&mut self) {
        // Reached unresolved only when the job was abandoned by a panic
        // somewhere between admission and publication.
        self.resolve(Err(ServeError::Internal));
        if let Some(slot) = self.slot.take() {
            self.stash.release(slot);
        }
    }
}

/// What a queued job executes: a stage-1 frame, or a full network forward
/// pass fed by that same stage-1 output.
enum WorkKind {
    /// Sampling + grouping — the original PROCESS_FRAME request. A
    /// non-zero `budget` truncates the frame's quality ordering to its
    /// first `budget` samples (bit-identical to the prefix of a full run);
    /// 0 runs the full depth.
    Frame { budget: usize },
    /// One progressive-LOD refinement slice: samples `lo..hi` of the
    /// frame's quality ordering, cut from the cached (or freshly computed)
    /// full-depth output.
    Stream { lo: usize, hi: usize },
    /// End-to-end inference through the shared, pre-materialized executor
    /// (one per distinct `(model, seed, aggregation)`, cached engine-wide).
    Infer { executor: Arc<NetworkExecutor> },
}

impl WorkKind {
    /// The batch-compat key of a job of this kind under `config`: the
    /// batcher fuses only jobs whose keys are equal. Kind purity of a batch
    /// does not *depend* on the key — execution dispatches per job — but
    /// the per-kind tags keep a batch to one kind of work, budgeted frames
    /// fuse only with frames of the same budget, and identical inference
    /// requests (executors are cached and shared, so equal requests carry
    /// the same `Arc` pointer) fuse with each other.
    fn compat(&self, config: &PipelineConfig) -> u64 {
        let key = config.compat_key();
        match self {
            WorkKind::Frame { budget: 0 } => key,
            WorkKind::Frame { budget } => fnv1a64(fnv1a64(key, 0x4c4f_4442), *budget as u64),
            WorkKind::Stream { .. } => fnv1a64(key, 0x5354_524d),
            WorkKind::Infer { executor } => {
                let h = (0x1f3a_9e44_0b1d_77c5u64 ^ key).wrapping_mul(0x100_0000_01b3);
                (h ^ Arc::as_ptr(executor) as usize as u64).wrapping_mul(0x100_0000_01b3)
            }
        }
    }
}

/// One queued unit of work. The cloud rides behind an `Arc` so in-process
/// clients can submit without copying the frame (and so a warmed serving
/// loop stays allocation-free).
struct Job {
    cloud: Arc<PointCloud>,
    config: PipelineConfig,
    compat: u64,
    kind: WorkKind,
    priority: Priority,
    /// Brown-out budget shift captured at admission (0 = full quality):
    /// a frame job executes at `max(1, requested_budget >> degrade)`
    /// samples. Snapshotting the level at admission (not execution) keeps
    /// one request's answer a function of one controller reading.
    degrade: u8,
    /// Flight-recorder request id; threads every span the job's execution
    /// records — across worker lanes — back to this admission.
    req: u64,
    admitted_at: Instant,
    /// Absolute execution deadline (`None` = unbounded).
    deadline: Option<Instant>,
    ticket: TicketGuard,
}

impl Job {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// Weighted dequeue schedule over [`Priority::index`]es: per 7 pops, High
/// gets 4 turns, Normal 2, Bulk 1. An empty scheduled class falls through
/// to the highest non-empty one, so the weights only bite under contention.
const DEQUEUE_SCHEDULE: [usize; 7] = [0, 0, 0, 0, 1, 1, 2];

/// The admission queue: one FIFO lane per priority class plus the weighted
/// round-robin cursor. All mutation happens under one mutex, so the
/// dequeue order is deterministic given the submission order.
struct QueueState {
    classes: [VecDeque<Job>; 3],
    cursor: usize,
}

impl QueueState {
    fn new() -> QueueState {
        QueueState { classes: std::array::from_fn(|_| VecDeque::new()), cursor: 0 }
    }

    fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// Pops the next job per the weighted schedule (falling through to the
    /// highest non-empty class when the scheduled lane is empty).
    fn pop_weighted(&mut self) -> Option<Job> {
        if self.len() == 0 {
            return None;
        }
        let preferred = DEQUEUE_SCHEDULE[self.cursor];
        self.cursor = (self.cursor + 1) % DEQUEUE_SCHEDULE.len();
        self.classes[preferred]
            .pop_front()
            .or_else(|| self.classes.iter_mut().find_map(VecDeque::pop_front))
    }

    /// Removes (to be shed) the youngest queued job of the *lowest* class
    /// strictly below `incoming`, making room at the queue bound — Bulk
    /// sheds first, and nothing of equal or higher class is touched.
    fn displace_below(&mut self, incoming: Priority) -> Option<Job> {
        for class in (incoming.index() + 1..self.classes.len()).rev() {
            if let Some(job) = self.classes[class].pop_back() {
                return Some(job);
            }
        }
        None
    }
}

/// State shared between the public handle and the worker threads.
struct Shared {
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    available: Condvar,
    state: AtomicU8,
    metrics: Arc<Metrics>,
    cache: Mutex<PartitionCache>,
    /// Pooled [`PipelineOutput`] staging: workers refill a recycled output
    /// in place (`stage1`), move the response vectors out,
    /// and return the staging — so the per-block rows and other assembly
    /// buffers are reused across frames. Workspaces themselves come from
    /// the core crate's process-wide pool, one per execution lane.
    /// Both pools discard (never re-pool) values whose guard drops during
    /// an unwind.
    outputs: Pool<PipelineOutput>,
    /// Recycled [`FrameResponse`] shells: `run_job` *swaps* its filled
    /// staging vectors with a pooled response's spent ones, so buffer
    /// capacity circulates client → engine → client ([`Engine::recycle`])
    /// instead of being reallocated per frame.
    responses: Pool<FrameResponse>,
    /// Recycled [`InferOutput`] staging for the inference path
    /// ([`Engine::recycle_infer`]).
    infer_outputs: Pool<InferOutput>,
    /// Recycled completion slots (see [`SlotStash`]).
    slots: Arc<SlotStash>,
    /// Pre-materialized network executors, one per distinct
    /// `(model fingerprint, seed, aggregation)` — weight generation runs
    /// once, and every identical INFER request shares the same `Arc` (which
    /// is also what makes their batch-compat keys equal).
    executors: Mutex<HashMap<(u64, u64, u8), Arc<NetworkExecutor>>>,
    /// The seeded fault layer; `None` (the overwhelmingly common case)
    /// makes every injection site one discriminant test.
    faults: Option<Arc<FaultLayer>>,
    /// The brown-out controller: workers feed it queue-wait observations,
    /// admissions read its level (one relaxed load when healthy).
    overload: OverloadController,
    /// Live worker handles — including replacements spawned by panic
    /// supervision, which register themselves here so shutdown can join
    /// whatever generation of workers is current.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// The serving engine. See the [module docs](self) for the request
/// lifecycle; construct with [`Engine::start`].
///
/// # Examples
///
/// ```
/// use fractalcloud_serve::{Engine, ServeConfig};
/// use fractalcloud_core::PipelineConfig;
/// use fractalcloud_pointcloud::generate::uniform_cube;
///
/// let engine = Engine::start(ServeConfig::default().workers(2));
/// let frame = uniform_cube(2048, 7);
/// let response = engine.process(frame, PipelineConfig::default()).unwrap();
/// assert_eq!(response.sampled_indices.len(), 512);
/// engine.shutdown();
/// ```
pub struct Engine {
    shared: Arc<Shared>,
}

impl Engine {
    /// Starts `cfg.workers` worker threads and returns the handle.
    pub fn start(cfg: ServeConfig) -> Engine {
        let shared = Arc::new(Shared {
            cache: Mutex::new(PartitionCache::new(cfg.cache_capacity)),
            faults: FaultLayer::new(cfg.faults),
            overload: OverloadController::new(cfg.brownout, Instant::now()),
            cfg,
            queue: Mutex::new(QueueState::new()),
            available: Condvar::new(),
            state: AtomicU8::new(RUNNING),
            metrics: Arc::new(Metrics::default()),
            outputs: Pool::new(),
            responses: Pool::new(),
            infer_outputs: Pool::new(),
            slots: Arc::new(SlotStash::default()),
            executors: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
        });
        let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
            .map(|i| {
                let h = spawn_worker(&shared, i).expect("spawn serve worker");
                shared.metrics.workers_alive.fetch_add(1, Ordering::Relaxed);
                h
            })
            .collect();
        lock_unpoisoned(&shared.workers).extend(workers);
        Engine { shared }
    }

    /// The engine's configuration.
    pub fn config(&self) -> ServeConfig {
        self.shared.cfg
    }

    /// Validates and admits one [`Priority::Normal`] frame, returning a
    /// [`Ticket`] to wait on.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit_with_priority`].
    pub fn submit(&self, cloud: PointCloud, config: PipelineConfig) -> Result<Ticket, ServeError> {
        self.submit_with_priority(cloud, config, Priority::Normal)
    }

    /// Validates and admits one frame at the given [`Priority`], returning
    /// a [`Ticket`] to wait on.
    ///
    /// At the queue bound an arrival may displace a queued job of strictly
    /// lower class (Bulk first); the displaced job's ticket then resolves
    /// to [`ShedReason::QueueFull`] exactly as if it had been refused at
    /// admission.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] for empty frames or bad parameters;
    /// [`ServeError::Shed`] when admission declines the request (queue
    /// full with nothing lower-class to displace, oversized frame,
    /// shutdown in progress).
    pub fn submit_with_priority(
        &self,
        cloud: PointCloud,
        config: PipelineConfig,
        priority: Priority,
    ) -> Result<Ticket, ServeError> {
        self.submit_with_options(cloud, config, priority, None)
    }

    /// [`Engine::submit_with_priority`] with an explicit per-request
    /// deadline, measured from admission. `None` falls back to the
    /// configured default ([`ServeConfig::deadline_ms`], 0 = unbounded).
    /// A job whose deadline passes before execution is shed with the
    /// retryable [`ShedReason::DeadlineExceeded`]; one that expires
    /// mid-run is cancelled at the next pipeline stage seam and resolves
    /// the same way.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit_with_priority`].
    pub fn submit_with_options(
        &self,
        cloud: PointCloud,
        config: PipelineConfig,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        self.submit_shared_with_options(Arc::new(cloud), config, priority, deadline)
    }

    /// [`Engine::submit`] without copying the frame: the engine borrows the
    /// caller's `Arc<PointCloud>` for the job's lifetime. The shared-cloud
    /// entry points are what keep a warmed serving loop allocation-free —
    /// an `Arc` clone is a refcount bump, not a frame copy.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit`].
    pub fn submit_shared(
        &self,
        cloud: Arc<PointCloud>,
        config: PipelineConfig,
    ) -> Result<Ticket, ServeError> {
        self.submit_shared_with_options(cloud, config, Priority::Normal, None)
    }

    /// [`Engine::submit_with_options`] over a shared frame.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit_with_priority`].
    pub fn submit_shared_with_options(
        &self,
        cloud: Arc<PointCloud>,
        config: PipelineConfig,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        self.submit_shared_budget(cloud, config, 0, priority, deadline)
    }

    /// [`Engine::submit_shared_with_options`] with a sample budget: a
    /// non-zero `budget` answers with only the first `budget` samples of
    /// the frame's quality ordering (and their neighbor rows) —
    /// bit-identical to the prefix of the full response, computed at
    /// proportionally lower cost. 0 = full depth.
    ///
    /// Budgeted jobs carry a budget-specific batch-compat key, so they
    /// fuse only with jobs of the same budget.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit_with_priority`].
    pub fn submit_shared_budget(
        &self,
        cloud: Arc<PointCloud>,
        config: PipelineConfig,
        budget: usize,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let kind = WorkKind::Frame { budget };
        self.admit(cloud, config, kind, priority, deadline, EngineResponse::frame)
    }

    /// Admits one progressive-LOD chunk job: samples `lo..hi` of the
    /// frame's quality ordering. The full-depth ordering is computed once
    /// per `(frame, config)` and cached engine-wide, so N viewers streaming
    /// the same frame share one FPS — each chunk job is then a pure slice.
    /// The TCP front-end submits exactly one per stream — the first paint,
    /// at the requester's priority — and serves the refinements itself from
    /// the [`StreamChunkResponse::output`] that job hands back; in-process
    /// callers may keep submitting one job per chunk.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit_with_priority`].
    pub fn submit_stream_chunk(
        &self,
        cloud: Arc<PointCloud>,
        config: PipelineConfig,
        lo: usize,
        hi: usize,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<StreamTicket, ServeError> {
        let kind = WorkKind::Stream { lo, hi };
        self.admit(cloud, config, kind, priority, deadline, EngineResponse::chunk)
    }

    /// Validates and admits one inference request, returning an
    /// [`InferTicket`] to wait on. The request's stage-1 pipeline (leaf
    /// threshold from the request, sampling/grouping geometry from the
    /// model's first set-abstraction stage) shares the engine's partition
    /// cache, priority lanes, deadlines, and fault-injection points with
    /// frame requests; identical `(model, seed, aggregation)` requests
    /// share one cached weight materialization and batch together.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] for empty frames, models without a
    /// set-abstraction stage, or bad derived parameters;
    /// [`ServeError::Shed`] exactly as [`Engine::submit_with_priority`].
    pub fn submit_infer(
        &self,
        cloud: Arc<PointCloud>,
        req: InferRequest,
    ) -> Result<InferTicket, ServeError> {
        let InferRequest { model, seed, threshold, aggregation, priority, deadline } = req;
        let Some(sa) = model.stages.first() else {
            let m = &self.shared.metrics;
            m.submitted.fetch_add(1, Ordering::Relaxed);
            m.rejected_invalid.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Invalid(Error::InvalidParameter {
                name: "model",
                message: "model has no set-abstraction stage to serve".into(),
            }));
        };
        let config = PipelineConfig::new(threshold, sa.sample_ratio, sa.radius, sa.nsample);
        let aggregation = aggregation.unwrap_or_else(Aggregation::from_env);
        let kind = WorkKind::Infer { executor: self.executor_for(model, seed, aggregation) };
        self.admit(cloud, config, kind, priority, deadline, EngineResponse::infer)
    }

    /// The cached executor for `(model, seed, aggregation)`, materializing
    /// weights on first use. Holding the registry lock through a build
    /// serializes concurrent first requests for the same network — by
    /// design: weight generation is the expensive part, and building it
    /// twice to race an insert would waste more than the wait.
    fn executor_for(
        &self,
        model: ModelConfig,
        seed: u64,
        aggregation: Aggregation,
    ) -> Arc<NetworkExecutor> {
        let key = (model_fingerprint(&model), seed, aggregation_wire(aggregation));
        let mut map = lock_unpoisoned(&self.shared.executors);
        if let Some(ex) = map.get(&key) {
            return Arc::clone(ex);
        }
        let ex = Arc::new(NetworkExecutor::new(InferenceConfig { model, seed, aggregation }));
        map.insert(key, Arc::clone(&ex));
        ex
    }

    /// The shared admission path: validate, then queue under the bound (or
    /// displace / shed), minting the ticket pair only once admission is
    /// certain. `open` is the accessor for the response variant `kind`
    /// resolves to.
    fn admit<T>(
        &self,
        cloud: Arc<PointCloud>,
        config: PipelineConfig,
        kind: WorkKind,
        priority: Priority,
        deadline: Option<Duration>,
        open: fn(EngineResponse) -> Option<T>,
    ) -> Result<Ticket<T>, ServeError> {
        let m = &self.shared.metrics;
        m.submitted.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = config.validate() {
            m.rejected_invalid.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Invalid(e));
        }
        if cloud.is_empty() {
            m.rejected_invalid.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Invalid(Error::EmptyCloud));
        }
        if cloud.len() > self.shared.cfg.max_points {
            m.shed_oversized.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Shed(ShedReason::Oversized {
                points: cloud.len(),
                max_points: self.shared.cfg.max_points,
            }));
        }

        // Brown-out: one relaxed load is all a healthy admission pays. The
        // level is snapshotted here (not at execution), so the degradation
        // a response reports is the degradation that admitted it. High
        // priority is exempt at every level; at the shed level new
        // frame/inference work sheds retryably before touching the queue
        // (a stream's one job — its first paint — is still admitted; its
        // refinements are cut on the connection thread and load no worker).
        let mut compat = kind.compat(&config);
        let mut degrade = 0u8;
        let level = self.shared.overload.level_u8();
        if level > 0 && priority != Priority::High {
            match kind {
                WorkKind::Frame { .. } => {
                    if level >= SHED_LEVEL {
                        m.shed_queue_full.fetch_add(1, Ordering::Relaxed);
                        m.shed_by_class[priority.index()].fetch_add(1, Ordering::Relaxed);
                        return Err(ServeError::Shed(ShedReason::QueueFull));
                    }
                    degrade = level.min(MAX_BROWNOUT);
                    // Degraded jobs fuse only with same-level peers.
                    compat = fnv1a64(fnv1a64(compat, 0x4447_5244), u64::from(degrade));
                }
                WorkKind::Infer { .. } if level >= SHED_LEVEL => {
                    m.shed_queue_full.fetch_add(1, Ordering::Relaxed);
                    m.shed_by_class[priority.index()].fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Shed(ShedReason::QueueFull));
                }
                _ => {}
            }
        }

        let admitted_at = Instant::now();
        let req = obs::next_request_id();
        let budget = deadline.or_else(|| {
            (self.shared.cfg.deadline_ms > 0)
                .then(|| Duration::from_millis(self.shared.cfg.deadline_ms))
        });
        let deadline = budget.and_then(|d| admitted_at.checked_add(d));
        let slot = self.shared.slots.take();
        let displaced = {
            let mut queue = lock_unpoisoned(&self.shared.queue);
            // State is checked under the queue lock: shutdown() transitions
            // under the same lock, so no admission can slip past a drain.
            if self.shared.state.load(Ordering::SeqCst) != RUNNING {
                m.shed_shutdown.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Shed(ShedReason::ShuttingDown));
            }
            let mut displaced = None;
            if queue.len() >= self.shared.cfg.queue_capacity {
                // Bulk sheds first at the bound: a strictly-lower-class
                // queued job makes room, otherwise the arrival itself sheds.
                match queue.displace_below(priority) {
                    Some(victim) => displaced = Some(victim),
                    None => {
                        m.shed_queue_full.fetch_add(1, Ordering::Relaxed);
                        m.shed_by_class[priority.index()].fetch_add(1, Ordering::Relaxed);
                        return Err(ServeError::Shed(ShedReason::QueueFull));
                    }
                }
            }
            // The job (and the resolution obligation its guard carries) is
            // only constructed once admission is certain.
            queue.classes[priority.index()].push_back(Job {
                compat,
                cloud,
                config,
                kind,
                priority,
                degrade,
                req,
                admitted_at,
                deadline,
                ticket: TicketGuard {
                    priority,
                    admitted_at,
                    req,
                    slot: Some(Arc::clone(&slot)),
                    stash: Arc::clone(&self.shared.slots),
                    metrics: Arc::clone(m),
                    resolved: false,
                },
            });
            m.admitted.fetch_add(1, Ordering::Relaxed);
            m.set_queue_depth(queue.len());
            displaced
        };
        if let Some(victim) = displaced {
            m.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            m.shed_by_class[victim.priority.index()].fetch_add(1, Ordering::Relaxed);
            victim.ticket.finish(Err(ServeError::Shed(ShedReason::QueueFull)));
        }
        self.shared.available.notify_one();
        Ok(Ticket { slot: Some(slot), stash: Arc::clone(&self.shared.slots), req, open })
    }

    /// Submits a frame and blocks for its response — the in-process client
    /// call ([`Priority::Normal`]).
    ///
    /// # Errors
    ///
    /// As [`Engine::submit`].
    pub fn process(
        &self,
        cloud: PointCloud,
        config: PipelineConfig,
    ) -> Result<FrameResponse, ServeError> {
        self.submit(cloud, config)?.wait()
    }

    /// [`Engine::process`] over a shared frame — with
    /// [`Engine::recycle`], the warmed cache-hit serving loop this enables
    /// performs zero heap allocations per frame.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit`].
    pub fn process_shared(
        &self,
        cloud: Arc<PointCloud>,
        config: PipelineConfig,
    ) -> Result<FrameResponse, ServeError> {
        self.submit_shared(cloud, config)?.wait()
    }

    /// Submits an inference request and blocks for its response.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit_infer`].
    pub fn process_infer(
        &self,
        cloud: Arc<PointCloud>,
        req: InferRequest,
    ) -> Result<InferResponse, ServeError> {
        self.submit_infer(cloud, req)?.wait()
    }

    /// Returns a finished response's buffers to the engine's staging pool.
    /// Recycling is what closes the allocation loop: the next frame's
    /// response reuses these vectors instead of growing fresh ones. Every
    /// response the engine hands out is a shell taken from this same pool,
    /// so recycling each reply keeps the pool no larger than the number of
    /// responses ever in flight at once.
    pub fn recycle(&self, response: FrameResponse) {
        self.shared.responses.put(response);
    }

    /// [`Engine::recycle`] for inference responses.
    pub fn recycle_infer(&self, response: InferResponse) {
        self.shared.infer_outputs.put(response.output);
    }

    /// Submits a frame at the given [`Priority`] and blocks for its
    /// response.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit_with_priority`].
    pub fn process_with_priority(
        &self,
        cloud: PointCloud,
        config: PipelineConfig,
        priority: Priority,
    ) -> Result<FrameResponse, ServeError> {
        self.submit_with_priority(cloud, config, priority)?.wait()
    }

    /// A point-in-time copy of every serving metric. `faults_injected`
    /// reflects the engine's own fault layer (the layer keeps the
    /// authoritative per-point counters).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.shared.metrics.snapshot();
        if let Some(layer) = &self.shared.faults {
            snapshot.faults_injected = FaultPoint::ALL.iter().map(|&p| layer.injected_at(p)).sum();
        }
        snapshot
    }

    /// Shared access to the metrics registry (the TCP front-end counts its
    /// connection-level events here).
    pub(crate) fn metrics_registry(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The engine's fault layer, if one is active (the TCP front-end
    /// injects its net-side faults through this).
    pub(crate) fn fault_layer(&self) -> &Option<Arc<FaultLayer>> {
        &self.shared.faults
    }

    /// A point-in-time liveness snapshot — cheap enough for a health
    /// endpoint to call per probe.
    pub fn health(&self) -> EngineHealth {
        let queued_by_class = {
            let queue = lock_unpoisoned(&self.shared.queue);
            std::array::from_fn(|c| queue.classes[c].len() as u64)
        };
        let snapshot = self.shared.metrics.snapshot();
        let workers_alive = snapshot.workers_alive;
        let trace = obs::status();
        EngineHealth {
            live: workers_alive > 0 && self.shared.state.load(Ordering::SeqCst) == RUNNING,
            draining: self.shared.state.load(Ordering::SeqCst) == SOFT_DRAINING,
            overload_level: self.shared.overload.level().as_u8(),
            workers_alive,
            workers_configured: self.shared.cfg.workers.max(1) as u64,
            queued_by_class,
            last_progress_age_ms: self.shared.metrics.progress_age_ms(),
            worker_panics: snapshot.worker_panics,
            workers_respawned: snapshot.workers_respawned,
            uptime_ms: self.shared.metrics.uptime_ms(),
            trace_enabled: trace.enabled,
            trace_capacity: trace.capacity,
            trace_dropped: trace.dropped,
            streams_open: snapshot.streams_opened.saturating_sub(snapshot.streams_closed),
        }
    }

    /// Renders the engine's metrics — [`MetricsSnapshot`], per-class
    /// histograms, cache/fault/worker counters, aggregated op counters, and
    /// flight-recorder status — as Prometheus-style text (the `METRICS`
    /// wire opcode serves exactly this string).
    pub fn metrics_text(&self) -> String {
        let per_point: Vec<(&'static str, u64)> = match &self.shared.faults {
            Some(layer) => {
                FaultPoint::ALL.iter().map(|&p| (p.name(), layer.injected_at(p))).collect()
            }
            None => Vec::new(),
        };
        crate::metrics::render_prometheus(&self.metrics(), &self.health(), &per_point)
    }

    /// Folds `n` client-side retries into this engine's `retries_total`
    /// counter, so in-process harnesses report their [`ServeClient`]
    /// retries through the same exposition a sidecar would scrape.
    ///
    /// [`ServeClient`]: crate::ServeClient
    pub fn record_retries(&self, n: u64) {
        self.shared.metrics.record_retries(n);
    }

    /// The engine's position on the graceful-degradation ladder right now.
    /// Reading the level also drives idle decay: with no traffic at all, a
    /// raised level steps down one notch per dwell period on each read, so
    /// pollers (health probes, metrics scrapes, this call) watch the
    /// controller walk back to [`OverloadLevel::Normal`].
    pub fn overload_level(&self) -> OverloadLevel {
        self.shared.overload.level()
    }

    /// Zero-downtime drain (maintenance mode): stops admitting — submits
    /// shed with [`ShedReason::ShuttingDown`], and the TCP front-end
    /// answers new work on every connection with `status::GOAWAY` — while
    /// workers keep finishing everything already admitted and open streams
    /// run to completion. HEALTH reports `draining: true` (and
    /// `live: false`) so orchestrators stop routing here. Re-arm with
    /// [`Engine::resume`]; a drained engine still shuts down normally.
    pub fn drain(&self) {
        let _queue = lock_unpoisoned(&self.shared.queue);
        self.shared
            .state
            .compare_exchange(RUNNING, SOFT_DRAINING, Ordering::SeqCst, Ordering::SeqCst)
            .ok();
    }

    /// Re-arms a drained engine ([`Engine::drain`]): admissions resume. A
    /// no-op unless the engine is currently soft-draining (shutdown is not
    /// reversible).
    pub fn resume(&self) {
        let _queue = lock_unpoisoned(&self.shared.queue);
        self.shared
            .state
            .compare_exchange(SOFT_DRAINING, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
            .ok();
    }

    /// Whether the engine is in the zero-downtime drain state.
    pub fn is_draining(&self) -> bool {
        self.shared.state.load(Ordering::SeqCst) == SOFT_DRAINING
    }

    /// Whether the terminal [`Engine::shutdown`] has begun (a soft drain
    /// has not) — what an open stream checks at each chunk boundary.
    pub(crate) fn is_shutting_down(&self) -> bool {
        matches!(self.shared.state.load(Ordering::SeqCst), DRAINING | STOPPED)
    }

    /// Graceful shutdown: stops admitting (subsequent submits shed with
    /// [`ShedReason::ShuttingDown`]), lets the workers drain every already
    /// admitted job, and joins them — collecting join results instead of
    /// propagating worker panics (a panicked worker already counted itself
    /// in `worker_panics`; a handle that joins with `Err` here is the
    /// defensive backstop for a panic that escaped supervision). Idempotent;
    /// concurrent callers all block until the drain finishes.
    pub fn shutdown(&self) {
        {
            let _queue = lock_unpoisoned(&self.shared.queue);
            // A soft-draining engine shuts down exactly like a running one.
            for from in [RUNNING, SOFT_DRAINING] {
                self.shared
                    .state
                    .compare_exchange(from, DRAINING, Ordering::SeqCst, Ordering::SeqCst)
                    .ok();
            }
        }
        self.shared.available.notify_all();
        // Drain in rounds: a panicking worker may register its replacement
        // while this loop runs, so keep joining until the registry stays
        // empty. Handles are taken out before joining (never join while
        // holding the registry lock — the replacement needs it to register).
        loop {
            let drained: Vec<JoinHandle<()>> =
                lock_unpoisoned(&self.shared.workers).drain(..).collect();
            if drained.is_empty() {
                break;
            }
            for h in drained {
                if h.join().is_err() {
                    // Escaped supervision entirely (e.g. a panic in the
                    // supervisor itself) — count it so the event is visible.
                    self.shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.shared.state.store(STOPPED, Ordering::SeqCst);
    }
}

/// A point-in-time liveness snapshot from [`Engine::health`], also served
/// over the wire as the `FCS1` health request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineHealth {
    /// True when the engine is accepting work and at least one worker is
    /// alive to execute it.
    pub live: bool,
    /// True while the engine is in the zero-downtime drain state
    /// ([`Engine::drain`]): in-flight work finishes, new work is refused
    /// (`GOAWAY` on the wire) — orchestrators should stop routing here.
    pub draining: bool,
    /// Position on the graceful-degradation ladder: 0 = normal, 1–3 =
    /// brown-out depth (responses carry `degraded` markers), 4 = shedding.
    pub overload_level: u8,
    /// Worker threads currently running their loop.
    pub workers_alive: u64,
    /// Worker threads the configuration asked for.
    pub workers_configured: u64,
    /// Queued jobs per priority class ([`Priority::index`] order).
    pub queued_by_class: [u64; 3],
    /// Milliseconds since a worker last completed a request (0 when nothing
    /// has completed yet — pair with the queue depths to tell "idle" from
    /// "stuck").
    pub last_progress_age_ms: u64,
    /// Worker panics survived since start.
    pub worker_panics: u64,
    /// Replacement workers spawned by panic supervision.
    pub workers_respawned: u64,
    /// Milliseconds since the engine's metrics epoch (engine start).
    pub uptime_ms: u64,
    /// Is the flight recorder currently on?
    pub trace_enabled: bool,
    /// Flight-recorder ring capacity in events per thread (0 = recorder
    /// never initialized).
    pub trace_capacity: u64,
    /// Trace events lost to ring wraparound — nonzero warns a scraper that
    /// a `TRACE_DUMP` is truncated.
    pub trace_dropped: u64,
    /// Progressive-LOD streams currently open (opened − closed). A value
    /// that stays above zero while no client is connected is a hung
    /// stream.
    pub streams_open: u64,
}

impl Drop for Engine {
    fn drop(&mut self) {
        if self.shared.state.load(Ordering::SeqCst) != STOPPED {
            self.shutdown();
        }
    }
}

/// One inference request: which network, which weights, which schedule —
/// plus the same serving options every frame request has.
#[derive(Debug, Clone)]
pub struct InferRequest {
    /// The network to run (resolve zoo entries via
    /// [`ModelConfig::table1`]).
    pub model: ModelConfig,
    /// Deterministic weight seed — same `(model, seed)`, same logits,
    /// in-process or over the wire.
    pub seed: u64,
    /// Partition leaf threshold of the stage-1 pipeline (the rest of the
    /// stage-1 geometry comes from the model's first set-abstraction
    /// stage).
    pub threshold: usize,
    /// Aggregation schedule; `None` uses the server's
    /// `FRACTALCLOUD_AGGREGATION` default.
    pub aggregation: Option<Aggregation>,
    /// Queue class, exactly as for frame requests.
    pub priority: Priority,
    /// Per-request deadline; `None` falls back to the configured default.
    pub deadline: Option<Duration>,
}

impl InferRequest {
    /// A [`Priority::Normal`], unbounded-deadline request with the default
    /// partition threshold and the server's default aggregation schedule.
    pub fn new(model: ModelConfig) -> InferRequest {
        InferRequest {
            model,
            seed: 42,
            threshold: PipelineConfig::default().threshold,
            aggregation: None,
            priority: Priority::Normal,
            deadline: None,
        }
    }
}

/// FNV-1a over a structural serialization of the model — the executor-cache
/// key component that makes "same network" mean *same configuration*, not
/// same notation string. Length-prefixed fields keep the encoding
/// prefix-free, so distinct configs cannot collide by concatenation.
fn model_fingerprint(m: &ModelConfig) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn bytes(&mut self, b: &[u8]) {
            for &x in b {
                self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x100_0000_01b3);
            }
        }
        fn word(&mut self, v: u64) {
            self.bytes(&v.to_le_bytes());
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(m.family.len() as u64);
    h.bytes(m.family.as_bytes());
    h.word(m.notation.len() as u64);
    h.bytes(m.notation.as_bytes());
    h.word(match m.task {
        fractalcloud_pnn::Task::Classification => 0,
        fractalcloud_pnn::Task::PartSegmentation => 1,
        fractalcloud_pnn::Task::Segmentation => 2,
    });
    h.word(m.in_channels as u64);
    h.word(m.stem_width as u64);
    h.word(m.classes as u64);
    h.word(m.stages.len() as u64);
    for sa in &m.stages {
        h.word(sa.sample_ratio.to_bits());
        h.word(u64::from(sa.radius.to_bits()));
        h.word(sa.nsample as u64);
        h.word(sa.blocks as u64);
        h.word(sa.mlp.len() as u64);
        for &w in &sa.mlp {
            h.word(w as u64);
        }
    }
    h.word(m.propagation.len() as u64);
    for fp in &m.propagation {
        h.word(fp.k as u64);
        h.word(fp.mlp.len() as u64);
        for &w in &fp.mlp {
            h.word(w as u64);
        }
    }
    h.word(m.head.len() as u64);
    for &w in &m.head {
        h.word(w as u64);
    }
    h.0
}

/// The schedule's wire/cache byte (`protocol::AGG_EAGER` / `AGG_DELAYED`).
pub(crate) fn aggregation_wire(agg: Aggregation) -> u8 {
    match agg {
        Aggregation::Eager => 1,
        Aggregation::Delayed => 2,
    }
}

/// Spawns one supervised worker thread.
fn spawn_worker(shared: &Arc<Shared>, id: usize) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("fc-serve-{id}"))
        .spawn(move || worker_main(&shared, id))
}

/// The supervised body of a worker thread: run the loop, and if it unwinds
/// (a panic the batch executors didn't contain — or an injected
/// `panic@worker`), count the event, spawn a successor, and exit.
/// Supervision-by-succession keeps the thread count constant without a
/// dedicated supervisor thread: the dying worker is its own supervisor.
///
/// `workers_alive` is incremented by whoever *spawns* a worker (start or
/// respawn) and decremented here at exit, so the gauge never dips to zero
/// in the handoff window between a successor being registered and its
/// thread actually starting.
fn worker_main(shared: &Arc<Shared>, id: usize) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared))) {
            Ok(()) => break, // drained for shutdown
            Err(_) => {
                shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                // Any job the panic abandoned has already been resolved to
                // Internal by its TicketGuard's drop during the unwind.
                // Soft drain keeps the pool at strength: a panicked worker
                // still respawns, since the engine may resume.
                let state = shared.state.load(Ordering::SeqCst);
                if state == DRAINING || state == STOPPED {
                    break;
                }
                if respawn_worker(shared, id) {
                    break; // the successor has the slot; this thread retires
                }
                // Could not spawn a successor (resource exhaustion): this
                // thread resurrects in place rather than shrink the pool.
            }
        }
    }
    shared.metrics.workers_alive.fetch_sub(1, Ordering::Relaxed);
}

/// Spawns and registers a successor for a panicked worker. Returns false
/// when the OS refused the thread (the caller then keeps serving itself).
fn respawn_worker(shared: &Arc<Shared>, id: usize) -> bool {
    match spawn_worker(shared, id) {
        Ok(handle) => {
            shared.metrics.workers_alive.fetch_add(1, Ordering::Relaxed);
            shared.metrics.workers_respawned.fetch_add(1, Ordering::Relaxed);
            lock_unpoisoned(&shared.workers).push(handle);
            true
        }
        Err(_) => false,
    }
}

/// Worker: pop the next job per the weighted priority schedule, gather its
/// compatibility batch from every class (highest first, preserving each
/// class's arrival order), execute. Returns when the engine drains.
fn worker_loop(shared: &Arc<Shared>) {
    // One reusable batch vector per worker: `next_batch` fills it,
    // `execute_batch` drains it, and its capacity persists across frames —
    // no per-batch `Vec` on the steady-state path.
    let mut batch: Vec<Job> = Vec::new();
    while next_batch(shared, &mut batch) {
        // An empty batch means the pop only found expired jobs (already
        // shed by next_batch) — go straight back for more work.
        if !batch.is_empty() {
            execute_batch(shared, &mut batch);
        }
    }
}

/// Blocks for the next compatible batch, filling the caller's (reusable,
/// empty-on-entry) `batch`; returns `false` once the engine is draining and
/// the queue is empty. Jobs whose deadline already passed are shed here
/// (retryable [`ShedReason::DeadlineExceeded`]) instead of batched — the
/// waiter gets its answer sooner and the batch wastes no budget on work
/// nobody wants anymore. A `true` return with an empty batch means the pop
/// only found expired jobs.
fn next_batch(shared: &Arc<Shared>, batch: &mut Vec<Job>) -> bool {
    debug_assert!(batch.is_empty(), "caller drains the batch between rounds");
    let mut expired: Vec<Job> = Vec::new();
    let got = {
        let mut queue = lock_unpoisoned(&shared.queue);
        loop {
            let now = Instant::now();
            let mut first = None;
            while let Some(job) = queue.pop_weighted() {
                if job.expired(now) {
                    expired.push(job);
                } else {
                    first = Some(job);
                    break;
                }
            }
            if let Some(first) = first {
                let compat = first.compat;
                batch.push(first);
                for class in 0..queue.classes.len() {
                    if batch.len() >= shared.cfg.max_batch {
                        break;
                    }
                    let lane = &mut queue.classes[class];
                    // Skipping empty lanes is a steady-state allocation
                    // guarantee, not just a shortcut: the rebuild below
                    // would replace a warm lane's capacity with an empty
                    // one, forcing the next submit to reallocate it.
                    if lane.is_empty() {
                        continue;
                    }
                    let mut kept = VecDeque::with_capacity(lane.len());
                    while let Some(job) = lane.pop_front() {
                        if job.expired(now) {
                            expired.push(job);
                        } else if batch.len() < shared.cfg.max_batch && job.compat == compat {
                            batch.push(job);
                        } else {
                            kept.push_back(job);
                        }
                    }
                    *lane = kept;
                }
                shared.metrics.set_queue_depth(queue.len());
                break true;
            }
            shared.metrics.set_queue_depth(queue.len());
            if !expired.is_empty() {
                // Everything popped had expired: hand back an empty batch so
                // the sheds below resolve now, not after the next arrival.
                break true;
            }
            // Workers exit only on the *terminal* drain; the zero-downtime
            // SOFT_DRAINING state keeps them parked here, ready to resume.
            let state = shared.state.load(Ordering::SeqCst);
            if state == DRAINING || state == STOPPED {
                break false;
            }
            queue = shared.available.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    };
    // Resolved outside the queue lock: finish() takes the slot lock, and
    // keeping the queue→slot order acyclic (never slot→queue) is what makes
    // both locks safe to take at all.
    if !expired.is_empty() {
        // Jobs dying in the queue are the strongest overload signal there
        // is — exactly what brown-out exists to prevent.
        shared.overload.observe_deadline_shed();
    }
    for job in expired {
        job.ticket.finish(Err(ServeError::Shed(ShedReason::DeadlineExceeded)));
    }
    got
}

/// Runs one compatible batch and resolves every ticket. The injected
/// `worker` fault point fires here — an injected error drops the whole
/// batch (each guard resolves Internal), an injected panic unwinds into the
/// supervisor in [`worker_main`].
fn execute_batch(shared: &Shared, batch: &mut Vec<Job>) {
    let size = batch.len();
    let m = &shared.metrics;
    m.batches.fetch_add(1, Ordering::Relaxed);
    m.batched_frames.fetch_add(size as u64, Ordering::Relaxed);
    let started = Instant::now();
    let mut worst_wait = Duration::ZERO;
    for job in batch.iter() {
        let wait = started.duration_since(job.admitted_at);
        worst_wait = worst_wait.max(wait);
        m.queue_wait.record(wait);
        m.queue_wait_by_class[job.priority.index()].record(wait);
        obs::record_span_at(
            obs::SpanKind::QueueWait,
            job.req,
            job.priority.index() as u8,
            job.admitted_at,
            started,
            0,
        );
        if size > 1 {
            // One fuse marker per member, so every request's own timeline
            // shows the batch it rode in (aux = fused batch size).
            obs::record_span_at(
                obs::SpanKind::BatchFuse,
                job.req,
                job.priority.index() as u8,
                started,
                started,
                size as u32,
            );
        }
    }
    // One observation per batch, with the batch's *worst* wait: the
    // controller reacts to the tail, which is what deadlines die on.
    shared.overload.observe_wait_us(worst_wait.as_micros().min(u128::from(u64::MAX)) as u64);
    if faults::fire(&shared.faults, FaultPoint::Worker) {
        // Injected executor error: dropping the jobs resolves every ticket
        // to Internal through its guard — the same path a real panic takes.
        batch.clear();
        return;
    }

    if size == 1 {
        // Lone-job fast path, executed inline on this worker: no spawn, no
        // per-batch result vector. It runs under the configured budget, as
        // a one-item fused batch would — with `thread_budget(1)`, a warmed
        // workspace and staging it performs zero heap allocations
        // (`tests/zero_alloc.rs`).
        let job = batch.pop().expect("size checked above");
        let mut ws = global_pool().checkout();
        let outcome = fractalcloud_parallel::with_budget(shared.cfg.thread_budget, || {
            run_job(shared, &job, size, &mut ws)
        });
        job.ticket.finish(outcome);
        return;
    }

    // One lane per job. `parallel_map_budget_with` divides the engine's
    // budget across the lanes, each lane's allowance is inherited by every
    // fan-out inside the pipeline, and each lane checks one workspace out
    // of the process-wide pool — scratch is reused across the lane's jobs
    // and across batches, never shared between threads. Results are
    // identical for every budget — only wall-clock (and allocation
    // traffic) differs.
    let owned: Vec<Job> = std::mem::take(batch);
    let outcomes = fractalcloud_parallel::parallel_map_budget_with(
        owned,
        shared.cfg.thread_budget,
        || global_pool().checkout(),
        |_, job, ws| {
            let outcome = run_job(shared, &job, size, ws);
            (job.ticket, outcome)
        },
    );
    // A lane that panicked dropped its (ticket, outcome) pair mid-flight —
    // that ticket already resolved Internal via its guard; the survivors
    // resolve here.
    for (ticket, outcome) in outcomes {
        ticket.finish(outcome);
    }
}

/// The staged executor every job runs through, whatever its kind: the
/// shared prologue (deadline, injected block fault, pipeline, partition —
/// cached or built in this lane's workspace), stage 1 at the job's sample
/// budget, then the kind's epilogue. The block fan-out inside stage 1 is
/// governed by the lane's inherited thread budget (a 1-thread lane
/// resolves it to sequential execution); the build never fans out.
///
/// All scratch lives in the lane's `ws`, and stage 1 refills a pooled
/// [`PipelineOutput`] staging buffer in place; only the vectors a response
/// hands to the client leave with it (and come back through
/// [`Engine::recycle`]).
fn run_job(
    shared: &Shared,
    job: &Job,
    batch_size: usize,
    ws: &mut Workspace,
) -> Result<EngineResponse, ServeError> {
    let _trace = obs::scoped_context(job.req, job.priority.index() as u8);
    if job.expired(Instant::now()) {
        return Err(ServeError::Shed(ShedReason::DeadlineExceeded));
    }
    if faults::fire(&shared.faults, FaultPoint::Block) {
        return Err(ServeError::Internal);
    }
    let cloud = &*job.cloud;
    let pipeline = Pipeline::new(job.config).map_err(ServeError::Invalid)?;
    let (built, cache_hit, key) = cached_partition(shared, &pipeline, cloud, ws)?;

    match &job.kind {
        WorkKind::Frame { budget } => {
            // Brown-out resolves here, where the partition (and thus the
            // frame's full sample total) is in hand: the served depth is
            // the requested one right-shifted by the admission-time level,
            // and it runs through the same stage 1 as any budget — so a
            // degraded response is bit-identical to the same-length prefix
            // of the full answer by construction, not by a parallel path.
            let degraded = job.degrade > 0;
            let mut depth = if *budget == 0 { usize::MAX } else { *budget };
            if degraded {
                if *budget == 0 {
                    depth = pipeline.sample_counts(&built).iter().sum();
                }
                depth = (depth >> job.degrade).max(1);
                shared.metrics.requests_degraded[job.priority.index()]
                    [usize::from(job.degrade - 1).min(2)]
                .fetch_add(1, Ordering::Relaxed);
            }
            let mut staging = shared.outputs.checkout();
            stage1(job, &pipeline, &built, depth, ws, &mut staging)?;
            let out = &mut *staging;
            // Swap the filled staging vectors with a recycled response's
            // spent ones (instead of `mem::take`, which would strip the
            // staging's capacity every frame): the response leaves with the
            // data, the staging keeps warm buffers, and once clients
            // recycle ([`Engine::recycle`]) the capacity circulates
            // indefinitely — zero allocations per warm frame.
            let mut resp = shared.responses.take();
            std::mem::swap(&mut resp.sampled_indices, &mut out.sampled.indices);
            std::mem::swap(&mut resp.neighbor_indices, &mut out.grouped.indices);
            std::mem::swap(&mut resp.found, &mut out.grouped.found);
            resp.num = out.grouped.num;
            resp.blocks = out.blocks;
            resp.sample_counters = out.sampled.counters;
            resp.group_counters = out.grouped.counters;
            resp.cache_hit = cache_hit;
            resp.batch_size = batch_size;
            // Pooled shells recycle: both marker fields are (re)set every time.
            resp.degraded = degraded;
            resp.budget_served = if degraded { resp.sampled_indices.len() } else { 0 };
            Ok(EngineResponse::Frame(resp))
        }
        WorkKind::Stream { lo, hi } => {
            // The full-depth output is the expensive half — it is computed
            // at most once per `(frame, config)` and cached in the
            // engine-wide ordering LRU (keyed by the frame key folded with
            // the pipeline compatibility key, so distinct configs never
            // alias), after which every chunk — this stream's refinements,
            // cut by its connection from the handle returned below, and
            // every other viewer of the same frame — is a pure slice.
            let order_key = fnv1a64(fnv1a64(FNV1A64_SEED, key), job.config.compat_key());
            let cached = lock_unpoisoned(&shared.cache).get_order(order_key);
            let full = match cached {
                Some(full) => full,
                None => {
                    let mut out = PipelineOutput::default();
                    stage1(job, &pipeline, &built, usize::MAX, ws, &mut out)?;
                    let full = Arc::new(out);
                    if !faults::fire(&shared.faults, FaultPoint::CacheInsert) {
                        lock_unpoisoned(&shared.cache).insert_order(order_key, Arc::clone(&full));
                    }
                    full
                }
            };
            let span = obs::span(obs::SpanKind::ChunkEmit, (*hi).min(u32::MAX as usize) as u32);
            let slice = full.slice_level(*lo, *hi);
            span.done();
            // Counted where the slice is taken (here, and in the TCP
            // front-end for the refinements it cuts itself), not where it
            // is written: a cancelled stream cuts nothing more, so a flat
            // `stream_chunks_sent` after STREAM_CANCEL proves the server
            // really stopped working, not just stopped talking.
            shared.metrics.stream_chunks_sent.fetch_add(1, Ordering::Relaxed);
            // The *partition* cache verdict, matching what a direct request
            // for the same frame would report, so an accumulated stream is
            // byte-identical to the equivalent budgeted response.
            Ok(EngineResponse::Chunk(StreamChunkResponse { slice, cache_hit, output: full }))
        }
        WorkKind::Infer { executor } => {
            let mut staging = shared.outputs.checkout();
            stage1(job, &pipeline, &built, usize::MAX, ws, &mut staging)?;
            // The forward pass has no internal cancel seam; re-check the
            // deadline at the pipeline→network boundary so an
            // already-expired request never pays for the MLP stack.
            if job.expired(Instant::now()) {
                return Err(ServeError::Shed(ShedReason::DeadlineExceeded));
            }
            let mut output = shared.infer_outputs.take();
            executor
                .run_with_stage1_into(cloud, &staging, ws, &mut output)
                .map_err(ServeError::Invalid)?;
            // Aggregate the forward pass's op counters into the engine-wide
            // metrics so the exposition endpoint can report MACs
            // moved/saved and gather traffic across all inference served.
            let c = &output.counters;
            let m = &shared.metrics;
            m.op_macs_moved.fetch_add(c.macs_moved, Ordering::Relaxed);
            m.op_macs_saved.fetch_add(c.macs_saved, Ordering::Relaxed);
            m.op_gather_bytes.fetch_add(c.gather_bytes, Ordering::Relaxed);
            Ok(EngineResponse::Infer(InferResponse {
                output,
                aggregation: executor.config().aggregation,
                cache_hit,
                batch_size,
            }))
        }
    }
}

/// Stage 1 of a job — block sampling + grouping of its frame at `depth`
/// samples (clamped to the frame's total) into `out` — and the one place a
/// job's deadline becomes a [`CancelToken`] and a run cancelled at a stage
/// seam becomes the retryable [`ShedReason::DeadlineExceeded`].
/// Deadline-free requests arm no token (no `Arc` allocation — preserving
/// the zero-alloc warmed steady state). The block fan-out is always
/// allowed: whether it happens is the lane budget's decision.
fn stage1(
    job: &Job,
    pipeline: &Pipeline,
    built: &fractalcloud_core::FractalResult,
    depth: usize,
    ws: &mut Workspace,
    out: &mut PipelineOutput,
) -> Result<(), ServeError> {
    let cancel = job.deadline.map(CancelToken::with_deadline);
    pipeline
        .run_with_partition_into_cancel(&job.cloud, built, depth, true, ws, out, cancel.as_ref())
        .map_err(|e| match e {
            Error::Cancelled => ServeError::Shed(ShedReason::DeadlineExceeded),
            other => ServeError::Invalid(other),
        })
}

/// The partition half of every job: look the frame up in the engine-wide
/// LRU, else build (in this lane's workspace) and insert — the
/// insert skipped under an injected cache fault, which costs a future miss,
/// never correctness. Returns the partition, whether it was a hit, and the
/// frame's [`frame_key`] — hashed here, once per job.
fn cached_partition(
    shared: &Shared,
    pipeline: &Pipeline,
    cloud: &PointCloud,
    ws: &mut Workspace,
) -> Result<(Arc<fractalcloud_core::FractalResult>, bool, u64), ServeError> {
    let key = frame_key(cloud, pipeline.config().threshold);
    let cached = lock_unpoisoned(&shared.cache).get(key);
    match cached {
        Some(b) => {
            obs::event(obs::SpanKind::PartitionCacheHit, 0);
            shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            Ok((b, true, key))
        }
        None => {
            shared.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
            let built = Arc::new(pipeline.partition_ws(cloud, ws).map_err(ServeError::Invalid)?);
            if !faults::fire(&shared.faults, FaultPoint::CacheInsert) {
                lock_unpoisoned(&shared.cache).insert(key, Arc::clone(&built));
            }
            Ok((built, false, key))
        }
    }
}

/// Prints a slow request's identity and — when the flight recorder is on —
/// its full span breakdown. Only reached past the `FRACTALCLOUD_SLOW_MS`
/// threshold, so the allocation and stderr traffic never touch a healthy
/// hot path.
#[cold]
fn log_slow_request(req: u64, priority: Priority, elapsed: Duration, threshold: u64) {
    let mut msg = format!(
        "[fractalcloud-serve] slow request {req} ({:?}): {} ms >= FRACTALCLOUD_SLOW_MS={threshold}\n",
        priority,
        elapsed.as_millis(),
    );
    let spans = obs::spans_for(req);
    if spans.is_empty() {
        msg.push_str("  (no spans retained; set FRACTALCLOUD_TRACE=on for a stage breakdown)\n");
    }
    for s in spans {
        use std::fmt::Write;
        let _ = writeln!(
            msg,
            "  +{:>8} us {:<20} {:>8} us  thread={} aux={}",
            s.start_us,
            s.kind.name(),
            s.dur_us,
            s.thread,
            s.aux,
        );
    }
    eprint!("{msg}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan};
    use fractalcloud_pointcloud::generate::{scene_cloud, uniform_cube, SceneConfig};

    fn small_engine() -> Engine {
        Engine::start(ServeConfig::default().workers(2).queue_capacity(16))
    }

    #[test]
    fn process_round_trips_a_frame() {
        let engine = small_engine();
        let cloud = uniform_cube(1024, 3);
        let r = engine.process(cloud, PipelineConfig::default()).unwrap();
        assert_eq!(r.sampled_indices.len(), 256);
        assert_eq!(r.found.len(), 256);
        assert_eq!(r.neighbor_indices.len(), 256 * r.num);
        assert!(r.blocks >= 4);
        engine.shutdown();
    }

    #[test]
    fn repeated_frame_hits_partition_cache_with_identical_results() {
        let engine = small_engine();
        let cloud = scene_cloud(&SceneConfig::default(), 2048, 5);
        let a = engine.process(cloud.clone(), PipelineConfig::default()).unwrap();
        let b = engine.process(cloud, PipelineConfig::default()).unwrap();
        assert!(!a.cache_hit);
        assert!(b.cache_hit);
        assert_eq!(a.sampled_indices, b.sampled_indices);
        assert_eq!(a.neighbor_indices, b.neighbor_indices);
        let m = engine.metrics();
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        engine.shutdown();
    }

    #[test]
    fn invalid_requests_are_rejected_not_shed() {
        let engine = small_engine();
        let empty = engine.process(PointCloud::new(), PipelineConfig::default());
        assert_eq!(empty, Err(ServeError::Invalid(Error::EmptyCloud)));
        let bad = engine
            .process(uniform_cube(64, 1), PipelineConfig { neighbors: 0, ..Default::default() });
        assert!(matches!(bad, Err(ServeError::Invalid(Error::InvalidParameter { .. }))));
        assert_eq!(engine.metrics().rejected_invalid, 2);
        assert_eq!(engine.metrics().shed_total(), 0);
        engine.shutdown();
    }

    #[test]
    fn priority_classes_round_trip_with_identical_results() {
        let engine = small_engine();
        let cloud = uniform_cube(1024, 17);
        let normal = engine.process(cloud.clone(), PipelineConfig::default()).unwrap();
        for p in Priority::ALL {
            let r =
                engine.process_with_priority(cloud.clone(), PipelineConfig::default(), p).unwrap();
            assert_eq!(r.sampled_indices, normal.sampled_indices, "priority changed results");
            assert_eq!(r.neighbor_indices, normal.neighbor_indices);
        }
        let m = engine.metrics();
        // Normal ran twice (submit defaults to Normal), High and Bulk once.
        assert_eq!(m.completed_by_class, [1, 2, 1]);
        engine.shutdown();
    }

    /// A queue-state test job (the guard points at a throwaway slot).
    fn test_job(p: Priority) -> Job {
        let admitted_at = Instant::now();
        Job {
            cloud: Arc::new(uniform_cube(8, 1)),
            config: PipelineConfig::default(),
            compat: 0,
            kind: WorkKind::Frame { budget: 0 },
            priority: p,
            degrade: 0,
            req: 0,
            admitted_at,
            deadline: None,
            ticket: TicketGuard {
                priority: p,
                admitted_at,
                req: 0,
                slot: Some(Arc::new(Slot::default())),
                stash: Arc::new(SlotStash::default()),
                metrics: Arc::new(Metrics::default()),
                resolved: false,
            },
        }
    }

    /// A waiter-side ticket over `slot` with a throwaway stash.
    fn test_ticket(slot: Arc<Slot>) -> Ticket {
        Ticket {
            slot: Some(slot),
            stash: Arc::new(SlotStash::default()),
            req: 0,
            open: EngineResponse::frame,
        }
    }

    #[test]
    fn weighted_queue_pops_follow_the_schedule() {
        // Pure queue-state test: deterministic, no threads.
        let mk = test_job;
        let mut q = QueueState::new();
        for _ in 0..3 {
            q.classes[Priority::High.index()].push_back(mk(Priority::High));
            q.classes[Priority::Bulk.index()].push_back(mk(Priority::Bulk));
        }
        q.classes[Priority::Normal.index()].push_back(mk(Priority::Normal));
        // Schedule H,H,H,H,N,N,B with highest-first fall-through: the three
        // Highs drain on their turns, the fourth High turn falls to Normal,
        // and the Normal/Bulk turns drain the Bulk lane.
        let order: Vec<Priority> =
            std::iter::from_fn(|| q.pop_weighted().map(|j| j.priority)).collect();
        assert_eq!(
            order,
            [
                Priority::High,
                Priority::High,
                Priority::High,
                Priority::Normal,
                Priority::Bulk,
                Priority::Bulk,
                Priority::Bulk,
            ]
        );
        assert!(q.pop_weighted().is_none());
    }

    #[test]
    fn displacement_sheds_the_youngest_lowest_class_only() {
        let mk = test_job;
        let mut q = QueueState::new();
        q.classes[Priority::Normal.index()].push_back(mk(Priority::Normal));
        q.classes[Priority::Bulk.index()].push_back(mk(Priority::Bulk));
        // High displaces the Bulk job first, then the Normal one, then
        // nothing (never its own class).
        assert_eq!(q.displace_below(Priority::High).unwrap().priority, Priority::Bulk);
        assert_eq!(q.displace_below(Priority::High).unwrap().priority, Priority::Normal);
        assert!(q.displace_below(Priority::High).is_none());
        // Bulk can never displace; Normal only displaces Bulk.
        q.classes[Priority::Normal.index()].push_back(mk(Priority::Normal));
        assert!(q.displace_below(Priority::Bulk).is_none());
        assert!(q.displace_below(Priority::Normal).is_none());
        q.classes[Priority::Bulk.index()].push_back(mk(Priority::Bulk));
        assert_eq!(q.displace_below(Priority::Normal).unwrap().priority, Priority::Bulk);
    }

    #[test]
    fn submit_after_shutdown_sheds() {
        let engine = small_engine();
        engine.shutdown();
        let r = engine.submit(uniform_cube(64, 1), PipelineConfig::default());
        assert_eq!(r.unwrap_err(), ServeError::Shed(ShedReason::ShuttingDown));
        assert_eq!(engine.metrics().shed_shutdown, 1);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let engine = small_engine();
        engine.shutdown();
        engine.shutdown();
    }

    #[test]
    fn dropped_ticket_guard_resolves_internal() {
        let job = test_job(Priority::Normal);
        let slot = Arc::clone(job.ticket.slot.as_ref().expect("slot present"));
        drop(job); // simulate a panic abandoning the job mid-execution
        assert_eq!(test_ticket(slot).wait(), Err(ServeError::Internal));
    }

    #[test]
    fn finished_guard_keeps_its_first_resolution() {
        let job = test_job(Priority::Normal);
        let slot = Arc::clone(job.ticket.slot.as_ref().expect("slot present"));
        job.ticket.finish(Err(ServeError::Shed(ShedReason::QueueFull)));
        // The guard's own Drop ran after finish(); first resolution wins.
        assert_eq!(test_ticket(slot).wait(), Err(ServeError::Shed(ShedReason::QueueFull)));
    }

    #[test]
    fn wait_timeout_distinguishes_pending_from_resolved() {
        let pending = test_ticket(Arc::new(Slot::default()));
        assert_eq!(pending.wait_timeout(Duration::from_millis(20)), None);

        let slot = Arc::new(Slot::default());
        *lock_unpoisoned(&slot.result) = Some(Err(ServeError::Internal));
        let resolved = test_ticket(slot);
        assert_eq!(resolved.wait_timeout(Duration::from_secs(5)), Some(Err(ServeError::Internal)));
    }

    #[test]
    fn lock_unpoisoned_recovers_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(vec![1, 2, 3]));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        let mut guard = lock_unpoisoned(&m);
        guard.push(4); // the data stayed valid through the poisoning
        assert_eq!(*guard, [1, 2, 3, 4]);
    }

    #[test]
    fn zero_deadline_requests_shed_as_deadline_exceeded() {
        let engine = small_engine();
        let r = engine
            .submit_with_options(
                uniform_cube(1024, 3),
                PipelineConfig::default(),
                Priority::Normal,
                Some(Duration::ZERO),
            )
            .unwrap()
            .wait();
        assert_eq!(r, Err(ServeError::Shed(ShedReason::DeadlineExceeded)));
        let m = engine.metrics();
        assert_eq!(m.shed_deadline, 1);
        assert!(m.shed_total() >= 1);
        // The engine is unharmed: the next unbounded request completes.
        assert!(engine.process(uniform_cube(1024, 3), PipelineConfig::default()).is_ok());
        engine.shutdown();
    }

    #[test]
    fn injected_worker_panics_are_supervised_and_survived() {
        let plan =
            FaultPlan::OFF.with_fault(FaultKind::Panic, FaultPoint::Worker, 1.0).with_seed(7);
        let engine = Engine::start(ServeConfig::default().workers(1).faults(plan));
        for _ in 0..3 {
            let r = engine.process(uniform_cube(256, 5), PipelineConfig::default());
            assert_eq!(r, Err(ServeError::Internal));
        }
        // The ticket resolves during the unwind, *before* the supervisor
        // counts the panic and respawns — poll briefly for the counters.
        let deadline = Instant::now() + Duration::from_secs(10);
        let m = loop {
            let m = engine.metrics();
            if (m.worker_panics >= 3 && m.workers_respawned >= 3) || Instant::now() >= deadline {
                break m;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(m.worker_panics >= 3, "worker_panics = {}", m.worker_panics);
        assert!(m.workers_respawned >= 3, "workers_respawned = {}", m.workers_respawned);
        assert_eq!(m.failed_internal, 3);
        assert!(m.faults_injected >= 3);
        let health = engine.health();
        assert!(health.live, "engine must stay live through supervised panics");
        engine.shutdown();
        assert!(!engine.health().live);
    }

    #[test]
    fn injected_worker_errors_resolve_internal_without_panicking() {
        let plan = FaultPlan::OFF.with_fault(FaultKind::Err, FaultPoint::Worker, 1.0).with_seed(7);
        let engine = Engine::start(ServeConfig::default().workers(1).faults(plan));
        let r = engine.process(uniform_cube(256, 5), PipelineConfig::default());
        assert_eq!(r, Err(ServeError::Internal));
        let m = engine.metrics();
        assert_eq!(m.worker_panics, 0);
        assert_eq!(m.failed_internal, 1);
        engine.shutdown();
    }

    #[test]
    fn injected_block_errors_resolve_internal() {
        let plan = FaultPlan::OFF.with_fault(FaultKind::Err, FaultPoint::Block, 1.0).with_seed(7);
        let engine = Engine::start(ServeConfig::default().workers(1).faults(plan));
        let r = engine.process(uniform_cube(256, 5), PipelineConfig::default());
        assert_eq!(r, Err(ServeError::Internal));
        assert_eq!(engine.metrics().worker_panics, 0);
        engine.shutdown();
    }

    #[test]
    fn injected_cache_insert_errors_skip_the_insert_but_serve_correctly() {
        let plan =
            FaultPlan::OFF.with_fault(FaultKind::Err, FaultPoint::CacheInsert, 1.0).with_seed(7);
        let engine = Engine::start(ServeConfig::default().workers(1).faults(plan));
        let cloud = uniform_cube(1024, 9);
        let a = engine.process(cloud.clone(), PipelineConfig::default()).unwrap();
        let b = engine.process(cloud.clone(), PipelineConfig::default()).unwrap();
        // The insert was dropped both times, so the repeat still misses …
        assert!(!a.cache_hit);
        assert!(!b.cache_hit);
        // … and results never depend on the cache.
        assert_eq!(a.sampled_indices, b.sampled_indices);
        assert_eq!(a.neighbor_indices, b.neighbor_indices);
        engine.shutdown();

        let clean = Engine::start(ServeConfig::default().workers(1));
        let c = clean.process(cloud, PipelineConfig::default()).unwrap();
        assert_eq!(c.sampled_indices, a.sampled_indices);
        clean.shutdown();
    }

    #[test]
    fn health_reports_workers_and_progress() {
        let engine = small_engine();
        let before = engine.health();
        assert!(before.live);
        assert_eq!(before.workers_alive, 2);
        assert_eq!(before.workers_configured, 2);
        assert_eq!(before.queued_by_class, [0, 0, 0]);
        engine.process(uniform_cube(512, 3), PipelineConfig::default()).unwrap();
        let after = engine.health();
        assert_eq!(after.worker_panics, 0);
        assert_eq!(after.workers_respawned, 0);
        engine.shutdown();
    }

    #[test]
    fn recycling_every_reply_keeps_the_response_pool_within_the_window() {
        // Windows of compatible frames submitted up front fuse into
        // batches; every fused member must draw its response shell from
        // the pool it is later recycled into, or the pool grows by one
        // shell per reply forever.
        const WINDOW: usize = 8;
        let engine = Engine::start(
            ServeConfig::default()
                .workers(1)
                .thread_budget(2)
                .max_batch(WINDOW)
                .queue_capacity(WINDOW)
                .cache_capacity(0),
        );
        let clouds: Vec<Arc<PointCloud>> =
            (0..WINDOW as u64).map(|seed| Arc::new(uniform_cube(1024, seed))).collect();
        let mut fused = 0;
        for _window in 0..6 {
            let tickets: Vec<Ticket> = clouds
                .iter()
                .map(|c| engine.submit_shared(Arc::clone(c), PipelineConfig::default()).unwrap())
                .collect();
            for ticket in tickets {
                let r = ticket.wait().unwrap();
                fused = fused.max(r.batch_size);
                engine.recycle(r);
                let idle = engine.shared.responses.idle();
                assert!(idle <= WINDOW, "response pool grew to {idle} shells");
            }
        }
        assert!(fused >= 2, "the windows must actually fuse, got batch size {fused}");
        engine.shutdown();
    }

    fn infer_request(aggregation: Aggregation) -> InferRequest {
        let model = ModelConfig::table1().remove(0);
        InferRequest { aggregation: Some(aggregation), ..InferRequest::new(model) }
    }

    #[test]
    fn infer_schedules_are_bit_identical_and_delayed_saves_macs() {
        let engine = small_engine();
        let cloud = Arc::new(uniform_cube(2048, 11));
        let eager =
            engine.process_infer(Arc::clone(&cloud), infer_request(Aggregation::Eager)).unwrap();
        let delayed = engine.process_infer(cloud, infer_request(Aggregation::Delayed)).unwrap();
        assert_eq!(eager.aggregation, Aggregation::Eager);
        assert_eq!(delayed.aggregation, Aggregation::Delayed);
        assert_eq!(eager.output.classes, delayed.output.classes);
        assert_eq!(eager.output.row_index, delayed.output.row_index);
        // Bit-exact equivalence, not approximate: compare raw patterns.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&eager.output.logits), bits(&delayed.output.logits));
        // Eager gathers (traffic, no MAC bookkeeping); delayed moves the
        // MLP before aggregation and reports what that move eliminated.
        assert_eq!(eager.output.counters.macs_moved, 0);
        assert!(eager.output.counters.gather_bytes > 0);
        assert!(delayed.output.counters.macs_moved > 0);
        assert!(delayed.output.counters.macs_saved > 0);
        assert_eq!(delayed.output.counters.gather_bytes, 0);
        engine.shutdown();
    }

    #[test]
    fn repeated_infer_hits_partition_cache_with_identical_logits() {
        let engine = small_engine();
        let cloud = Arc::new(scene_cloud(&SceneConfig::default(), 2048, 5));
        let a = engine.process_infer(Arc::clone(&cloud), infer_request(Aggregation::Delayed));
        let a = a.unwrap();
        let b = engine.process_infer(cloud, infer_request(Aggregation::Delayed)).unwrap();
        assert!(!a.cache_hit);
        assert!(b.cache_hit);
        assert_eq!(a.output.logits, b.output.logits);
        assert_eq!(a.output.row_index, b.output.row_index);
        let m = engine.metrics();
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        engine.shutdown();
    }

    #[test]
    fn infer_rejects_model_without_stages() {
        let engine = small_engine();
        let mut req = infer_request(Aggregation::Delayed);
        req.model.stages.clear();
        let out = engine.process_infer(Arc::new(uniform_cube(256, 3)), req);
        assert!(matches!(out, Err(ServeError::Invalid(_))), "got {out:?}");
        engine.shutdown();
    }

    #[test]
    fn frames_and_infers_interleave_on_one_engine() {
        let engine = small_engine();
        let cloud = Arc::new(uniform_cube(1024, 9));
        let frame = engine
            .submit_shared(Arc::clone(&cloud), PipelineConfig::default())
            .expect("frame admitted");
        let infer = engine
            .submit_infer(Arc::clone(&cloud), infer_request(Aggregation::Delayed))
            .expect("infer admitted");
        let frame = frame.wait().unwrap();
        let infer = infer.wait().unwrap();
        assert_eq!(frame.sampled_indices.len(), 256);
        assert!(!infer.output.logits.is_empty());
        assert_eq!(infer.output.logits.len(), infer.output.row_index.len() * infer.output.classes);
        engine.shutdown();
    }
}
