//! The length-prefixed binary wire protocol of the TCP front-end.
//!
//! Plain `std::net` framing, little-endian throughout — no async runtime,
//! matching the rest of the workspace. One request, one response, any
//! number of request/response pairs per connection.
//!
//! ```text
//! request  := magic:u32 kind:u8 payload_len:u32 payload
//!   kind: low nibble = opcode (1 = PROCESS_FRAME, 2 = HEALTH, 3 = INFER,
//!         4 = METRICS, 5 = TRACE_DUMP, 6 = STREAM, 7 = STREAM_CREDIT,
//!         8 = STREAM_CANCEL)
//!         high nibble = priority (0 = normal, 1 = high, 2 = bulk)
//!   payload (opcode PROCESS_FRAME):
//!     threshold:u32 sample_rate:f64 radius:f32 neighbors:u32
//!     n_points:u32 (x:f32 y:f32 z:f32){n_points}
//!     [deadline_ms:u32 [budget:u32]]
//!   payload (opcode STREAM):
//!     threshold:u32 sample_rate:f64 radius:f32 neighbors:u32
//!     n_points:u32 (x:f32 y:f32 z:f32){n_points}
//!     deadline_ms:u32 first_paint:u32 chunk:u32 credits:u32
//!   payload (opcode STREAM_CREDIT): empty (grants ONE refinement chunk)
//!   payload (opcode STREAM_CANCEL): empty
//!   payload (opcode HEALTH): empty
//!   payload (opcode INFER):
//!     threshold:u32 seed:u64 aggregation:u8 (0 = server default,
//!       1 = eager, 2 = delayed)
//!     notation_len:u32 notation:utf8{notation_len}
//!     n_points:u32 (x:f32 y:f32 z:f32){n_points} [deadline_ms:u32]
//!   payload (opcode METRICS): empty
//!   payload (opcode TRACE_DUMP): empty
//!
//! response := magic:u32 status:u8 payload_len:u32 payload
//!   payload (status OK, PROCESS_FRAME):
//!     blocks:u32 cache_hit:u8 batch_size:u32
//!     n_sampled:u32 sampled:u32{n_sampled}
//!     n_centers:u32 num:u32 neighbors:u32{n_centers*num}
//!     found:u32{n_centers} [budget_served:u32]
//!   payload (status OK, HEALTH):
//!     live:u8 workers_alive:u64 workers_configured:u64
//!     queued_high:u64 queued_normal:u64 queued_bulk:u64
//!     last_progress_age_ms:u64 worker_panics:u64 workers_respawned:u64
//!     uptime_ms:u64 trace_enabled:u8 trace_capacity:u64
//!     trace_dropped:u64 streams_open:u64 draining:u8 overload_level:u8
//!   payload (status OK, METRICS): UTF-8 Prometheus-style exposition text
//!   payload (status OK, TRACE_DUMP): UTF-8 Chrome trace-event JSON
//!     (draining the flight recorder)
//!   payload (status OK, INFER):
//!     classes:u32 cache_hit:u8 batch_size:u32 aggregation:u8 (1|2)
//!     macs_moved:u64 macs_saved:u64 gather_bytes:u64
//!     n_rows:u32 row_index:u32{n_rows} logits:f32{n_rows*classes}
//!   payload (status CHUNK, STREAM):
//!     seq:u32 lo:u32 hi:u32 total:u32 blocks:u32 num:u32 cache_hit:u8
//!     n_segments:u32 segment{n_segments}
//!       segment := block:u32 count:u32 sampled:u32{count}
//!                  grouped:u32{count*num} found:u32{count}
//!   payload (status STREAM_END, STREAM):
//!     chunks:u32 delivered:u32 cancelled:u8
//!   payload (status != OK/CHUNK/STREAM_END): UTF-8 human-readable reason
//! ```
//!
//! A STREAM exchange is one request followed by a CHUNK frame per
//! coarse-to-fine refinement slice and a terminating STREAM_END (or a
//! plain error status, which also ends the stream). Flow control is
//! credit-based: the opening request carries an initial refinement budget,
//! and each (empty) STREAM_CREDIT frame from the client grants exactly one
//! more refinement chunk — the first-paint chunk is never gated. The
//! client may send STREAM_CANCEL at any depth; the server stops slicing,
//! answers STREAM_END with `cancelled = 1`, and the connection returns to
//! the ordinary request/response loop. Concatenating the per-block
//! segments of chunks `1..=n` reproduces byte-for-byte the PROCESS_FRAME
//! response a direct `budget = hi_n` request returns. Both ends pay for a
//! chunk by its bytes, not by the partition's block count: the server
//! encodes the cut straight from the rows it borrows, and the client's
//! [`StreamAccumulator`] appends each segment's runs to flat arrays in
//! arrival order and puts them in block order once, when the response is
//! asked for.
//!
//! Inference logits cross the wire as raw little-endian `f32` bit
//! patterns, so a TCP round-trip is *bit-identical* to the in-process
//! [`InferResponse`](crate::InferResponse) — the serving layer never
//! perturbs the numerics.
//!
//! The priority nibble is backward compatible by construction: clients
//! that predate priority classes send the bare opcode (high nibble 0),
//! which decodes as [`Priority::Normal`]. Unknown priority nibbles are
//! answered [`status::MALFORMED`]. The trailing `deadline_ms` is likewise
//! optional: pre-deadline clients simply omit it (and deadline-aware
//! clients omit it for 0, keeping their unbounded requests byte-identical
//! to old ones); when present and non-zero it overrides the server's
//! default request deadline.
//!
//! Status codes mirror [`ServeError`](crate::ServeError): `1` queue full,
//! `2` oversized frame, `3` shutting down, `4` invalid request, `5`
//! malformed wire data, `6` connection limit reached, `7` internal
//! executor failure, `8` deadline exceeded, `11` GOAWAY (the connection's
//! server is draining — reconnect elsewhere or retry later). Shed statuses
//! (`1`–`3`, `6`, `8`, `11`) are retryable by contract; `4`/`5`/`7` are
//! not.
//!
//! The trailing `budget_served` on a PROCESS_FRAME response is the
//! brown-out marker: its *presence* means the server degraded the request
//! — it ran the frame at `budget_served` samples instead of the full (or
//! requested) budget, and the results are the exact `budget_served`-sample
//! prefix of the full run (see
//! [`Pipeline::run_with_partition_into_cancel`](fractalcloud_core::Pipeline::run_with_partition_into_cancel)).
//! Non-degraded responses omit the field, staying byte-identical to
//! pre-brown-out servers.

use crate::engine::{EngineHealth, FrameResponse, Priority};
use fractalcloud_core::{LodCursor, PipelineConfig};
use fractalcloud_pointcloud::PointCloud;

/// Frame magic: `"FCS1"` (FractalCloud Serve, version 1).
pub const MAGIC: u32 = u32::from_le_bytes(*b"FCS1");

/// Request opcode: process one frame. Lives in the low nibble of the
/// request kind byte; the high nibble carries the [`Priority`].
pub const OP_PROCESS_FRAME: u8 = 1;

/// Request opcode: engine liveness snapshot ([`EngineHealth`]). The
/// payload is empty and the priority nibble is ignored — health probes
/// are answered inline by the connection handler, never queued.
pub const OP_HEALTH: u8 = 2;

/// Request opcode: run end-to-end network inference over a frame
/// (partition → stage-1 sample/group → PNN forward pass), returning
/// per-row class logits. Shares the priority nibble, optional deadline
/// trailer, partition cache, and shedding semantics with
/// [`OP_PROCESS_FRAME`].
pub const OP_INFER: u8 = 3;

/// Request opcode: metrics exposition. Empty payload; answered inline
/// (never queued) with the engine's Prometheus-style text —
/// [`MetricsSnapshot`](crate::MetricsSnapshot), per-class histograms,
/// cache/fault/worker counters, aggregated op counters, and
/// flight-recorder status. The priority nibble is ignored.
pub const OP_METRICS: u8 = 4;

/// Request opcode: drain the flight recorder. Empty payload; answered
/// inline with Chrome trace-event JSON (empty `traceEvents` when tracing
/// is off). Draining consumes: two consecutive dumps never repeat an
/// event. The priority nibble is ignored.
pub const OP_TRACE_DUMP: u8 = 5;

/// Request opcode: open a progressive LOD stream over a frame. The server
/// answers with a first-paint [`status::CHUNK`] at the request's priority,
/// then credit-gated refinement chunks (cut by the connection, unqueued), then
/// [`status::STREAM_END`]. Payload is the PROCESS_FRAME layout with a
/// *required* trailer: `deadline_ms first_paint chunk credits` (see
/// [`WireStreamOpen`]).
pub const OP_STREAM: u8 = 6;

/// Mid-stream client frame: grant one more refinement chunk. Empty
/// payload; only valid while a STREAM exchange is open.
pub const OP_STREAM_CREDIT: u8 = 7;

/// Mid-stream client frame: stop refining at the current depth. Empty
/// payload; the server answers [`status::STREAM_END`] with
/// `cancelled = 1`.
pub const OP_STREAM_CANCEL: u8 = 8;

/// Builds a request kind byte: opcode in the low nibble, priority in the
/// high nibble. A [`Priority::Normal`] request is byte-identical to what a
/// pre-priority client sends.
pub fn request_kind(priority: Priority) -> u8 {
    OP_PROCESS_FRAME | (priority.to_wire() << 4)
}

/// Builds an [`OP_STREAM`] request kind byte, priority in the high nibble
/// (the class of the stream's one admission, its first-paint chunk;
/// refinements are cut from the held ordering without queueing).
pub fn stream_request_kind(priority: Priority) -> u8 {
    OP_STREAM | (priority.to_wire() << 4)
}

/// Builds an [`OP_INFER`] request kind byte, priority in the high nibble.
pub fn infer_request_kind(priority: Priority) -> u8 {
    OP_INFER | (priority.to_wire() << 4)
}

/// Splits a request kind byte into `(opcode, priority_nibble)`; feed the
/// nibble to [`Priority::from_wire`].
pub fn split_kind(kind: u8) -> (u8, u8) {
    (kind & 0x0F, kind >> 4)
}

/// Fixed request-payload bytes before the coordinate triplets.
pub const REQUEST_FIXED_BYTES: usize = 4 + 8 + 4 + 4 + 4;

/// Largest trailer any request opcode appends after the coordinate
/// triplets: the [`OP_STREAM`] trailer (`deadline_ms`, `first_paint`,
/// `chunk`, `credits` — four `u32`s). The server's payload-size bound
/// budgets for this on top of a `max_points` frame so a maximal frame can
/// still carry a full trailer.
pub const REQUEST_TRAILER_MAX_BYTES: usize = 16;

/// Sanity ceiling a client applies to a server-declared response payload
/// before allocating (a megapoint frame's response is ~20 MB; anything
/// near this bound means a corrupt or hostile peer, not a real result).
pub const MAX_RESPONSE_PAYLOAD: usize = 1 << 28;

/// Response status codes.
pub mod status {
    /// Success; payload carries the results.
    pub const OK: u8 = 0;
    /// Shed: admission queue full (retryable).
    pub const QUEUE_FULL: u8 = 1;
    /// Shed: frame exceeds the server's point limit (retryable smaller).
    pub const OVERSIZED: u8 = 2;
    /// Shed: server draining for shutdown (retryable elsewhere).
    pub const SHUTTING_DOWN: u8 = 3;
    /// Rejected: invalid parameters or empty frame (not retryable as-is).
    pub const INVALID: u8 = 4;
    /// Rejected: the bytes did not parse as a protocol frame.
    pub const MALFORMED: u8 = 5;
    /// Shed: the server's concurrent-connection limit is reached
    /// (retryable later or elsewhere).
    pub const TOO_MANY_CONNECTIONS: u8 = 6;
    /// Failed: the request's executor panicked or hit an injected fault
    /// (not blindly retryable — the same input may fail the same way; the
    /// server itself survived).
    pub const INTERNAL_ERROR: u8 = 7;
    /// Shed: the request's deadline expired before completion (retryable —
    /// with a fresh deadline).
    pub const DEADLINE_EXCEEDED: u8 = 8;
    /// Streaming: one coarse-to-fine refinement chunk; more frames follow.
    pub const CHUNK: u8 = 9;
    /// Streaming: the stream is over (completed, cancelled, or shed); the
    /// connection is back in the request/response loop.
    pub const STREAM_END: u8 = 10;
    /// Shed: the server is draining this listener for maintenance. Finish
    /// reading any in-flight replies, then reconnect elsewhere or retry
    /// later (retryable). Work opcodes (PROCESS_FRAME / INFER / STREAM)
    /// are answered GOAWAY while draining; HEALTH and METRICS stay
    /// answered inline so probes keep working.
    pub const GOAWAY: u8 = 11;
}

/// A decoding failure (maps to [`status::MALFORMED`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError(pub &'static str);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// A little-endian cursor over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError("length overflow"))?;
        if end > self.buf.len() {
            return Err(WireError(what));
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    /// `n` consecutive `u32`s as one array: one length check, one
    /// allocation, one pass. Callers bound `n` by [`Reader::remaining`]
    /// first where they want their own error text.
    fn u32s(&mut self, n: usize, what: &'static str) -> Result<Vec<u32>, WireError> {
        let bytes = self.take(n.checked_mul(4).ok_or(WireError("length overflow"))?, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// The coordinate triplets of an `n`-point frame, still interleaved
    /// (see [`cloud_from_triplets`]).
    fn triplets(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let bytes = n.checked_mul(12).ok_or(WireError("point count overflow"))?;
        self.take(bytes, "truncated coordinates")
    }

    fn f32(&mut self, what: &'static str) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    /// Bytes left to read — the bound any wire-declared element count must
    /// respect *before* its buffer is allocated.
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn done(&self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError("trailing bytes"))
        }
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a run of `u32`s: sized once, filled in place.
fn put_u32s(buf: &mut Vec<u8>, run: impl ExactSizeIterator<Item = u32>) {
    let at = buf.len();
    buf.resize(at + 4 * run.len(), 0);
    for (slot, v) in buf[at..].chunks_exact_mut(4).zip(run) {
        slot.copy_from_slice(&v.to_le_bytes());
    }
}

/// Points per block of [`cloud_from_triplets`]: 768 bytes of triplets,
/// which stay in L1 while the block's three axes are copied out of them.
const TRIPLET_BLOCK: usize = 64;

/// Deinterleaves wire coordinate triplets into the three arrays the cloud
/// then owns, in one pass over the payload: each block of
/// [`TRIPLET_BLOCK`] triplets is read from memory once and appended to the
/// three arrays while it sits in L1. The arrays are sized once and never
/// zero-filled, and every coordinate is a copy of its wire bits, so NaN
/// payloads, `-0.0`, infinities and subnormals arrive bit for bit.
fn cloud_from_triplets(triplets: &[u8]) -> PointCloud {
    let n = triplets.len() / 12;
    let mut axes = [Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n)];
    for block in triplets.chunks(12 * TRIPLET_BLOCK) {
        for (at, axis) in [0, 4, 8].into_iter().zip(&mut axes) {
            let coord = |t: &[u8]| f32::from_le_bytes(t[at..at + 4].try_into().expect("4 bytes"));
            axis.extend(block.chunks_exact(12).map(coord));
        }
    }
    let [xs, ys, zs] = axes;
    PointCloud::from_soa(xs, ys, zs).expect("three arrays of one length")
}

/// Appends a cloud's `n_points:u32` and coordinate triplets, interleaved
/// from its three arrays into a run sized once. The run is zero-filled
/// before it is written: forms that write each triplet only once (an exact
/// length flat map, 64-point blocks staged on the stack) measured slower.
fn put_cloud(buf: &mut Vec<u8>, cloud: &PointCloud) {
    put_u32(buf, cloud.len() as u32);
    let at = buf.len();
    buf.resize(at + 12 * cloud.len(), 0);
    let points = cloud.xs().iter().zip(cloud.ys()).zip(cloud.zs());
    for (slot, ((x, y), z)) in buf[at..].chunks_exact_mut(12).zip(points) {
        slot[0..4].copy_from_slice(&x.to_le_bytes());
        slot[4..8].copy_from_slice(&y.to_le_bytes());
        slot[8..12].copy_from_slice(&z.to_le_bytes());
    }
}

/// A PROCESS_FRAME-layout payload — pipeline parameters, the cloud, then
/// `trailer` — in one buffer sized exactly once.
fn encode_frame_payload(cloud: &PointCloud, config: &PipelineConfig, trailer: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(REQUEST_FIXED_BYTES + cloud.len() * 12 + 4 * trailer.len());
    put_u32(&mut buf, config.threshold as u32);
    buf.extend_from_slice(&config.sample_rate.to_le_bytes());
    buf.extend_from_slice(&config.radius.to_le_bytes());
    put_u32(&mut buf, config.neighbors as u32);
    put_cloud(&mut buf, cloud);
    for &word in trailer {
        put_u32(&mut buf, word);
    }
    buf
}

/// Encodes a process-frame request payload (the part after the 9-byte
/// header) with no wire deadline — byte-identical to what pre-deadline
/// clients send.
pub fn encode_request_payload(cloud: &PointCloud, config: &PipelineConfig) -> Vec<u8> {
    encode_request_payload_budget(cloud, config, 0, 0)
}

/// [`encode_request_payload`] with a per-request deadline in milliseconds
/// and a sample budget. A non-zero deadline rides as the optional trailing
/// `deadline_ms:u32`; zero ("use the server default") omits the field
/// entirely, so unbounded requests stay parseable by pre-deadline servers.
/// A non-zero budget has the server run the pipeline at
/// `n_samples = budget` (the first `budget` ranks of the frame's
/// coarse-to-fine ordering) instead of the full `sample_rate` allocation.
/// Zero means "full budget" and omits the field; a non-zero budget forces
/// the deadline field so the trailer stays positionally unambiguous
/// (`[deadline_ms [budget]]`).
pub fn encode_request_payload_budget(
    cloud: &PointCloud,
    config: &PipelineConfig,
    deadline_ms: u32,
    budget: u32,
) -> Vec<u8> {
    match (deadline_ms, budget) {
        (0, 0) => encode_frame_payload(cloud, config, &[]),
        (_, 0) => encode_frame_payload(cloud, config, &[deadline_ms]),
        _ => encode_frame_payload(cloud, config, &[deadline_ms, budget]),
    }
}

/// Decodes a process-frame request payload. The third element is the wire
/// deadline in milliseconds — 0 when absent or explicitly zero, meaning
/// "use the server's default" — and the fourth the sample budget (0 =
/// full).
///
/// # Errors
///
/// [`WireError`] when the payload is truncated, over-long, or its declared
/// point count disagrees with its length.
pub fn decode_request_payload(
    payload: &[u8],
) -> Result<(PointCloud, PipelineConfig, u32, u32), WireError> {
    let mut r = Reader { buf: payload, at: 0 };
    let (cloud, config) = decode_frame_prefix(&mut r)?;
    // Optional trailer: nothing, `deadline_ms`, or `deadline_ms budget`.
    let deadline_ms = if r.remaining() > 0 { r.u32("truncated deadline")? } else { 0 };
    let budget = if r.remaining() > 0 { r.u32("truncated budget")? } else { 0 };
    r.done()?;
    Ok((cloud, config, deadline_ms, budget))
}

/// The shared frame prefix of PROCESS_FRAME and STREAM payloads:
/// pipeline parameters plus coordinate triplets, leaving the cursor at the
/// opcode-specific trailer.
fn decode_frame_prefix(r: &mut Reader<'_>) -> Result<(PointCloud, PipelineConfig), WireError> {
    let threshold = r.u32("truncated threshold")? as usize;
    let sample_rate = r.f64("truncated sample_rate")?;
    let radius = r.f32("truncated radius")?;
    let neighbors = r.u32("truncated neighbors")? as usize;
    let n = r.u32("truncated point count")? as usize;
    let cloud = cloud_from_triplets(r.triplets(n)?);
    Ok((cloud, PipelineConfig::new(threshold, sample_rate, radius, neighbors)))
}

/// The streaming knobs that ride an [`OP_STREAM`] request after the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireStreamOpen {
    /// Samples in the first-paint chunk (0 = server default).
    pub first_paint: u32,
    /// Samples per refinement chunk (0 = server default).
    pub chunk: u32,
    /// Initial refinement-chunk credits (0 = server default). Each
    /// [`OP_STREAM_CREDIT`] frame adds one more.
    pub credits: u32,
}

/// Encodes an [`OP_STREAM`] request payload: the PROCESS_FRAME frame
/// prefix plus the required `deadline_ms first_paint chunk credits`
/// trailer.
pub fn encode_stream_request_payload(
    cloud: &PointCloud,
    config: &PipelineConfig,
    deadline_ms: u32,
    open: &WireStreamOpen,
) -> Vec<u8> {
    encode_frame_payload(cloud, config, &[deadline_ms, open.first_paint, open.chunk, open.credits])
}

/// Decodes an [`OP_STREAM`] request payload.
///
/// # Errors
///
/// [`WireError`] when the payload is truncated, over-long, or its declared
/// point count disagrees with its length.
pub fn decode_stream_request_payload(
    payload: &[u8],
) -> Result<(PointCloud, PipelineConfig, u32, WireStreamOpen), WireError> {
    let mut r = Reader { buf: payload, at: 0 };
    let (cloud, config) = decode_frame_prefix(&mut r)?;
    let deadline_ms = r.u32("truncated deadline")?;
    let open = WireStreamOpen {
        first_paint: r.u32("truncated first_paint")?,
        chunk: r.u32("truncated chunk")?,
        credits: r.u32("truncated credits")?,
    };
    r.done()?;
    Ok((cloud, config, deadline_ms, open))
}

/// Wire aggregation byte: use the server's default schedule (delayed).
pub const AGG_SERVER_DEFAULT: u8 = 0;
/// Wire aggregation byte: force the eager (gather-then-MLP) schedule.
pub const AGG_EAGER: u8 = 1;
/// Wire aggregation byte: force the Mesorasi delayed-aggregation schedule.
pub const AGG_DELAYED: u8 = 2;

/// The inference parameters that ride an [`OP_INFER`] request alongside
/// the frame itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireInferRequest {
    /// Partition leaf threshold (the stage-1 pipeline's `threshold`).
    pub threshold: u32,
    /// Deterministic weight seed — same seed, same logits, everywhere.
    pub seed: u64,
    /// Aggregation schedule byte: [`AGG_SERVER_DEFAULT`], [`AGG_EAGER`],
    /// or [`AGG_DELAYED`]. Anything else is malformed.
    pub aggregation: u8,
    /// Model-zoo notation, e.g. `"PN++ (c)"` — resolved against the
    /// server's Table I zoo; unknown notations are rejected as invalid.
    pub notation: String,
}

/// Encodes an [`OP_INFER`] request payload. A non-zero `deadline_ms` rides
/// as the same optional trailing `u32` as process-frame requests.
pub fn encode_infer_request_payload(
    cloud: &PointCloud,
    req: &WireInferRequest,
    deadline_ms: u32,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 8 + 1 + 4 + req.notation.len() + 4 + cloud.len() * 12 + 4);
    put_u32(&mut buf, req.threshold);
    buf.extend_from_slice(&req.seed.to_le_bytes());
    buf.push(req.aggregation);
    put_u32(&mut buf, req.notation.len() as u32);
    buf.extend_from_slice(req.notation.as_bytes());
    put_cloud(&mut buf, cloud);
    if deadline_ms > 0 {
        put_u32(&mut buf, deadline_ms);
    }
    buf
}

/// Decodes an [`OP_INFER`] request payload. The third element is the wire
/// deadline in milliseconds (0 when absent).
///
/// # Errors
///
/// [`WireError`] when the payload is truncated, over-long, carries an
/// unknown aggregation byte, a non-UTF-8 notation, or declared lengths
/// that disagree with the bytes present.
pub fn decode_infer_request_payload(
    payload: &[u8],
) -> Result<(PointCloud, WireInferRequest, u32), WireError> {
    let mut r = Reader { buf: payload, at: 0 };
    let threshold = r.u32("truncated threshold")?;
    let seed = r.u64("truncated seed")?;
    let aggregation = r.u8("truncated aggregation")?;
    if aggregation > AGG_DELAYED {
        return Err(WireError("unknown aggregation byte"));
    }
    let notation_len = r.u32("truncated notation length")? as usize;
    if notation_len > r.remaining() {
        return Err(WireError("notation length exceeds payload"));
    }
    let notation = std::str::from_utf8(r.take(notation_len, "truncated notation")?)
        .map_err(|_| WireError("notation is not UTF-8"))?
        .to_owned();
    let n = r.u32("truncated point count")? as usize;
    let triplets = r.triplets(n)?;
    let deadline_ms = if r.remaining() > 0 { r.u32("truncated deadline")? } else { 0 };
    r.done()?;
    Ok((
        cloud_from_triplets(triplets),
        WireInferRequest { threshold, seed, aggregation, notation },
        deadline_ms,
    ))
}

/// The inference results that cross the wire (the in-process
/// [`InferResponse`](crate::InferResponse) with logits as raw `f32` bit
/// patterns — a TCP round-trip is bit-identical to calling the engine
/// in-process).
#[derive(Debug, Clone, PartialEq)]
pub struct WireInferResponse {
    /// Output classes per row (`logits.len() == row_index.len() * classes`).
    pub classes: u32,
    /// Whether the partition came from the server's LRU.
    pub cache_hit: bool,
    /// Frames fused into the executing batch.
    pub batch_size: u32,
    /// The schedule that actually ran: [`AGG_EAGER`] or [`AGG_DELAYED`]
    /// (the server resolves [`AGG_SERVER_DEFAULT`] before replying).
    pub aggregation: u8,
    /// SA-stage MLP multiply-accumulates the delayed schedule performs.
    pub macs_moved: u64,
    /// MLP multiply-accumulates eliminated vs the eager schedule.
    pub macs_saved: u64,
    /// Bytes of neighbor-gather traffic the executed schedule incurred.
    pub gather_bytes: u64,
    /// Global point index each logit row describes.
    pub row_index: Vec<u32>,
    /// Row-major `rows × classes` class scores.
    pub logits: Vec<f32>,
}

/// Encodes an OK [`OP_INFER`] response payload into a caller-provided
/// buffer (the wire path's per-connection scratch form).
pub fn encode_infer_response_payload_into(resp: &WireInferResponse, buf: &mut Vec<u8>) {
    put_u32(buf, resp.classes);
    buf.push(u8::from(resp.cache_hit));
    put_u32(buf, resp.batch_size);
    buf.push(resp.aggregation);
    buf.extend_from_slice(&resp.macs_moved.to_le_bytes());
    buf.extend_from_slice(&resp.macs_saved.to_le_bytes());
    buf.extend_from_slice(&resp.gather_bytes.to_le_bytes());
    put_u32(buf, resp.row_index.len() as u32);
    for &v in &resp.row_index {
        put_u32(buf, v);
    }
    for &v in &resp.logits {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes an OK [`OP_INFER`] response payload.
///
/// # Errors
///
/// [`WireError`] when the payload is truncated, over-long, or its declared
/// row/class counts disagree with its length.
pub fn decode_infer_response_payload(payload: &[u8]) -> Result<WireInferResponse, WireError> {
    let mut r = Reader { buf: payload, at: 0 };
    let classes = r.u32("truncated classes")?;
    let cache_hit = r.u8("truncated cache_hit")? != 0;
    let batch_size = r.u32("truncated batch_size")?;
    let aggregation = r.u8("truncated aggregation")?;
    if aggregation != AGG_EAGER && aggregation != AGG_DELAYED {
        return Err(WireError("unknown aggregation byte"));
    }
    let macs_moved = r.u64("truncated macs_moved")?;
    let macs_saved = r.u64("truncated macs_saved")?;
    let gather_bytes = r.u64("truncated gather_bytes")?;
    // Validate declared counts against the bytes present before sizing any
    // buffer from them, mirroring `decode_response_payload`.
    let rows = r.u32("truncated row count")? as usize;
    let cells = rows.checked_mul(classes as usize).ok_or(WireError("logit count overflow"))?;
    if rows.checked_add(cells).ok_or(WireError("logit count overflow"))? > r.remaining() / 4 {
        return Err(WireError("row counts exceed payload"));
    }
    let row_index = r.u32s(rows, "truncated row index")?;
    let mut logits = Vec::with_capacity(cells);
    for _ in 0..cells {
        logits.push(r.f32("truncated logits")?);
    }
    r.done()?;
    Ok(WireInferResponse {
        classes,
        cache_hit,
        batch_size,
        aggregation,
        macs_moved,
        macs_saved,
        gather_bytes,
        row_index,
        logits,
    })
}

/// The response fields that cross the wire (the in-process
/// [`FrameResponse`] minus the op counters, which are observability data,
/// not results).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// Sampled global indices in block order.
    pub sampled_indices: Vec<u32>,
    /// `centers × num` neighbor indices, row-major.
    pub neighbor_indices: Vec<u32>,
    /// In-radius hits per center.
    pub found: Vec<u32>,
    /// Neighbor slots per center.
    pub num: u32,
    /// Leaf blocks in the partition.
    pub blocks: u32,
    /// Whether the partition came from the server's LRU.
    pub cache_hit: bool,
    /// Frames fused into the executing batch.
    pub batch_size: u32,
    /// Whether the server browned-out this request (ran it at a reduced
    /// sample budget). Wired as the *presence* of the `budget_served`
    /// trailer, so non-degraded responses stay byte-identical to
    /// pre-brown-out servers.
    pub degraded: bool,
    /// Samples actually served when `degraded` (0 otherwise). The results
    /// are the exact `budget_served`-sample prefix of the full run.
    pub budget_served: u32,
}

/// Encodes an OK response payload.
pub fn encode_response_payload(resp: &WireResponse) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        17 + 4 * (resp.sampled_indices.len() + resp.neighbor_indices.len() + resp.found.len() + 2),
    );
    encode_response_payload_into(resp, &mut buf);
    buf
}

/// [`encode_response_payload`] appending into a caller-provided buffer —
/// the wire path's per-connection scratch form (a warmed buffer encodes a
/// steady-state response with zero heap allocation).
pub fn encode_response_payload_into(resp: &WireResponse, buf: &mut Vec<u8>) {
    let runs = [&resp.sampled_indices, &resp.neighbor_indices, &resp.found];
    put_response(
        buf,
        [resp.blocks, resp.batch_size, resp.num],
        resp.cache_hit,
        runs.map(|v| v.iter().copied()),
        resp.degraded.then_some(resp.budget_served),
    );
}

/// Encodes a complete OK PROCESS_FRAME message — header and payload —
/// straight from the in-process response's index arrays, narrowing as it
/// writes: byte-identical to [`encode_message_into`] of
/// [`encode_response_payload_into`] of the [`WireResponse`] with the same
/// fields, with no owned copy and no payload staging in between.
pub(crate) fn encode_frame_response_message_into(resp: &FrameResponse, buf: &mut Vec<u8>) {
    let at = buf.len();
    encode_message_into(status::OK, &[], buf);
    let runs = [&resp.sampled_indices, &resp.neighbor_indices, &resp.found];
    put_response(
        buf,
        [resp.blocks, resp.batch_size, resp.num].map(|v| v as u32),
        resp.cache_hit,
        runs.map(|v| v.iter().map(|&i| i as u32)),
        resp.degraded.then_some(resp.budget_served as u32),
    );
    // The header went out with an empty payload; now the length is known.
    let payload_len = (buf.len() - at - 9) as u32;
    buf[at + 5..at + 9].copy_from_slice(&payload_len.to_le_bytes());
}

/// The one field-order body of an OK PROCESS_FRAME payload: the owned
/// ([`encode_response_payload_into`]) and the borrowed
/// ([`encode_frame_response_message_into`]) forms both write through it, so
/// their bytes cannot diverge. `runs` is `[sampled, neighbors, found]`;
/// `budget_served` is the brown-out trailer, whose presence *is* the
/// degraded flag.
fn put_response<I: ExactSizeIterator<Item = u32>>(
    buf: &mut Vec<u8>,
    [blocks, batch_size, num]: [u32; 3],
    cache_hit: bool,
    [sampled, neighbors, found]: [I; 3],
    budget_served: Option<u32>,
) {
    put_u32(buf, blocks);
    buf.push(u8::from(cache_hit));
    put_u32(buf, batch_size);
    put_u32(buf, sampled.len() as u32);
    put_u32s(buf, sampled);
    put_u32(buf, found.len() as u32);
    put_u32(buf, num);
    put_u32s(buf, neighbors);
    put_u32s(buf, found);
    if let Some(served) = budget_served {
        put_u32(buf, served);
    }
}

/// Decodes an OK response payload.
///
/// # Errors
///
/// [`WireError`] when the payload is truncated, over-long, or its internal
/// lengths disagree.
pub fn decode_response_payload(payload: &[u8]) -> Result<WireResponse, WireError> {
    let mut r = Reader { buf: payload, at: 0 };
    let blocks = r.u32("truncated blocks")?;
    let cache_hit = r.u8("truncated cache_hit")? != 0;
    let batch_size = r.u32("truncated batch_size")?;
    // Every declared count is validated against the bytes actually present
    // before any buffer is sized from it, so a hostile peer cannot force
    // allocations beyond the (already bounded) payload it sent.
    let n_sampled = r.u32("truncated sample count")? as usize;
    if n_sampled > r.remaining() / 4 {
        return Err(WireError("sample count exceeds payload"));
    }
    let sampled_indices = r.u32s(n_sampled, "truncated samples")?;
    let n_centers = r.u32("truncated center count")? as usize;
    let num = r.u32("truncated num")?;
    let slots = n_centers.checked_mul(num as usize).ok_or(WireError("slot count overflow"))?;
    if slots.checked_add(n_centers).ok_or(WireError("slot count overflow"))? > r.remaining() / 4 {
        return Err(WireError("neighbor counts exceed payload"));
    }
    let neighbor_indices = r.u32s(slots, "truncated neighbors")?;
    let found = r.u32s(n_centers, "truncated found")?;
    // Optional brown-out trailer: present iff the server degraded the
    // request.
    let (degraded, budget_served) =
        if r.remaining() > 0 { (true, r.u32("truncated budget_served")?) } else { (false, 0) };
    r.done()?;
    Ok(WireResponse {
        sampled_indices,
        neighbor_indices,
        found,
        num,
        blocks,
        cache_hit,
        batch_size,
        degraded,
        budget_served,
    })
}

/// Encodes an OK health response payload ([`OP_HEALTH`]).
pub fn encode_health_payload(h: &EngineHealth) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + 11 * 8);
    buf.push(u8::from(h.live));
    for v in [
        h.workers_alive,
        h.workers_configured,
        h.queued_by_class[0],
        h.queued_by_class[1],
        h.queued_by_class[2],
        h.last_progress_age_ms,
        h.worker_panics,
        h.workers_respawned,
        h.uptime_ms,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.push(u8::from(h.trace_enabled));
    buf.extend_from_slice(&h.trace_capacity.to_le_bytes());
    buf.extend_from_slice(&h.trace_dropped.to_le_bytes());
    buf.extend_from_slice(&h.streams_open.to_le_bytes());
    buf.push(u8::from(h.draining));
    buf.push(h.overload_level);
    buf
}

/// Decodes an OK health response payload.
///
/// # Errors
///
/// [`WireError`] when the payload is truncated or over-long.
pub fn decode_health_payload(payload: &[u8]) -> Result<EngineHealth, WireError> {
    let mut r = Reader { buf: payload, at: 0 };
    let live = r.u8("truncated live flag")? != 0;
    let workers_alive = r.u64("truncated workers_alive")?;
    let workers_configured = r.u64("truncated workers_configured")?;
    let queued_by_class = [
        r.u64("truncated queued_high")?,
        r.u64("truncated queued_normal")?,
        r.u64("truncated queued_bulk")?,
    ];
    let last_progress_age_ms = r.u64("truncated last_progress_age_ms")?;
    let worker_panics = r.u64("truncated worker_panics")?;
    let workers_respawned = r.u64("truncated workers_respawned")?;
    let uptime_ms = r.u64("truncated uptime_ms")?;
    let trace_enabled = r.u8("truncated trace_enabled")? != 0;
    let trace_capacity = r.u64("truncated trace_capacity")?;
    let trace_dropped = r.u64("truncated trace_dropped")?;
    let streams_open = r.u64("truncated streams_open")?;
    let draining = r.u8("truncated draining")? != 0;
    let overload_level = r.u8("truncated overload_level")?;
    r.done()?;
    Ok(EngineHealth {
        live,
        draining,
        overload_level,
        workers_alive,
        workers_configured,
        queued_by_class,
        last_progress_age_ms,
        worker_panics,
        workers_respawned,
        uptime_ms,
        trace_enabled,
        trace_capacity,
        trace_dropped,
        streams_open,
    })
}

/// One block's contribution to a streaming chunk: the refinement samples
/// it gains in this slice, with their neighbor rows and hit counts (the
/// wire form of [`fractalcloud_core::LodSegment`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireLodSegment {
    /// Leaf block index.
    pub block: u32,
    /// New sampled global indices (FPS order continues seamlessly).
    pub sampled: Vec<u32>,
    /// `sampled.len() × num` neighbor indices, row-major.
    pub grouped: Vec<u32>,
    /// In-radius hits per new center before padding.
    pub found: Vec<u32>,
}

/// One [`status::CHUNK`] payload: a contiguous coarse-to-fine LOD slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStreamChunk {
    /// 1-based chunk sequence number within the stream.
    pub seq: u32,
    /// Slice start depth (samples `lo..hi` of the frame's ordering).
    pub lo: u32,
    /// Slice end depth.
    pub hi: u32,
    /// Total samples in the full ordering (the maximum depth).
    pub total: u32,
    /// Leaf blocks in the partition.
    pub blocks: u32,
    /// Neighbor slots per center.
    pub num: u32,
    /// Whether the frame's ordering came from the server's LRU (true for
    /// every chunk after the first viewer computes it).
    pub cache_hit: bool,
    /// Per-block refinement deltas, block order, empty blocks omitted.
    pub segments: Vec<WireLodSegment>,
}

/// The fixed head of a [`status::CHUNK`] payload:
/// `[seq, lo, hi, total, blocks, num]`, the cache flag, the segment count.
fn put_chunk_head(buf: &mut Vec<u8>, head: [u32; 6], cache_hit: bool, segments: usize) {
    for v in head {
        put_u32(buf, v);
    }
    buf.push(u8::from(cache_hit));
    put_u32(buf, segments as u32);
}

/// One segment of a [`status::CHUNK`] payload — the one segment encoder:
/// the owned ([`encode_stream_chunk_into`]) and the borrowed
/// ([`encode_stream_cut_into`]) chunk forms both write through it, so
/// their bytes cannot diverge. Each run is sized once and filled in place.
fn put_segment<I: ExactSizeIterator<Item = u32>>(buf: &mut Vec<u8>, block: u32, runs: [I; 3]) {
    put_u32(buf, block);
    put_u32(buf, runs[0].len() as u32);
    for run in runs {
        put_u32s(buf, run);
    }
}

/// Encodes a [`status::CHUNK`] payload into a caller-provided buffer.
pub fn encode_stream_chunk_into(chunk: &WireStreamChunk, buf: &mut Vec<u8>) {
    let head = [chunk.seq, chunk.lo, chunk.hi, chunk.total, chunk.blocks, chunk.num];
    put_chunk_head(buf, head, chunk.cache_hit, chunk.segments.len());
    for seg in &chunk.segments {
        let runs = [&seg.sampled, &seg.grouped, &seg.found].map(|v| v.iter().copied());
        put_segment(buf, seg.block, runs);
    }
}

/// Encodes the [`status::CHUNK`] payload of the cut the cursor stands on,
/// straight from the slices it borrows — byte-identical to
/// [`encode_stream_chunk_into`] of the [`WireStreamChunk`] built from
/// [`PipelineOutput::slice_level`](fractalcloud_core::PipelineOutput::slice_level)
/// at the same `(lo, hi]`, with no owned copy in between.
pub fn encode_stream_cut_into(seq: u32, cache_hit: bool, cut: &LodCursor<'_>, buf: &mut Vec<u8>) {
    let out = cut.output();
    let head = [cut.lo(), cut.hi(), out.total_samples(), out.blocks, out.grouped.num];
    let [lo, hi, total, blocks, num] = head.map(|v| v as u32);
    put_chunk_head(buf, [seq, lo, hi, total, blocks, num], cache_hit, cut.segments().count());
    for seg in cut.segments() {
        let runs = [seg.sampled, seg.grouped, seg.found].map(|v| v.iter().map(|&i| i as u32));
        put_segment(buf, seg.block as u32, runs);
    }
}

/// A chunk's depths: `lo ≤ hi ≤ total`, so `hi - lo` samples is a count.
fn check_chunk_depths(lo: u32, hi: u32, total: u32) -> Result<(), WireError> {
    if hi < lo {
        return Err(WireError("chunk ends before it starts"));
    }
    if hi > total {
        return Err(WireError("chunk ends past the total"));
    }
    Ok(())
}

/// Decodes a [`status::CHUNK`] payload.
///
/// # Errors
///
/// [`WireError`] when the payload is truncated, over-long, its depths are
/// out of order (`hi < lo` or `hi > total`), or a declared segment count
/// disagrees with the bytes present.
pub fn decode_stream_chunk_payload(payload: &[u8]) -> Result<WireStreamChunk, WireError> {
    let mut r = Reader { buf: payload, at: 0 };
    let seq = r.u32("truncated seq")?;
    let lo = r.u32("truncated lo")?;
    let hi = r.u32("truncated hi")?;
    let total = r.u32("truncated total")?;
    let blocks = r.u32("truncated blocks")?;
    let num = r.u32("truncated num")?;
    let cache_hit = r.u8("truncated cache_hit")? != 0;
    check_chunk_depths(lo, hi, total)?;
    let nseg = r.u32("truncated segment count")? as usize;
    // Every declared count is validated against the bytes actually present
    // before any buffer is sized from it (hostile-peer rule).
    if nseg > r.remaining() / 8 {
        return Err(WireError("segment count exceeds payload"));
    }
    let mut segments = Vec::with_capacity(nseg);
    for _ in 0..nseg {
        let block = r.u32("truncated segment block")?;
        let count = r.u32("truncated segment length")? as usize;
        let rows = count.checked_mul(num as usize).ok_or(WireError("segment size overflow"))?;
        let cells = count
            .checked_add(rows)
            .and_then(|v| v.checked_add(count))
            .ok_or(WireError("segment size overflow"))?;
        if cells > r.remaining() / 4 {
            return Err(WireError("segment length exceeds payload"));
        }
        let sampled = r.u32s(count, "truncated segment samples")?;
        let grouped = r.u32s(rows, "truncated segment neighbors")?;
        let found = r.u32s(count, "truncated segment found")?;
        segments.push(WireLodSegment { block, sampled, grouped, found });
    }
    r.done()?;
    Ok(WireStreamChunk { seq, lo, hi, total, blocks, num, cache_hit, segments })
}

/// The terminating [`status::STREAM_END`] payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStreamEnd {
    /// Chunks delivered (first paint included).
    pub chunks: u32,
    /// Refinement depth reached (samples delivered in total).
    pub delivered: u32,
    /// Whether the client cancelled mid-stream.
    pub cancelled: bool,
}

/// Encodes a [`status::STREAM_END`] payload into a caller-provided buffer.
pub fn encode_stream_end_into(end: &WireStreamEnd, buf: &mut Vec<u8>) {
    put_u32(buf, end.chunks);
    put_u32(buf, end.delivered);
    buf.push(u8::from(end.cancelled));
}

/// Decodes a [`status::STREAM_END`] payload.
///
/// # Errors
///
/// [`WireError`] when the payload is truncated or over-long.
pub fn decode_stream_end_payload(payload: &[u8]) -> Result<WireStreamEnd, WireError> {
    let mut r = Reader { buf: payload, at: 0 };
    let chunks = r.u32("truncated chunks")?;
    let delivered = r.u32("truncated delivered")?;
    let cancelled = r.u8("truncated cancelled")? != 0;
    r.done()?;
    Ok(WireStreamEnd { chunks, delivered, cancelled })
}

/// Client-side reassembly of streaming chunks into the response a direct
/// budget request returns.
///
/// The pushed segments are stored flat, in arrival order: their sampled,
/// neighbor and found runs are appended to three `u32` arrays, and a
/// `(block, count)` table records the segments. So a chunk costs what its
/// bytes cost — three appends per segment and one table entry — however
/// many blocks the partition has, and nothing is sized from a declared
/// count (`blocks`, `total`) that received bytes do not back.
/// [`StreamAccumulator::response`] puts the runs in block order with one
/// stable sort of the table (each chunk's segments already arrive in block
/// order, so the sort merges runs) and one gather. A block's segments keep
/// their arrival order, so its samples continue its FPS order — exactly
/// the layout [`encode_response_payload`] wires for a PROCESS_FRAME run.
/// After pushing chunks `1..=n`, `response()` therefore encodes
/// byte-for-byte the payload a direct `budget = hi_n` request would have
/// returned (for the same warm frame; `cache_hit` is taken from the first
/// chunk and `batch_size` is 1, matching an unbatched direct request).
///
/// A chunk is checked whole before any of it is folded in: a refused push
/// leaves the accumulator as it was.
#[derive(Debug, Clone, Default)]
pub struct StreamAccumulator {
    blocks: u32,
    num: u32,
    total: u32,
    cache_hit: bool,
    depth: u32,
    chunks: u32,
    /// `(block, samples)` of every folded segment, in arrival order.
    segments: Vec<(u32, u32)>,
    /// The folded segments' runs, concatenated in arrival order.
    sampled: Vec<u32>,
    grouped: Vec<u32>,
    found: Vec<u32>,
}

impl StreamAccumulator {
    /// An empty accumulator; the first pushed chunk fixes the geometry.
    pub fn new() -> StreamAccumulator {
        StreamAccumulator::default()
    }

    /// Folds one chunk in, or refuses it and changes nothing.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the chunk is non-contiguous with the depth
    /// reached so far, ends before it starts or past the total, disagrees
    /// with the stream's geometry, references an out-of-range block, or
    /// carries rows that do not add up to its `hi - lo` samples.
    pub fn push(&mut self, chunk: &WireStreamChunk) -> Result<(), WireError> {
        let geometry = (chunk.blocks, chunk.num, chunk.total);
        if self.chunks > 0 && geometry != (self.blocks, self.num, self.total) {
            return Err(WireError("chunk geometry changed mid-stream"));
        }
        if chunk.lo != self.depth {
            return Err(WireError("non-contiguous chunk"));
        }
        check_chunk_depths(chunk.lo, chunk.hi, chunk.total)?;
        let mut delivered = 0usize;
        for seg in &chunk.segments {
            if seg.block >= chunk.blocks {
                return Err(WireError("segment block out of range"));
            }
            let count = seg.sampled.len();
            if seg.found.len() != count
                || count.checked_mul(chunk.num as usize) != Some(seg.grouped.len())
            {
                return Err(WireError("segment row shape mismatch"));
            }
            delivered += count;
        }
        if delivered != (chunk.hi - chunk.lo) as usize {
            return Err(WireError("chunk sample count mismatch"));
        }

        if self.chunks == 0 {
            (self.blocks, self.num, self.total) = geometry;
            self.cache_hit = chunk.cache_hit;
        }
        // `delivered` is backed by the rows just checked, so reserving it
        // sizes nothing from a declared count.
        self.sampled.reserve(delivered);
        self.grouped.reserve(delivered * chunk.num as usize);
        self.found.reserve(delivered);
        for seg in &chunk.segments {
            // `count ≤ hi - lo`, a `u32`.
            self.segments.push((seg.block, seg.sampled.len() as u32));
            self.sampled.extend_from_slice(&seg.sampled);
            self.grouped.extend_from_slice(&seg.grouped);
            self.found.extend_from_slice(&seg.found);
        }
        self.depth = chunk.hi;
        self.chunks += 1;
        Ok(())
    }

    /// Refinement depth reached (samples accumulated).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Total samples the stream could refine to.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Chunks folded in so far.
    pub fn chunks(&self) -> u32 {
        self.chunks
    }

    /// The accumulated state as the [`WireResponse`] a direct
    /// `budget = depth()` request returns (block-order concatenation,
    /// `batch_size` 1).
    pub fn response(&self) -> WireResponse {
        let num = self.num as usize;
        // Each segment's block and sample range in the flat runs, then
        // block order; the sort is stable, so a block's segments stay in
        // arrival (FPS) order.
        let mut at = 0usize;
        let mut runs: Vec<(u32, usize, usize)> = self
            .segments
            .iter()
            .map(|&(block, count)| {
                let run = (block, at, at + count as usize);
                at = run.2;
                run
            })
            .collect();
        runs.sort_by_key(|run| run.0);
        let mut sampled_indices = Vec::with_capacity(self.sampled.len());
        let mut neighbor_indices = Vec::with_capacity(self.grouped.len());
        let mut found = Vec::with_capacity(self.found.len());
        for (_, lo, hi) in runs {
            sampled_indices.extend_from_slice(&self.sampled[lo..hi]);
            neighbor_indices.extend_from_slice(&self.grouped[lo * num..hi * num]);
            found.extend_from_slice(&self.found[lo..hi]);
        }
        WireResponse {
            sampled_indices,
            neighbor_indices,
            found,
            num: self.num,
            blocks: self.blocks,
            cache_hit: self.cache_hit,
            batch_size: 1,
            degraded: false,
            budget_served: 0,
        }
    }
}

/// Encodes a complete message: header plus payload.
pub fn encode_message(kind_byte: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(9 + payload.len());
    encode_message_into(kind_byte, payload, &mut buf);
    buf
}

/// [`encode_message`] appending into a caller-provided buffer (the wire
/// path's per-connection scratch form).
pub fn encode_message_into(kind_byte: u8, payload: &[u8], buf: &mut Vec<u8>) {
    buf.extend_from_slice(&message_header(kind_byte, payload.len()));
    buf.extend_from_slice(payload);
}

/// The 9-byte header [`encode_message`] puts before a `payload_len`-byte
/// payload — for writers that send the payload from where it already is.
pub fn message_header(kind_byte: u8, payload_len: usize) -> [u8; 9] {
    let mut header = [0; 9];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = kind_byte;
    header[5..9].copy_from_slice(&(payload_len as u32).to_le_bytes());
    header
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractalcloud_pointcloud::generate::uniform_cube;

    #[test]
    fn request_round_trips() {
        let cloud = uniform_cube(100, 1);
        let cfg = PipelineConfig::new(64, 0.5, 0.3, 8);
        let payload = encode_request_payload(&cloud, &cfg);
        assert_eq!(payload.len(), REQUEST_FIXED_BYTES + 1200);
        let (cloud2, cfg2, deadline_ms, budget) = decode_request_payload(&payload).unwrap();
        assert_eq!(cloud, cloud2);
        assert_eq!(cfg, cfg2);
        assert_eq!(deadline_ms, 0);
        assert_eq!(budget, 0);
    }

    #[test]
    fn deadline_rides_as_an_optional_trailer() {
        let cloud = uniform_cube(16, 2);
        let cfg = PipelineConfig::default();
        // Zero deadline encodes byte-identically to the legacy payload …
        assert_eq!(
            encode_request_payload_budget(&cloud, &cfg, 0, 0),
            encode_request_payload(&cloud, &cfg)
        );
        // … while a non-zero one appends exactly 4 bytes and round-trips.
        let with = encode_request_payload_budget(&cloud, &cfg, 250, 0);
        assert_eq!(with.len(), encode_request_payload(&cloud, &cfg).len() + 4);
        let (cloud2, cfg2, deadline_ms, budget) = decode_request_payload(&with).unwrap();
        assert_eq!(cloud, cloud2);
        assert_eq!(cfg, cfg2);
        assert_eq!(deadline_ms, 250);
        assert_eq!(budget, 0);
        // A budget rides as a second trailer field (and forces the
        // deadline field so positions stay unambiguous).
        let budgeted = encode_request_payload_budget(&cloud, &cfg, 0, 77);
        assert_eq!(budgeted.len(), encode_request_payload(&cloud, &cfg).len() + 8);
        let (_, _, deadline_ms, budget) = decode_request_payload(&budgeted).unwrap();
        assert_eq!(deadline_ms, 0);
        assert_eq!(budget, 77);
    }

    #[test]
    fn health_round_trips() {
        let h = EngineHealth {
            live: true,
            draining: true,
            overload_level: 2,
            workers_alive: 3,
            workers_configured: 4,
            queued_by_class: [1, 2, 3],
            last_progress_age_ms: 1234,
            worker_panics: 7,
            workers_respawned: 6,
            uptime_ms: 98_765,
            trace_enabled: true,
            trace_capacity: 16_384,
            trace_dropped: 42,
            streams_open: 2,
        };
        let payload = encode_health_payload(&h);
        assert_eq!(payload.len(), 2 + 12 * 8 + 2);
        assert_eq!(decode_health_payload(&payload).unwrap(), h);
        assert!(decode_health_payload(&payload[..payload.len() - 1]).is_err());
        let mut long = payload;
        long.push(0);
        assert_eq!(decode_health_payload(&long), Err(WireError("trailing bytes")));
    }

    #[test]
    fn response_round_trips() {
        let resp = WireResponse {
            sampled_indices: vec![5, 9, 200],
            neighbor_indices: vec![1, 2, 3, 4, 5, 6],
            found: vec![2, 1, 2],
            num: 2,
            blocks: 7,
            cache_hit: true,
            batch_size: 3,
            degraded: false,
            budget_served: 0,
        };
        let payload = encode_response_payload(&resp);
        assert_eq!(decode_response_payload(&payload).unwrap(), resp);
    }

    #[test]
    fn degraded_marker_rides_as_an_optional_trailer() {
        let full = WireResponse {
            sampled_indices: vec![5, 9, 200],
            neighbor_indices: vec![1, 2, 3, 4, 5, 6],
            found: vec![2, 1, 2],
            num: 2,
            blocks: 7,
            cache_hit: false,
            batch_size: 1,
            degraded: false,
            budget_served: 0,
        };
        let degraded = WireResponse { degraded: true, budget_served: 3, ..full.clone() };
        // A degraded response appends exactly 4 bytes and round-trips …
        let with = encode_response_payload(&degraded);
        assert_eq!(with.len(), encode_response_payload(&full).len() + 4);
        assert_eq!(decode_response_payload(&with).unwrap(), degraded);
        // … while a non-degraded one is byte-identical to a pre-brown-out
        // server's encoding (presence of the trailer *is* the flag).
        assert_eq!(decode_response_payload(&encode_response_payload(&full)).unwrap(), full);
        // A partial trailer is malformed, not silently ignored.
        assert!(decode_response_payload(&with[..with.len() - 1]).is_err());
    }

    #[test]
    fn truncated_and_overlong_payloads_are_malformed() {
        let cloud = uniform_cube(10, 2);
        let payload = encode_request_payload(&cloud, &PipelineConfig::default());
        assert!(decode_request_payload(&payload[..payload.len() - 1]).is_err());
        // A partial trailer (1–3 extra bytes) is truncated, not a deadline;
        // 5 extra bytes leave a partial budget after the deadline; 9 leave
        // a trailing byte after both fields.
        let mut long = payload.clone();
        long.push(0);
        assert_eq!(decode_request_payload(&long), Err(WireError("truncated deadline")));
        let mut way_long = payload.clone();
        way_long.extend_from_slice(&[1, 0, 0, 0, 9]);
        assert_eq!(decode_request_payload(&way_long), Err(WireError("truncated budget")));
        let mut over_long = payload.clone();
        over_long.extend_from_slice(&[1, 0, 0, 0, 9, 0, 0, 0, 5]);
        assert_eq!(decode_request_payload(&over_long), Err(WireError("trailing bytes")));
        assert!(decode_request_payload(&[]).is_err());
    }

    #[test]
    fn declared_point_count_must_match_bytes() {
        let cloud = uniform_cube(4, 3);
        let mut payload = encode_request_payload(&cloud, &PipelineConfig::default());
        // Claim 5 points while carrying 4.
        let at = REQUEST_FIXED_BYTES - 4;
        payload[at..at + 4].copy_from_slice(&5u32.to_le_bytes());
        assert!(decode_request_payload(&payload).is_err());
    }

    #[test]
    fn huge_declared_counts_are_rejected_before_allocation() {
        // A tiny payload claiming u32::MAX samples must error, not try to
        // reserve gigabytes.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u32.to_le_bytes()); // blocks
        payload.push(0); // cache_hit
        payload.extend_from_slice(&1u32.to_le_bytes()); // batch_size
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // n_sampled
        assert_eq!(
            decode_response_payload(&payload),
            Err(WireError("sample count exceeds payload"))
        );

        // Same for the neighbor matrix: n_centers * num overflowing or
        // exceeding the remaining bytes.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u32.to_le_bytes());
        payload.push(0);
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes()); // n_sampled = 0
        payload.extend_from_slice(&1000u32.to_le_bytes()); // n_centers
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // num
        assert!(decode_response_payload(&payload).is_err());
        // Both at their maximum: the product overflows a 32-bit `usize`
        // and exceeds any payload on a 64-bit one.
        let at = payload.len() - 8;
        payload[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response_payload(&payload).is_err());
    }

    /// An in-process response with `centers` centres of `num` slots each,
    /// and the wire struct holding the same fields narrowed.
    fn frame_response(centers: usize, num: usize, degraded: bool) -> (FrameResponse, WireResponse) {
        let resp = FrameResponse {
            sampled_indices: (0..centers).map(|i| i * 4 + 1).collect(),
            neighbor_indices: (0..centers * num).map(|i| (i * 7919) % 65_536).collect(),
            found: (0..centers).map(|i| i % (num + 1)).collect(),
            num,
            blocks: 392,
            cache_hit: centers % 2 == 1,
            batch_size: 3,
            degraded,
            budget_served: if degraded { centers } else { 0 },
            ..FrameResponse::default()
        };
        let narrow = |v: &[usize]| v.iter().map(|&i| i as u32).collect::<Vec<u32>>();
        let wire = WireResponse {
            sampled_indices: narrow(&resp.sampled_indices),
            neighbor_indices: narrow(&resp.neighbor_indices),
            found: narrow(&resp.found),
            num: num as u32,
            blocks: 392,
            cache_hit: resp.cache_hit,
            batch_size: 3,
            degraded,
            budget_served: resp.budget_served as u32,
        };
        (resp, wire)
    }

    #[test]
    fn frame_response_message_equals_the_owned_encoding_byte_for_byte() {
        for centers in [0usize, 1, 16_384] {
            for num in [1usize, 16, 33] {
                for degraded in [false, true] {
                    let (resp, wire) = frame_response(centers, num, degraded);
                    let owned = encode_message(status::OK, &encode_response_payload(&wire));
                    // Appended behind bytes already in the buffer: the
                    // length is patched at the message's own header.
                    let mut buf = vec![0xAB; 5];
                    encode_frame_response_message_into(&resp, &mut buf);
                    assert_eq!(&buf[..5], &[0xAB; 5]);
                    assert!(buf[5..] == owned[..], "centers {centers} num {num} {degraded}");
                    assert_eq!(decode_response_payload(&buf[5 + 9..]).unwrap(), wire);
                }
            }
        }
    }

    #[test]
    fn every_truncation_and_a_trailing_byte_of_a_response_are_malformed() {
        let (_, wire) = frame_response(5, 3, false);
        let payload = encode_response_payload(&wire);
        assert_eq!(payload.len(), 21 + 4 * (5 + 15 + 5));
        for cut in 0..payload.len() {
            assert!(decode_response_payload(&payload[..cut]).is_err(), "prefix of {cut} bytes");
        }
        // One byte past a plain response is a partial brown-out trailer;
        // one byte past a degraded one is trailing garbage.
        let mut long = payload.clone();
        long.push(0);
        assert_eq!(decode_response_payload(&long), Err(WireError("truncated budget_served")));
        let (_, wire) = frame_response(5, 3, true);
        let mut long = encode_response_payload(&wire);
        long.push(0);
        assert_eq!(decode_response_payload(&long), Err(WireError("trailing bytes")));
    }

    #[test]
    fn decoded_request_coordinates_keep_every_bit() {
        // NaNs with payloads and either sign, a signalling NaN, both zeros,
        // infinities, a subnormal: the wire and the deinterleave move bits.
        let odd = [0x7fc0_1234u32, 0xffc0_0001, 0x7f80_0001, 0x8000_0000, 0, 0x7f80_0000, 1];
        let coord = |i: usize| f32::from_bits(odd[i % odd.len()]);
        let n = 23;
        let cloud = PointCloud::from_soa(
            (0..n).map(coord).collect(),
            (0..n).map(|i| coord(i + 2)).collect(),
            (0..n).map(|i| coord(i * 3 + 1)).collect(),
        )
        .unwrap();
        let bits = |c: &PointCloud| {
            [c.xs(), c.ys(), c.zs()].map(|v| v.iter().map(|c| c.to_bits()).collect::<Vec<u32>>())
        };
        let frame = encode_request_payload(&cloud, &PipelineConfig::default());
        assert_eq!(bits(&decode_request_payload(&frame).unwrap().0), bits(&cloud));
        let req = WireInferRequest {
            threshold: 64,
            seed: 1,
            aggregation: AGG_DELAYED,
            notation: "PN++ (c)".to_owned(),
        };
        let infer = encode_infer_request_payload(&cloud, &req, 0);
        assert_eq!(bits(&decode_infer_request_payload(&infer).unwrap().0), bits(&cloud));
    }

    #[test]
    fn priority_rides_the_kind_byte_high_nibble() {
        // A Normal request is byte-identical to a pre-priority client's.
        assert_eq!(request_kind(Priority::Normal), OP_PROCESS_FRAME);
        for p in Priority::ALL {
            let kind = request_kind(p);
            let (opcode, nibble) = split_kind(kind);
            assert_eq!(opcode, OP_PROCESS_FRAME);
            assert_eq!(Priority::from_wire(nibble), Some(p));
        }
        // Old clients (high nibble 0) decode as the Normal default;
        // unknown nibbles are rejected rather than guessed.
        assert_eq!(Priority::from_wire(split_kind(OP_PROCESS_FRAME).1), Some(Priority::Normal));
        assert_eq!(Priority::from_wire(0xF), None);
    }

    #[test]
    fn infer_request_round_trips() {
        let cloud = uniform_cube(50, 4);
        let req = WireInferRequest {
            threshold: 64,
            seed: 0xDEAD_BEEF,
            aggregation: AGG_DELAYED,
            notation: "PN++ (c)".to_owned(),
        };
        let payload = encode_infer_request_payload(&cloud, &req, 0);
        let (cloud2, req2, deadline_ms) = decode_infer_request_payload(&payload).unwrap();
        assert_eq!(cloud, cloud2);
        assert_eq!(req, req2);
        assert_eq!(deadline_ms, 0);
        // Deadline rides the same optional trailer as process-frame.
        let with = encode_infer_request_payload(&cloud, &req, 750);
        assert_eq!(with.len(), payload.len() + 4);
        assert_eq!(decode_infer_request_payload(&with).unwrap().2, 750);
        // Truncation anywhere is malformed, not a panic.
        for cut in 0..payload.len() {
            assert!(decode_infer_request_payload(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn infer_request_rejects_hostile_fields() {
        let cloud = uniform_cube(4, 1);
        let req = WireInferRequest {
            threshold: 32,
            seed: 1,
            aggregation: AGG_SERVER_DEFAULT,
            notation: "PN++ (s)".to_owned(),
        };
        let mut payload = encode_infer_request_payload(&cloud, &req, 0);
        // Unknown aggregation byte.
        payload[12] = 9;
        assert_eq!(
            decode_infer_request_payload(&payload),
            Err(WireError("unknown aggregation byte"))
        );
        payload[12] = AGG_EAGER;
        // Notation length claiming more bytes than the payload holds must
        // fail before any allocation.
        payload[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_infer_request_payload(&payload),
            Err(WireError("notation length exceeds payload"))
        );
    }

    #[test]
    fn infer_response_round_trips_bit_exact() {
        // Logit values that only survive a round-trip if the codec is
        // bit-exact: NaN, -0.0, subnormals.
        let resp = WireInferResponse {
            classes: 3,
            cache_hit: true,
            batch_size: 2,
            aggregation: AGG_DELAYED,
            macs_moved: 123_456,
            macs_saved: 987_654,
            gather_bytes: 55_555,
            row_index: vec![7, 0, 31],
            logits: vec![f32::NAN, -0.0, 1.5e-42, -3.25, 0.0, f32::INFINITY, 1.0, 2.0, 3.0],
        };
        let mut payload = Vec::new();
        encode_infer_response_payload_into(&resp, &mut payload);
        let back = decode_infer_response_payload(&payload).unwrap();
        assert_eq!(back.row_index, resp.row_index);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.logits), bits(&resp.logits));
        assert_eq!(back.classes, 3);
        assert_eq!(back.aggregation, AGG_DELAYED);
        assert_eq!(
            (back.macs_moved, back.macs_saved, back.gather_bytes),
            (123_456, 987_654, 55_555)
        );
        for cut in 0..payload.len() {
            assert!(decode_infer_response_payload(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn infer_response_rejects_hostile_counts() {
        // A tiny payload declaring u32::MAX rows must error before any
        // buffer is sized from it.
        let mut payload = Vec::new();
        payload.extend_from_slice(&40u32.to_le_bytes()); // classes
        payload.push(0); // cache_hit
        payload.extend_from_slice(&1u32.to_le_bytes()); // batch_size
        payload.push(AGG_EAGER);
        payload.extend_from_slice(&[0u8; 24]); // three u64 counters
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // rows
        assert!(decode_infer_response_payload(&payload).is_err());
        // A resolved response never carries the server-default byte.
        let mut bad_agg = payload.clone();
        let at = 4 + 1 + 4;
        bad_agg[at] = AGG_SERVER_DEFAULT;
        assert_eq!(
            decode_infer_response_payload(&bad_agg),
            Err(WireError("unknown aggregation byte"))
        );
    }

    #[test]
    fn infer_kind_byte_carries_priority() {
        assert_eq!(infer_request_kind(Priority::Normal), OP_INFER);
        for p in Priority::ALL {
            let (opcode, nibble) = split_kind(infer_request_kind(p));
            assert_eq!(opcode, OP_INFER);
            assert_eq!(Priority::from_wire(nibble), Some(p));
        }
    }

    #[test]
    fn stream_request_round_trips() {
        let cloud = uniform_cube(30, 5);
        let cfg = PipelineConfig::new(64, 0.5, 0.3, 8);
        let open = WireStreamOpen { first_paint: 64, chunk: 128, credits: 2 };
        let payload = encode_stream_request_payload(&cloud, &cfg, 500, &open);
        let (cloud2, cfg2, deadline_ms, open2) = decode_stream_request_payload(&payload).unwrap();
        assert_eq!(cloud, cloud2);
        assert_eq!(cfg, cfg2);
        assert_eq!(deadline_ms, 500);
        assert_eq!(open, open2);
        // The trailer is mandatory: truncation anywhere is malformed.
        for cut in 0..payload.len() {
            assert!(decode_stream_request_payload(&payload[..cut]).is_err());
        }
        // Kind byte carries the priority like every other opcode.
        for p in Priority::ALL {
            let (opcode, nibble) = split_kind(stream_request_kind(p));
            assert_eq!(opcode, OP_STREAM);
            assert_eq!(Priority::from_wire(nibble), Some(p));
        }
    }

    #[test]
    fn stream_chunk_round_trips() {
        let chunk = WireStreamChunk {
            seq: 2,
            lo: 3,
            hi: 6,
            total: 12,
            blocks: 4,
            num: 2,
            cache_hit: true,
            segments: vec![
                WireLodSegment {
                    block: 0,
                    sampled: vec![10, 11],
                    grouped: vec![1, 2, 3, 4],
                    found: vec![2, 1],
                },
                WireLodSegment { block: 3, sampled: vec![40], grouped: vec![9, 9], found: vec![0] },
            ],
        };
        let mut payload = Vec::new();
        encode_stream_chunk_into(&chunk, &mut payload);
        assert_eq!(decode_stream_chunk_payload(&payload).unwrap(), chunk);
        for cut in 0..payload.len() {
            assert!(decode_stream_chunk_payload(&payload[..cut]).is_err());
        }
        let end = WireStreamEnd { chunks: 3, delivered: 6, cancelled: true };
        let mut buf = Vec::new();
        encode_stream_end_into(&end, &mut buf);
        assert_eq!(decode_stream_end_payload(&buf).unwrap(), end);
        assert!(decode_stream_end_payload(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn borrowed_cut_encodes_byte_identically_to_the_owned_chunk() {
        // The wire-compatibility gate of connection-side slicing: at every
        // chunk of every stream shape, the payload written straight from
        // the cursor's borrowed rows equals the owned `slice_level` →
        // `WireStreamChunk` → `encode_stream_chunk_into` bytes, and decodes
        // back to that chunk.
        use fractalcloud_core::Pipeline;
        use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
        let cloud = scene_cloud(&SceneConfig::default(), 4096, 21);
        let out = Pipeline::new(PipelineConfig::default()).unwrap().run(&cloud, false).unwrap();
        let total = out.total_samples();
        let narrow = |v: &[usize]| v.iter().map(|&i| i as u32).collect::<Vec<u32>>();
        for (first_paint, chunk) in [(1, 1), (16, 16), (100, 230), (512, 512), (total + 7, 1)] {
            let mut cursor = LodCursor::new(&out);
            let (mut seq, mut hi) = (0u32, first_paint);
            while seq == 0 || cursor.hi() < total {
                let lo = cursor.hi();
                cursor.advance(hi);
                seq += 1;
                let cache_hit = seq % 2 == 0;
                let mut borrowed = Vec::new();
                encode_stream_cut_into(seq, cache_hit, &cursor, &mut borrowed);

                let slice = out.slice_level(lo, hi);
                let owned = WireStreamChunk {
                    seq,
                    lo: slice.lo as u32,
                    hi: slice.hi as u32,
                    total: slice.total as u32,
                    blocks: slice.blocks as u32,
                    num: slice.num as u32,
                    cache_hit,
                    segments: slice
                        .segments
                        .iter()
                        .map(|s| WireLodSegment {
                            block: s.block as u32,
                            sampled: narrow(&s.sampled),
                            grouped: narrow(&s.grouped),
                            found: narrow(&s.found),
                        })
                        .collect(),
                };
                let mut owned_bytes = Vec::new();
                encode_stream_chunk_into(&owned, &mut owned_bytes);
                assert_eq!(
                    borrowed, owned_bytes,
                    "chunk {seq} of ({first_paint}, {chunk}) diverged"
                );
                assert_eq!(decode_stream_chunk_payload(&borrowed).unwrap(), owned);
                hi = cursor.hi() + chunk;
            }
            assert_eq!(cursor.hi(), total, "({first_paint}, {chunk}) must refine to full depth");
        }
    }

    #[test]
    fn stream_chunk_rejects_hostile_counts() {
        // Declared segment counts far beyond the payload must fail before
        // any allocation is sized from them.
        let mut payload = Vec::new();
        for v in [1u32, 0, 4, 8, 2, 2] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload.push(0); // cache_hit
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // n_segments
        assert_eq!(
            decode_stream_chunk_payload(&payload),
            Err(WireError("segment count exceeds payload"))
        );
    }

    #[test]
    fn accumulated_chunks_equal_a_direct_budget_response() {
        // Two contiguous chunks over 3 blocks reassemble into the
        // block-order concatenation a direct budget request wires.
        let c1 = WireStreamChunk {
            seq: 1,
            lo: 0,
            hi: 3,
            total: 5,
            blocks: 3,
            num: 2,
            cache_hit: true,
            segments: vec![
                WireLodSegment {
                    block: 0,
                    sampled: vec![5, 6],
                    grouped: vec![1, 2, 3, 4],
                    found: vec![2, 2],
                },
                WireLodSegment { block: 2, sampled: vec![30], grouped: vec![7, 8], found: vec![1] },
            ],
        };
        let c2 = WireStreamChunk {
            seq: 2,
            lo: 3,
            hi: 5,
            total: 5,
            blocks: 3,
            num: 2,
            cache_hit: true,
            segments: vec![
                WireLodSegment { block: 0, sampled: vec![7], grouped: vec![5, 6], found: vec![0] },
                WireLodSegment { block: 1, sampled: vec![20], grouped: vec![9, 9], found: vec![1] },
            ],
        };
        let mut acc = StreamAccumulator::new();
        acc.push(&c1).unwrap();
        // A gap is rejected, then the contiguous chunk lands.
        let mut gap = c2.clone();
        gap.lo = 4;
        assert_eq!(acc.push(&gap), Err(WireError("non-contiguous chunk")));
        acc.push(&c2).unwrap();
        assert_eq!(acc.depth(), 5);
        assert_eq!(acc.chunks(), 2);
        let resp = acc.response();
        assert_eq!(resp.sampled_indices, vec![5, 6, 7, 20, 30]);
        assert_eq!(resp.neighbor_indices, vec![1, 2, 3, 4, 5, 6, 9, 9, 7, 8]);
        assert_eq!(resp.found, vec![2, 2, 0, 1, 1]);
        assert_eq!((resp.blocks, resp.num, resp.batch_size), (3, 2, 1));
        assert!(resp.cache_hit);
    }

    /// A segment of `block` gaining `sampled`, with rows `num` wide
    /// filled from the samples.
    fn segment(block: u32, sampled: &[u32], num: u32) -> WireLodSegment {
        WireLodSegment {
            block,
            sampled: sampled.to_vec(),
            grouped: sampled.iter().flat_map(|&s| (0..num).map(move |j| s * 10 + j)).collect(),
            found: sampled.iter().map(|&s| s % (num + 1)).collect(),
        }
    }

    /// A chunk `(lo, hi]` of a 3-block, 2-slot, 6-sample stream.
    fn chunk(seq: u32, lo: u32, hi: u32, segments: Vec<WireLodSegment>) -> WireStreamChunk {
        WireStreamChunk { seq, lo, hi, total: 6, blocks: 3, num: 2, cache_hit: true, segments }
    }

    #[test]
    fn a_refused_chunk_leaves_the_accumulator_as_it_was() {
        let first = chunk(1, 0, 2, vec![segment(0, &[1], 2), segment(2, &[7], 2)]);
        let good = chunk(2, 2, 5, vec![segment(0, &[2], 2), segment(1, &[4, 5], 2)]);
        let mut alone = StreamAccumulator::new();
        alone.push(&first).unwrap();
        alone.push(&good).unwrap();
        // Each bad chunk's first segment passes every check; the chunk is
        // refused at its second segment or at the final sample count.
        let mut out_of_range = good.clone();
        out_of_range.segments[1].block = 3;
        let mut misshapen = good.clone();
        misshapen.segments[1].grouped.pop();
        let mut short_found = good.clone();
        short_found.segments[1].found.pop();
        let mut miscounted = good.clone();
        miscounted.hi = 6;
        for (bad, why) in [
            (out_of_range, "segment block out of range"),
            (misshapen, "segment row shape mismatch"),
            (short_found, "segment row shape mismatch"),
            (miscounted, "chunk sample count mismatch"),
        ] {
            let mut acc = StreamAccumulator::new();
            acc.push(&first).unwrap();
            assert_eq!(acc.push(&bad), Err(WireError(why)));
            assert_eq!((acc.depth(), acc.chunks()), (2, 1), "{why}");
            acc.push(&good).unwrap();
            assert_eq!(acc.response(), alone.response(), "after a chunk refused: {why}");
        }
        // A refused first chunk fixes no geometry either.
        let mut acc = StreamAccumulator::new();
        let mut wide = first.clone();
        (wide.blocks, wide.num, wide.total, wide.cache_hit) = (9, 1, 8, false);
        wide.segments = vec![segment(8, &[3], 1), segment(4, &[5, 6], 1)];
        assert_eq!(acc.push(&wide), Err(WireError("chunk sample count mismatch")));
        assert_eq!((acc.depth(), acc.total(), acc.chunks()), (0, 0, 0));
        acc.push(&first).unwrap();
        acc.push(&good).unwrap();
        assert_eq!(acc.response(), alone.response());
    }

    #[test]
    fn chunk_depths_out_of_order_are_refused_without_a_panic() {
        let mut acc = StreamAccumulator::new();
        acc.push(&chunk(1, 0, 2, vec![segment(0, &[1], 2), segment(2, &[7], 2)])).unwrap();
        // `lo` is the depth reached, so only the depth order can refuse
        // these: `hi < lo` would be a count of -1 samples.
        for (hi, why) in [(1, "chunk ends before it starts"), (7, "chunk ends past the total")] {
            let bad = chunk(2, 2, hi, Vec::new());
            assert_eq!(acc.push(&bad), Err(WireError(why)));
            let mut payload = Vec::new();
            encode_stream_chunk_into(&bad, &mut payload);
            assert_eq!(decode_stream_chunk_payload(&payload), Err(WireError(why)));
        }
        assert_eq!((acc.depth(), acc.chunks()), (2, 1));
        // An empty cut and a cut ending at the total are in order.
        acc.push(&chunk(2, 2, 2, Vec::new())).unwrap();
        let last = chunk(3, 2, 6, vec![segment(1, &[4, 5, 6], 2), segment(2, &[8], 2)]);
        let mut payload = Vec::new();
        encode_stream_chunk_into(&last, &mut payload);
        acc.push(&decode_stream_chunk_payload(&payload).unwrap()).unwrap();
        assert_eq!((acc.depth(), acc.total(), acc.chunks()), (6, 6, 3));
        assert_eq!(acc.response().sampled_indices, vec![1, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn a_declared_block_count_sizes_nothing() {
        // 37 bytes declaring u32::MAX blocks of u32::MAX slots: one empty
        // segment of the last block. Nothing the accumulator allocates may
        // follow the declared counts: three per-block tables of u32::MAX
        // empty vectors would ask for about 300 GB and abort the client.
        let mut payload = Vec::new();
        for v in [1u32, 0, 0, 0, u32::MAX, u32::MAX] {
            put_u32(&mut payload, v);
        }
        payload.push(1);
        for v in [1u32, u32::MAX - 1, 0] {
            put_u32(&mut payload, v);
        }
        assert_eq!(payload.len(), 37);
        let chunk = decode_stream_chunk_payload(&payload).unwrap();
        let mut acc = StreamAccumulator::new();
        acc.push(&chunk).unwrap();
        let resp = acc.response();
        assert_eq!((resp.blocks, resp.num, acc.depth(), acc.chunks()), (u32::MAX, u32::MAX, 0, 1));
        assert!(resp.sampled_indices.is_empty() && resp.neighbor_indices.is_empty());
        assert!(resp.found.is_empty());
    }

    #[test]
    fn message_header_layout() {
        let msg = encode_message(OP_PROCESS_FRAME, &[0xAB, 0xCD]);
        assert_eq!(&msg[0..4], b"FCS1");
        assert_eq!(msg[4], OP_PROCESS_FRAME);
        assert_eq!(u32::from_le_bytes(msg[5..9].try_into().unwrap()), 2);
        assert_eq!(&msg[9..], &[0xAB, 0xCD]);
    }

    /// The request decoders against hostile bytes: any coordinate bits
    /// round-trip bit for bit, and truncated or count-inflated payloads are
    /// a [`WireError`], never a panic or an allocation sized from the count.
    mod hostile {
        use super::*;
        use proptest::prelude::*;

        /// One coordinate's bit pattern, weighted towards the ones float
        /// equality mishandles: NaNs (quiet or signalling, either sign, any
        /// payload), ±0.0, ±∞ and subnormals; the rest are any bits at all.
        fn coord_bits() -> impl Strategy<Value = u32> {
            (0u8..6, 0u32..=u32::MAX).prop_map(|(class, bits)| {
                let (sign, fraction) = (bits & 0x8000_0000, (bits & 0x007f_ffff).max(1));
                match class {
                    0 => sign | 0x7f80_0000 | fraction,
                    1 => sign,
                    2 => sign | 0x7f80_0000,
                    3 => sign | fraction,
                    _ => bits,
                }
            })
        }

        /// A cloud of fewer than `max` points of any coordinate bits (past
        /// two whole decode blocks at `max` 150).
        fn any_bits_cloud(max: usize) -> impl Strategy<Value = PointCloud> {
            let point = (coord_bits(), coord_bits(), coord_bits());
            proptest::collection::vec(point, 0..max).prop_map(|points| {
                let axis = |pick: fn(&(u32, u32, u32)) -> u32| {
                    points.iter().map(|p| f32::from_bits(pick(p))).collect()
                };
                PointCloud::from_soa(axis(|p| p.0), axis(|p| p.1), axis(|p| p.2)).unwrap()
            })
        }

        fn bits(c: &PointCloud) -> [Vec<u32>; 3] {
            [c.xs(), c.ys(), c.zs()].map(|v| v.iter().map(|c| c.to_bits()).collect())
        }

        fn config(threshold: u32, sample_rate: u32, radius: u32, neighbors: u32) -> PipelineConfig {
            let (rate, radius) = (f64::from(sample_rate) / 64.0, f32::from_bits(radius));
            PipelineConfig::new(threshold as usize, rate, radius, neighbors as usize)
        }

        /// Where the `n_points:u32` of an INFER payload sits.
        fn infer_count_at(req: &WireInferRequest) -> usize {
            4 + 8 + 1 + 4 + req.notation.len()
        }

        /// `payload` with its point count overwritten by `n`.
        fn with_count(payload: &[u8], at: usize, n: u32) -> Vec<u8> {
            let mut inflated = payload.to_vec();
            inflated[at..at + 4].copy_from_slice(&n.to_le_bytes());
            inflated
        }

        /// Any CHUNK a server could send, bytes aside: depths in order,
        /// rows `num` (< 5) wide, up to 5 segments of any block with up to
        /// 4 samples, every run value any bits.
        fn any_chunk() -> impl Strategy<Value = WireStreamChunk> {
            let word = || 0u32..=u32::MAX;
            let head = (word(), (word(), word(), word()), word(), 0u32..5, any::<bool>());
            // A segment's block, its sample count, and the bits its runs
            // are cut from (4 × (1 + 4 + 1) at most).
            let segment = (word(), 0usize..5, proptest::collection::vec(word(), 24));
            (head, proptest::collection::vec(segment, 0..6)).prop_map(|(head, segments)| {
                let (seq, (a, b, c), blocks, num, cache_hit) = head;
                let mut depths = [a, b, c];
                depths.sort_unstable();
                let [lo, hi, total] = depths;
                let segments = segments
                    .into_iter()
                    .map(|(block, count, bits)| {
                        let rows = count * num as usize;
                        WireLodSegment {
                            block,
                            sampled: bits[..count].to_vec(),
                            grouped: bits[count..count + rows].to_vec(),
                            found: bits[count + rows..2 * count + rows].to_vec(),
                        }
                    })
                    .collect();
                WireStreamChunk { seq, lo, hi, total, blocks, num, cache_hit, segments }
            })
        }

        /// Byte offset of the `n_segments:u32` of a CHUNK payload.
        const CHUNK_SEGMENTS_AT: usize = 6 * 4 + 1;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn frame_requests_round_trip_bit_for_bit_and_reject_every_truncation(
                cloud in any_bits_cloud(150),
                knobs in (0u32..=u32::MAX, 0u32..=64, 0u32..=u32::MAX, 0u32..=u32::MAX),
                trailer in (0u32..3, 1u32..=u32::MAX, 1u32..=u32::MAX),
                extra in 1u32..=u32::MAX,
            ) {
                let cfg = config(knobs.0, knobs.1, knobs.2, knobs.3);
                let (deadline, budget) = match trailer.0 {
                    0 => (0, 0),
                    1 => (trailer.1, 0),
                    _ => (trailer.1, trailer.2),
                };
                let payload = encode_request_payload_budget(&cloud, &cfg, deadline, budget);
                let (wire, cfg2, deadline2, budget2) = decode_request_payload(&payload).unwrap();
                prop_assert_eq!(bits(&wire), bits(&cloud));
                prop_assert_eq!(cfg2.threshold, cfg.threshold);
                prop_assert_eq!(cfg2.sample_rate.to_bits(), cfg.sample_rate.to_bits());
                prop_assert_eq!(cfg2.radius.to_bits(), cfg.radius.to_bits());
                prop_assert_eq!(cfg2.neighbors, cfg.neighbors);
                prop_assert_eq!((deadline2, budget2), (deadline, budget));
                // The trailer is optional, so a cut at one of its field
                // boundaries is a shorter valid request; any other cut fails.
                let frame_end = REQUEST_FIXED_BYTES + 12 * cloud.len();
                for cut in 0..payload.len() {
                    match decode_request_payload(&payload[..cut]) {
                        Ok((_, _, d, b)) => {
                            prop_assert!(cut == frame_end || cut == frame_end + 4, "cut {}", cut);
                            prop_assert_eq!((d, b), (if cut == frame_end { 0 } else { deadline }, 0));
                        }
                        Err(WireError(_)) => prop_assert!(cut != frame_end, "cut {}", cut),
                    }
                }
                for n in [cloud.len() as u32 + extra.min(u32::MAX - cloud.len() as u32), u32::MAX] {
                    if n as usize > cloud.len() {
                        let inflated = with_count(&payload, REQUEST_FIXED_BYTES - 4, n);
                        prop_assert!(decode_request_payload(&inflated).is_err(), "count {}", n);
                    }
                }
            }

            #[test]
            fn stream_requests_round_trip_bit_for_bit_and_reject_every_truncation(
                cloud in any_bits_cloud(150),
                knobs in (0u32..=u32::MAX, 0u32..=64, 0u32..=u32::MAX, 0u32..=u32::MAX),
                open in (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX),
                extra in 1u32..=u32::MAX,
            ) {
                let cfg = config(knobs.0, knobs.1, knobs.2, knobs.3);
                let (deadline, open) = (
                    open.0,
                    WireStreamOpen { first_paint: open.1, chunk: open.2, credits: open.3 },
                );
                let payload = encode_stream_request_payload(&cloud, &cfg, deadline, &open);
                prop_assert_eq!(payload.len(), REQUEST_FIXED_BYTES + 12 * cloud.len() + 16);
                let (wire, cfg2, deadline2, open2) = decode_stream_request_payload(&payload).unwrap();
                prop_assert_eq!(bits(&wire), bits(&cloud));
                prop_assert_eq!(cfg2.radius.to_bits(), cfg.radius.to_bits());
                prop_assert_eq!((deadline2, open2), (deadline, open));
                for cut in 0..payload.len() {
                    prop_assert!(decode_stream_request_payload(&payload[..cut]).is_err(), "cut {}", cut);
                }
                for n in [cloud.len() as u32 + extra.min(u32::MAX - cloud.len() as u32), u32::MAX] {
                    if n as usize > cloud.len() {
                        let inflated = with_count(&payload, REQUEST_FIXED_BYTES - 4, n);
                        prop_assert!(decode_stream_request_payload(&inflated).is_err(), "count {}", n);
                    }
                }
            }

            #[test]
            fn stream_chunks_round_trip_bit_for_bit_and_reject_every_truncation(
                chunk in any_chunk(),
                extra in 1u32..=u32::MAX,
            ) {
                let mut payload = Vec::new();
                encode_stream_chunk_into(&chunk, &mut payload);
                let back = decode_stream_chunk_payload(&payload).unwrap();
                let mut again = Vec::new();
                encode_stream_chunk_into(&back, &mut again);
                prop_assert_eq!(&back, &chunk);
                prop_assert!(again == payload, "re-encoding changed the bytes");
                for cut in 0..payload.len() {
                    prop_assert!(decode_stream_chunk_payload(&payload[..cut]).is_err(), "cut {}", cut);
                }
                let mut long = payload.clone();
                long.push(0);
                prop_assert_eq!(decode_stream_chunk_payload(&long), Err(WireError("trailing bytes")));
                // More segments than the bytes carry, and a first segment
                // longer than the bytes carry, are refused.
                let nseg = chunk.segments.len() as u32;
                for n in [nseg + extra.min(u32::MAX - nseg), u32::MAX] {
                    if n > nseg {
                        let inflated = with_count(&payload, CHUNK_SEGMENTS_AT, n);
                        prop_assert!(decode_stream_chunk_payload(&inflated).is_err(), "segments {}", n);
                    }
                }
                if let Some(first) = chunk.segments.first() {
                    let count = first.sampled.len() as u32;
                    let at = CHUNK_SEGMENTS_AT + 8;
                    for n in [count + extra.min(u32::MAX - count), u32::MAX] {
                        if n > count {
                            let inflated = with_count(&payload, at, n);
                            prop_assert!(decode_stream_chunk_payload(&inflated).is_err(), "count {}", n);
                        }
                    }
                }
                // Depths out of order are refused whatever follows them.
                if chunk.lo < chunk.hi {
                    let swapped = with_count(&with_count(&payload, 4, chunk.hi), 8, chunk.lo);
                    prop_assert_eq!(
                        decode_stream_chunk_payload(&swapped),
                        Err(WireError("chunk ends before it starts"))
                    );
                }
                if chunk.total < u32::MAX {
                    let past = with_count(&payload, 8, chunk.total + 1);
                    prop_assert!(decode_stream_chunk_payload(&past).is_err());
                }
            }

            #[test]
            fn infer_requests_round_trip_bit_for_bit_and_reject_every_truncation(
                cloud in any_bits_cloud(150),
                head in (0u32..=u32::MAX, 0u64..=u64::MAX, 0u8..=AGG_DELAYED, 0usize..4),
                deadline in 0u32..=u32::MAX,
                extra in 1u32..=u32::MAX,
            ) {
                let notation = ["", "PN++ (c)", "PointNeXt (s)", "ü ≠ u"][head.3].to_owned();
                let req =
                    WireInferRequest { threshold: head.0, seed: head.1, aggregation: head.2, notation };
                let payload = encode_infer_request_payload(&cloud, &req, deadline);
                let (wire, req2, deadline2) = decode_infer_request_payload(&payload).unwrap();
                prop_assert_eq!(bits(&wire), bits(&cloud));
                prop_assert_eq!((req2, deadline2), (req.clone(), deadline));
                // Only the optional deadline makes a shorter valid request.
                let frame_end = infer_count_at(&req) + 4 + 12 * cloud.len();
                for cut in 0..payload.len() {
                    let decoded = decode_infer_request_payload(&payload[..cut]);
                    prop_assert!(decoded.is_ok() == (cut == frame_end), "cut {}", cut);
                }
                for n in [cloud.len() as u32 + extra.min(u32::MAX - cloud.len() as u32), u32::MAX] {
                    if n as usize > cloud.len() {
                        let inflated = with_count(&payload, infer_count_at(&req), n);
                        prop_assert!(decode_infer_request_payload(&inflated).is_err(), "count {}", n);
                    }
                }
            }
        }
    }

    /// The accumulator against a real ordering: a generated 4k room cut at
    /// random schedules, every cut through the wire encoder and decoder,
    /// checked at every depth against the response a direct budget request
    /// is answered with.
    mod reassembly {
        use super::*;
        use fractalcloud_core::{Pipeline, PipelineOutput};
        use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
        use proptest::prelude::*;
        use std::sync::OnceLock;

        fn room() -> &'static PipelineOutput {
            static ROOM: OnceLock<PipelineOutput> = OnceLock::new();
            ROOM.get_or_init(|| {
                let cloud = scene_cloud(&SceneConfig::default(), 4096, 31);
                Pipeline::new(PipelineConfig::default()).unwrap().run(&cloud, false).unwrap()
            })
        }

        /// The payload a direct `budget = k` request is answered with.
        fn direct(out: &PipelineOutput, k: usize, cache_hit: bool) -> Vec<u8> {
            let prefix = out.prefix(k);
            let narrow = |v: &[usize]| v.iter().map(|&i| i as u32).collect();
            encode_response_payload(&WireResponse {
                sampled_indices: narrow(&prefix.sampled.indices),
                neighbor_indices: narrow(&prefix.grouped.indices),
                found: narrow(&prefix.grouped.found),
                num: prefix.grouped.num as u32,
                blocks: prefix.blocks as u32,
                cache_hit,
                batch_size: 1,
                degraded: false,
                budget_served: 0,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn random_cuts_reassemble_to_the_direct_prefix_at_every_depth(
                first in 0usize..1 << 20,
                step in 0usize..1 << 20,
                cache_hit in any::<bool>(),
            ) {
                let out = room();
                let total = out.total_samples();
                // First paint and chunk size, each anywhere in `1..=total`.
                let (first, step) = (1 + first % total, 1 + step % total);
                let mut cursor = LodCursor::new(out);
                let mut acc = StreamAccumulator::new();
                let (mut seq, mut hi, mut payload) = (0u32, first, Vec::new());
                while seq == 0 || cursor.hi() < total {
                    cursor.advance(hi);
                    seq += 1;
                    payload.clear();
                    encode_stream_cut_into(seq, cache_hit, &cursor, &mut payload);
                    acc.push(&decode_stream_chunk_payload(&payload).unwrap()).unwrap();
                    prop_assert_eq!(acc.depth() as usize, cursor.hi());
                    let reassembled = encode_response_payload(&acc.response());
                    prop_assert!(
                        reassembled == direct(out, cursor.hi(), cache_hit),
                        "depth {} of ({}, {})", cursor.hi(), first, step
                    );
                    hi = cursor.hi() + step;
                }
                prop_assert_eq!((acc.chunks(), acc.total() as usize), (seq, total));
            }
        }
    }
}
