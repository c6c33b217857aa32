//! The one adapter between the harness and the program under test.
//!
//! Every call into the workspace crates is in this file; the rest of the
//! harness sees only the types defined here. When the serve API is reshaped
//! (ROADMAP 4 collapses `submit_*`/`process_*`), this is the file a
//! benchmark issue edits — and nothing else.
//!
//! Three groups: the *served* path ([`Server`], [`Conn`], [`Pending`]) the
//! workloads drive, the *direct* path ([`Direct`]) that computes what a
//! correct reply must contain without going through the engine, and the
//! per-layer *replay* ([`Replay`]) — one method per public function whose
//! cost the traced run reports.

use fractalcloud_core::{
    block_ball_query, block_fps, fnv1a64, BlockFpsResult, BlockNeighborResult, BppoConfig, Fractal,
    FractalConfig, FractalResult, LodSlice, Pipeline, PipelineConfig, PipelineOutput, Workspace,
    FNV1A64_SEED,
};
use fractalcloud_obs as obs;
use fractalcloud_pnn::layers::Linear;
use fractalcloud_pnn::{Aggregation, InferOutput, InferenceConfig, ModelConfig, NetworkExecutor};
use fractalcloud_pointcloud::generate::{object_cloud, scene_cloud, ObjectKind, SceneConfig};
use fractalcloud_pointcloud::kernels::{self, SelectScratch};
use fractalcloud_pointcloud::PointCloud;
use fractalcloud_serve::cache::{frame_key, PartitionCache};
use fractalcloud_serve::protocol::{
    self, WireInferRequest, WireInferResponse, WireLodSegment, WireResponse, WireStreamChunk,
    WireStreamOpen,
};
use fractalcloud_serve::{
    Engine, FaultPlan, FrameResponse, InferRequest, InferResponse, Priority, ServeClient,
    ServeConfig, StreamChunkResponse, StreamEvent, TcpServer, Ticket,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The counting allocator behind `serve.engine.allocs_per_req`, installed
/// by `main.rs` as the process allocator.
pub use fractalcloud_pointcloud::count_alloc::{allocation_count, CountingAllocator};

// ---------------------------------------------------------------------------
// Environment and fixed request parameters
// ---------------------------------------------------------------------------

/// Removes every `FRACTALCLOUD_*` variable from the process environment and
/// returns the names removed. The libraries read their knobs lazily on first
/// use (`FRACTALCLOUD_THREADS`, `_KERNEL`, `_TRACE`, `_FAULTS`, …), so this
/// must run before the first call into them — and before any thread exists.
pub fn pin_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FRACTALCLOUD_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// The kernel backend the libraries dispatched to on this CPU.
pub fn kernel_backend() -> &'static str {
    kernels::active_backend().name()
}

/// What one request asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `PROCESS_FRAME`: partition + block FPS + block ball query.
    Frame,
    /// `INFER`: PointNet++ (c), delayed aggregation.
    Infer,
    /// `STREAM`: first paint + credit-gated refinement chunks to full depth.
    Stream,
}

const INFER_NOTATION: &str = "PN++ (c)";
const INFER_SEED: u64 = 42;
const STREAM_OPEN: WireStreamOpen = WireStreamOpen { first_paint: 512, chunk: 512, credits: 1 };

fn frame_config() -> PipelineConfig {
    PipelineConfig::default()
}

fn infer_model() -> ModelConfig {
    ModelConfig::table1()
        .into_iter()
        .find(|m| m.notation == INFER_NOTATION)
        .expect("the Table I zoo lists PN++ (c)")
}

/// The stage-1 pipeline an INFER request runs (what `Engine::submit_infer`
/// derives from the model's first set-abstraction stage).
fn infer_stage1_config(model: &ModelConfig) -> PipelineConfig {
    let sa = &model.stages[0];
    PipelineConfig::new(frame_config().threshold, sa.sample_ratio, sa.radius, sa.nsample)
}

/// The network an INFER request names, with its weights materialized.
fn infer_executor(model: ModelConfig, aggregation: Aggregation) -> NetworkExecutor {
    NetworkExecutor::new(InferenceConfig { model, seed: INFER_SEED, aggregation })
}

fn wire_infer_request() -> WireInferRequest {
    WireInferRequest {
        threshold: frame_config().threshold as u32,
        seed: INFER_SEED,
        aggregation: protocol::AGG_DELAYED,
        notation: INFER_NOTATION.to_owned(),
    }
}

fn priority_of(class: u8) -> Priority {
    match class {
        0 => Priority::High,
        2 => Priority::Bulk,
        _ => Priority::Normal,
    }
}

/// Turns the program's own flight recorder (`fractalcloud_obs`) on or off,
/// at the ring capacity `FRACTALCLOUD_TRACE=on` would give it.
pub fn program_trace(on: bool) {
    match on {
        true => obs::enable(obs::DEFAULT_CAPACITY),
        false => obs::disable(),
    }
}

/// The program's spans since the last drain.
pub struct ProgramTrace {
    /// Total µs per span kind, by the kind's `name()`.
    totals: Vec<(&'static str, f64)>,
    /// The same spans as Chrome trace-event JSON.
    pub chrome: String,
    /// Events the recorder has lost to ring wrap-around so far (a total
    /// above zero means the stage sums undercount).
    pub dropped: u64,
}

impl ProgramTrace {
    pub fn stage_us(&self, stage: &str) -> f64 {
        self.totals.iter().find(|t| t.0 == stage).map_or(0.0, |t| t.1)
    }
}

/// Drains the program's flight recorder. Whole-frame sample/group spans
/// (`aux == u32::MAX`) enclose the per-block ones, so where a kind has
/// whole-frame spans only those are summed — both would count the same
/// wall time twice.
pub fn program_trace_drain() -> ProgramTrace {
    let events = obs::drain();
    let totals = obs::SpanKind::ALL
        .iter()
        .map(|&kind| {
            let nested = matches!(kind, obs::SpanKind::BlockSample | obs::SpanKind::BlockGroup)
                && events.iter().any(|e| e.kind == kind && e.aux == u32::MAX);
            let total: u64 = events
                .iter()
                .filter(|e| e.kind == kind && (!nested || e.aux == u32::MAX))
                .map(|e| e.dur_us)
                .sum();
            (kind.name(), total as f64)
        })
        .collect();
    ProgramTrace {
        totals,
        chrome: obs::chrome::trace_json(&events),
        dropped: obs::status().dropped,
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// One generated input cloud. The program only ever sees this — never the
/// seed it was generated from.
#[derive(Clone)]
pub struct Frame(Arc<PointCloud>);

impl Frame {
    /// An S3DIS-like indoor room (`pointcloud::generate::scene_cloud`).
    pub fn scene(points: usize, seed: u64) -> Frame {
        Frame(Arc::new(scene_cloud(&SceneConfig::default(), points, seed)))
    }

    /// A ModelNet-like object (`pointcloud::generate::object_cloud`), its
    /// shape picked from the seed.
    pub fn object(points: usize, seed: u64) -> Frame {
        Frame(Arc::new(object_cloud(ObjectKind::from_seed(seed >> 32), points, seed)))
    }
}

// ---------------------------------------------------------------------------
// Replies and their digests
// ---------------------------------------------------------------------------

/// A fully decoded reply, from whichever path produced it.
pub enum Reply {
    Wire(WireResponse),
    WireInfer(WireInferResponse),
    InProc(FrameResponse),
    InProcInfer(InferResponse),
    /// The chunk jobs of one in-process stream, as the engine resolved them
    /// (converted to a frame reply only when a digest is asked for, so the
    /// conversion stays out of whatever timed the request).
    InProcStream(Vec<StreamChunkResponse>),
}

fn fold(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(h, fnv1a64)
}

fn digest_frame(
    blocks: u64,
    num: u64,
    sampled: impl IntoIterator<Item = u64>,
    neighbors: impl IntoIterator<Item = u64>,
    found: impl IntoIterator<Item = u64>,
) -> u64 {
    let h = fold(FNV1A64_SEED, [blocks, num]);
    fold(fold(fold(h, sampled), neighbors), found)
}

fn digest_logits(
    classes: u64,
    rows: impl IntoIterator<Item = u64>,
    logits: impl IntoIterator<Item = f32>,
) -> u64 {
    let h = fold(fold(FNV1A64_SEED, [classes]), rows);
    fold(h, logits.into_iter().map(|v| u64::from(v.to_bits())))
}

fn digest_output(out: &PipelineOutput) -> u64 {
    digest_frame(
        out.blocks as u64,
        out.grouped.num as u64,
        out.sampled.indices.iter().map(|&v| v as u64),
        out.grouped.indices.iter().map(|&v| v as u64),
        out.grouped.found.iter().map(|&v| v as u64),
    )
}

fn digest_wire(r: &WireResponse) -> u64 {
    digest_frame(
        u64::from(r.blocks),
        u64::from(r.num),
        r.sampled_indices.iter().map(|&v| u64::from(v)),
        r.neighbor_indices.iter().map(|&v| u64::from(v)),
        r.found.iter().map(|&v| u64::from(v)),
    )
}

fn digest_infer_output(out: &InferOutput) -> u64 {
    digest_logits(
        out.classes as u64,
        out.row_index.iter().map(|&v| v as u64),
        out.logits.iter().copied(),
    )
}

impl Reply {
    /// A 64-bit fold of everything in the reply that is a *result* (indices,
    /// counts, logit bit patterns) — serving metadata such as `cache_hit`
    /// and `batch_size` is not part of the answer and stays out.
    pub fn digest(&self) -> u64 {
        match self {
            Reply::Wire(r) => digest_wire(r),
            Reply::InProcStream(chunks) => {
                let mut acc = protocol::StreamAccumulator::new();
                for (seq, c) in chunks.iter().enumerate() {
                    // A chunk the accumulator refuses leaves the depth short
                    // and the digest wrong — which is the verdict wanted.
                    let _ = acc.push(&wire_chunk(seq as u32, &c.slice, c.cache_hit));
                }
                digest_wire(&acc.response())
            }
            Reply::InProc(r) => digest_frame(
                r.blocks as u64,
                r.num as u64,
                r.sampled_indices.iter().map(|&v| v as u64),
                r.neighbor_indices.iter().map(|&v| v as u64),
                r.found.iter().map(|&v| v as u64),
            ),
            Reply::WireInfer(r) => digest_logits(
                u64::from(r.classes),
                r.row_index.iter().map(|&v| u64::from(v)),
                r.logits.iter().copied(),
            ),
            Reply::InProcInfer(r) => digest_infer_output(&r.output),
        }
    }

    /// True when the server browned this reply out (a correct prefix, but
    /// not the answer asked for — the harness counts it as failed).
    pub fn degraded(&self) -> bool {
        match self {
            Reply::Wire(r) => r.degraded,
            Reply::InProc(r) => r.degraded,
            Reply::WireInfer(_) | Reply::InProcInfer(_) | Reply::InProcStream(_) => false,
        }
    }

    /// The four `OpCounters` fields the trace reports, summed over the
    /// reply's stages — `None` on wire frames, which do not carry them.
    pub fn op_counts(&self) -> Option<[u64; 4]> {
        let pick = |c: &fractalcloud_pointcloud::ops::OpCounters| {
            [c.distance_evals, c.coord_reads, c.writes, c.skipped]
        };
        match self {
            Reply::InProc(r) => {
                let (s, g) = (pick(&r.sample_counters), pick(&r.group_counters));
                Some(std::array::from_fn(|i| s[i] + g[i]))
            }
            Reply::InProcInfer(r) => Some(pick(&r.output.counters)),
            Reply::Wire(_) | Reply::WireInfer(_) | Reply::InProcStream(_) => None,
        }
    }
}

// ---------------------------------------------------------------------------
// The served path
// ---------------------------------------------------------------------------

/// A plain-data copy of the engine counters the harness reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub submitted: u64,
    pub completed: u64,
    /// Invalid + internal-error outcomes.
    pub failed: u64,
    pub shed: u64,
    pub degraded: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub batches: u64,
    pub batched_frames: u64,
    pub peak_queue_depth: u64,
    pub queue_wait_p99_us: u64,
    pub streams_open: u64,
}

/// The engine (and, for wire workloads, its TCP front-end) under test.
pub struct Server {
    engine: Arc<Engine>,
    tcp: Option<TcpServer>,
}

impl Server {
    /// Starts the engine with `ServeConfig::default()` — every field that
    /// default takes from the environment or the machine is then set
    /// explicitly (`faults` off, `workers`/`thread_budget` = `threads`), so
    /// the header's `nproc` is the whole story. With `tcp`, binds a loopback
    /// listener on an ephemeral port; failure to bind is an error, never a
    /// fallback to in-process.
    pub fn start(threads: usize, tcp: bool) -> Result<Server, String> {
        let cfg =
            ServeConfig::default().faults(FaultPlan::OFF).workers(threads).thread_budget(threads);
        let engine = Arc::new(Engine::start(cfg));
        let tcp = match tcp {
            true => Some(
                TcpServer::bind("127.0.0.1:0", Arc::clone(&engine))
                    .map_err(|e| format!("cannot bind loopback listener: {e}"))?,
            ),
            false => None,
        };
        Ok(Server { engine, tcp })
    }

    pub fn addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().map(TcpServer::local_addr)
    }

    pub fn counters(&self) -> Counters {
        let m = self.engine.metrics();
        Counters {
            submitted: m.submitted,
            completed: m.completed,
            failed: m.rejected_invalid + m.failed_internal,
            shed: m.shed_total(),
            degraded: m.degraded_total(),
            cache_hits: m.cache_hits,
            cache_misses: m.cache_misses,
            batches: m.batches,
            batched_frames: m.batched_frames,
            peak_queue_depth: m.peak_queue_depth,
            queue_wait_p99_us: m.queue_wait_p99_us,
            streams_open: m.streams_opened.saturating_sub(m.streams_closed),
        }
    }

    /// In-process, non-blocking: admits one frame at `class`
    /// (0 High / 1 Normal / 2 Bulk) and returns its ticket.
    pub fn submit(&self, frame: &Frame, class: u8) -> Result<Pending, String> {
        self.engine
            .submit_shared_with_options(
                Arc::clone(&frame.0),
                frame_config(),
                priority_of(class),
                None,
            )
            .map(Pending)
            .map_err(|e| e.to_string())
    }

    /// In-process, blocking: what the TCP handler does for one request of
    /// kind `op`, minus the wire. A stream is its chunk jobs submitted one
    /// after the other (first paint Normal, refinements Bulk), exactly as
    /// `serve::net` schedules them.
    pub fn process(&self, op: Op, frame: &Frame) -> Result<Reply, String> {
        let cloud = Arc::clone(&frame.0);
        match op {
            Op::Frame => self
                .engine
                .process_shared(cloud, frame_config())
                .map(Reply::InProc)
                .map_err(|e| e.to_string()),
            Op::Infer => {
                let mut req = InferRequest::new(infer_model());
                req.seed = INFER_SEED;
                req.aggregation = Some(Aggregation::Delayed);
                self.engine
                    .process_infer(cloud, req)
                    .map(Reply::InProcInfer)
                    .map_err(|e| e.to_string())
            }
            Op::Stream => {
                let (mut lo, mut hi, mut class) = (0, STREAM_OPEN.first_paint as usize, 1u8);
                let mut chunks = Vec::new();
                loop {
                    let chunk = self
                        .engine
                        .submit_stream_chunk(
                            Arc::clone(&cloud),
                            frame_config(),
                            lo,
                            hi,
                            priority_of(class),
                            None,
                        )
                        .and_then(|t| t.wait())
                        .map_err(|e| e.to_string())?;
                    let done = chunk.slice.hi >= chunk.slice.total;
                    chunks.push(chunk);
                    if done {
                        return Ok(Reply::InProcStream(chunks));
                    }
                    (lo, hi, class) = (hi, hi + STREAM_OPEN.chunk as usize, 2);
                }
            }
        }
    }

    /// Hands a finished in-process reply's buffers back to the engine's
    /// pools (what keeps a warmed loop allocation-free).
    pub fn recycle(&self, reply: Reply) {
        match reply {
            Reply::InProc(r) => self.engine.recycle(r),
            Reply::InProcInfer(r) => self.engine.recycle_infer(r),
            Reply::Wire(_) | Reply::WireInfer(_) | Reply::InProcStream(_) => {}
        }
    }

    /// Stops the listener and the engine (draining admitted work) and
    /// returns the final counters.
    pub fn stop(mut self) -> Counters {
        if let Some(tcp) = self.tcp.as_mut() {
            tcp.shutdown();
        }
        self.engine.shutdown();
        self.counters()
    }
}

/// An admitted in-process request.
pub struct Pending(Ticket);

impl Pending {
    pub fn wait(self) -> Result<Reply, String> {
        self.0.wait().map(Reply::InProc).map_err(|e| e.to_string())
    }
}

/// One decoded wire exchange with its client-side timestamps.
pub struct Exchange {
    pub reply: Reply,
    /// When the first usable result was decoded (first `CHUNK` of a stream;
    /// equal to `done` otherwise).
    pub first: Instant,
    /// When the full reply was decoded.
    pub done: Instant,
    /// `CHUNK` frames received / `CREDIT` frames sent (0 outside streams).
    pub chunks: u32,
    pub credits: u32,
}

/// One client connection (the library's own blocking `ServeClient`).
pub struct Conn(ServeClient);

impl Conn {
    /// Connects with a per-read timeout, so a stalled server surfaces as a
    /// failed request instead of hanging the run.
    pub fn connect(addr: SocketAddr, read_timeout: Duration) -> Result<Conn, String> {
        let mut client =
            ServeClient::connect(addr).map_err(|e| format!("connect to {addr}: {e}"))?;
        client.set_read_timeout(Some(read_timeout)).map_err(|e| format!("set timeout: {e}"))?;
        Ok(Conn(client))
    }

    /// Sends one request of kind `op` and blocks until its reply is fully
    /// decoded. Any non-OK status (shed, deadline, GOAWAY, …) is an error.
    pub fn call(&mut self, op: Op, frame: &Frame) -> Result<Exchange, String> {
        let cloud: &PointCloud = &frame.0;
        let plain = |reply: Reply| {
            let done = Instant::now();
            Exchange { reply, first: done, done, chunks: 0, credits: 0 }
        };
        match op {
            Op::Frame => self
                .0
                .process(cloud, &frame_config())
                .map(|r| plain(Reply::Wire(r)))
                .map_err(|e| e.to_string()),
            Op::Infer => self
                .0
                .infer(cloud, &wire_infer_request())
                .map(|r| plain(Reply::WireInfer(r)))
                .map_err(|e| e.to_string()),
            Op::Stream => self.stream(cloud).map_err(|e| e.to_string()),
        }
    }

    /// One viewer: read a chunk, grant one credit, until `STREAM_END`.
    ///
    /// Unlike `ServeClient::stream_frame`, the credit is sent after *every*
    /// chunk, the last included (the server ignores a credit that arrives
    /// after the stream completed). `stream_frame` skips that last credit,
    /// and on this server that costs ~40 ms per stream: accepted sockets
    /// keep Nagle's algorithm on, so the small `STREAM_END` frame waits for
    /// the last chunk's ACK, which the client — having nothing left to send —
    /// delays. A credit carries that ACK at once. (Setting `TCP_NODELAY` on
    /// accepted sockets is a fix for a later issue, not for a benchmark.)
    fn stream(&mut self, cloud: &PointCloud) -> Result<Exchange, fractalcloud_serve::ClientError> {
        use fractalcloud_serve::ClientError;
        self.0.stream_open(cloud, &frame_config(), Priority::Normal, 0, &STREAM_OPEN)?;
        let mut acc = protocol::StreamAccumulator::new();
        let (mut first, mut credits) = (None, 0);
        loop {
            match self.0.stream_next()? {
                StreamEvent::Chunk(chunk) => {
                    first.get_or_insert_with(Instant::now);
                    acc.push(&chunk).map_err(ClientError::Protocol)?;
                    self.0.stream_credit()?;
                    credits += 1;
                }
                StreamEvent::End(_) => {
                    let done = Instant::now();
                    return Ok(Exchange {
                        reply: Reply::Wire(acc.response()),
                        first: first.unwrap_or(done),
                        done,
                        chunks: acc.chunks(),
                        credits,
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The direct path: expected replies without the engine
// ---------------------------------------------------------------------------

/// Computes, by direct library calls, the digest a correct reply to
/// `(op, frame)` must have.
pub struct Direct {
    op: Op,
    pipeline: Pipeline,
    executor: Option<NetworkExecutor>,
    ws: Workspace,
}

impl Direct {
    pub fn new(op: Op) -> Direct {
        let (pipeline, executor) = match op {
            Op::Frame | Op::Stream => (frame_config(), None),
            Op::Infer => {
                let model = infer_model();
                let config = infer_stage1_config(&model);
                (config, Some(infer_executor(model, Aggregation::Delayed)))
            }
        };
        let pipeline = Pipeline::new(pipeline).expect("the fixed request parameters are valid");
        Direct { op, pipeline, executor, ws: Workspace::new() }
    }

    pub fn expected_digest(&mut self, frame: &Frame) -> Result<u64, String> {
        let out = self.pipeline.run(&frame.0, true).map_err(|e| e.to_string())?;
        match (&self.executor, self.op) {
            (Some(ex), Op::Infer) => ex
                .run_with_stage1(&frame.0, &out, &mut self.ws)
                .map(|o| digest_infer_output(&o))
                .map_err(|e| e.to_string()),
            _ => Ok(digest_output(&out)),
        }
    }
}

// ---------------------------------------------------------------------------
// The per-layer replay
// ---------------------------------------------------------------------------

/// Indices as the wire carries them.
fn narrow(v: &[usize]) -> Vec<u32> {
    v.iter().map(|&i| i as u32).collect()
}

fn wire_chunk(seq: u32, slice: &LodSlice, cache_hit: bool) -> WireStreamChunk {
    WireStreamChunk {
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
    }
}

fn wire_response(out: &PipelineOutput) -> WireResponse {
    WireResponse {
        sampled_indices: narrow(&out.sampled.indices),
        neighbor_indices: narrow(&out.grouped.indices),
        found: narrow(&out.grouped.found),
        num: out.grouped.num as u32,
        blocks: out.blocks as u32,
        cache_hit: false,
        batch_size: 1,
        degraded: false,
        budget_served: 0,
    }
}

/// `(rows, cin, cout)` of every `Linear` a delayed-aggregation forward pass
/// of `model` applies to an `n`-point cloud, in execution order — the same
/// chain `NetworkExecutor::new` materializes, with the row counts
/// `run_with_stage1` feeds it (one row per *unique* level point; residual
/// blocks and the head run post-aggregation). Classification models only.
fn linear_shapes(model: &ModelConfig, n: usize) -> Vec<(usize, usize, usize)> {
    assert!(model.propagation.is_empty(), "replay covers classification networks");
    let mut shapes = Vec::new();
    let (mut rows, mut ch) = (n, model.in_channels);
    if model.stem_width > 0 {
        shapes.push((rows, ch, model.stem_width));
        ch = model.stem_width;
    }
    for sa in &model.stages {
        let mut cin = ch + 3;
        for &cout in &sa.mlp {
            shapes.push((rows, cin, cout));
            cin = cout;
        }
        ch = cin;
        rows = (((rows as f64) * sa.sample_ratio).round().max(1.0) as usize).min(rows);
        for _ in 0..sa.blocks {
            shapes.push((rows, ch, ch * 4));
            shapes.push((rows, ch * 4, ch));
        }
    }
    for &cout in &model.head {
        shapes.push((1, ch, cout));
        ch = cout;
    }
    shapes.push((1, ch, model.classes));
    shapes
}

/// What the network half of the replay holds (INFER workloads only).
struct NetReplay {
    delayed: NetworkExecutor,
    eager: NetworkExecutor,
    /// One seeded layer + input matrix per entry of [`linear_shapes`].
    linears: Vec<(Linear, Vec<f32>)>,
    linear_out: Vec<f32>,
    linear_macs: u64,
    out: InferOutput,
}

/// One input of a workload, laid out for the per-layer replay: each `pub fn`
/// below makes exactly one call into one layer's public API on this input
/// (the caller times it). Construction runs the pipeline once, untimed, so
/// every method has real upstream results to work on.
pub struct Replay {
    op: Op,
    frame: Frame,
    config: PipelineConfig,
    pipeline: Pipeline,
    built: FractalResult,
    sampled: BlockFpsResult,
    grouped: BlockNeighborResult,
    output: PipelineOutput,
    ws: Workspace,
    net: Option<NetReplay>,
    // Block-sized SoA arrays (the first leaf block of this input) for the
    // kernel rows, with that block's own sampled centers as queries.
    bx: Vec<f32>,
    by: Vec<f32>,
    bz: Vec<f32>,
    dist: Vec<f32>,
    queries: Vec<[f32; 3]>,
    select: SelectScratch,
    seg_features: Vec<f32>,
    seg_indices: Vec<usize>,
    seg_counts: Vec<usize>,
    seg_out: Vec<f32>,
    // Codec state: the request payload and the encoded reply of this input.
    req_payload: Vec<u8>,
    resp_wire: Option<WireResponse>,
    resp_infer: Option<WireInferResponse>,
    chunks: Vec<WireStreamChunk>,
    /// One encoded reply payload per wire frame of the reply (one per chunk
    /// for a stream, a single one otherwise).
    resp_payloads: Vec<Vec<u8>>,
    // Two caches at capacity, as the engine's is in steady state: one only
    // ever read (so its keys stay present), one only ever inserted into.
    cache_read: PartitionCache,
    cache_write: PartitionCache,
    cache_keys: Vec<u64>,
    cache_next: u64,
    cached: Arc<FractalResult>,
}

const SEG_CHANNELS: usize = 64;
const CACHE_CAPACITY: usize = 32;

impl Replay {
    pub fn new(op: Op, frame: &Frame) -> Result<Replay, String> {
        let err = |e: fractalcloud_pointcloud::Error| e.to_string();
        let model = (op == Op::Infer).then(infer_model);
        let config = model.as_ref().map_or_else(frame_config, infer_stage1_config);
        let pipeline = Pipeline::new(config).map_err(err)?;
        let cloud: &PointCloud = &frame.0;
        let built = Fractal::new(FractalConfig::new(config.threshold)).build(cloud).map_err(err)?;
        let bppo = BppoConfig::default();
        let sampled = block_fps(cloud, &built.partition, config.sample_rate, &bppo).map_err(err)?;
        let grouped = block_ball_query(
            cloud,
            &built.partition,
            &sampled.per_block,
            config.radius,
            config.neighbors,
            &bppo,
        )
        .map_err(err)?;
        let output = pipeline.run(cloud, true).map_err(err)?;

        let block = &built.partition.blocks[0];
        let coord = |axis: &[f32]| block.indices.iter().map(|&i| axis[i]).collect::<Vec<f32>>();
        let (bx, by, bz) = (coord(cloud.xs()), coord(cloud.ys()), coord(cloud.zs()));
        let queries: Vec<[f32; 3]> = sampled.per_block[0]
            .iter()
            .map(|&i| [cloud.xs()[i], cloud.ys()[i], cloud.zs()[i]])
            .collect();
        let rows = bx.len();
        // Segments: every center pools `neighbors` rows of a synthetic
        // `rows × SEG_CHANNELS` feature matrix (values from coordinates, so
        // they are a function of the input alone).
        let seg_features: Vec<f32> =
            (0..rows * SEG_CHANNELS).map(|i| bx[i % rows] + by[(i / 7) % rows]).collect();
        let seg_indices: Vec<usize> =
            (0..queries.len() * config.neighbors).map(|i| (i * 31) % rows).collect();
        let seg_counts = vec![config.neighbors; queries.len()];

        let mut ws = Workspace::new();
        let net = match model {
            None => None,
            Some(model) => {
                let linears: Vec<(Linear, Vec<f32>)> = linear_shapes(&model, cloud.len())
                    .into_iter()
                    .enumerate()
                    .map(|(i, (rows, cin, cout))| {
                        let input =
                            (0..rows * cin).map(|j| ((j % 97) as f32) * 0.01 - 0.4).collect();
                        (Linear::seeded(cin, cout, INFER_SEED + i as u64, true), input)
                    })
                    .collect();
                let linear_macs = linears.iter().map(|(l, x)| l.macs(x.len() / l.cin)).sum::<u64>();
                Some(NetReplay {
                    delayed: infer_executor(model.clone(), Aggregation::Delayed),
                    eager: infer_executor(model, Aggregation::Eager),
                    linears,
                    linear_out: Vec::new(),
                    linear_macs,
                    out: InferOutput::default(),
                })
            }
        };

        // The reply this input produces, in its wire form.
        let (mut resp_wire, mut resp_infer, mut chunks) = (None, None, Vec::new());
        let req_payload = match op {
            Op::Frame => {
                resp_wire = Some(wire_response(&output));
                protocol::encode_request_payload(cloud, &config)
            }
            Op::Stream => {
                let (mut lo, total) = (0, output.total_samples());
                while lo < total {
                    let step = if lo == 0 { STREAM_OPEN.first_paint } else { STREAM_OPEN.chunk };
                    let hi = (lo + step as usize).min(total);
                    chunks.push(wire_chunk(chunks.len() as u32, &output.slice_level(lo, hi), true));
                    lo = hi;
                }
                protocol::encode_stream_request_payload(cloud, &config, 0, &STREAM_OPEN)
            }
            Op::Infer => {
                let net = net.as_ref().expect("infer replay has a network");
                let o = net.delayed.run_with_stage1(cloud, &output, &mut ws).map_err(err)?;
                resp_infer = Some(WireInferResponse {
                    classes: o.classes as u32,
                    cache_hit: true,
                    batch_size: 1,
                    aggregation: protocol::AGG_DELAYED,
                    macs_moved: o.counters.macs_moved,
                    macs_saved: o.counters.macs_saved,
                    gather_bytes: o.counters.gather_bytes,
                    row_index: narrow(&o.row_index),
                    logits: o.logits,
                });
                protocol::encode_infer_request_payload(cloud, &wire_infer_request(), 0)
            }
        };

        let cached = Arc::new(built.clone());
        let cache_keys: Vec<u64> =
            (0..CACHE_CAPACITY as u64).map(|k| fnv1a64(FNV1A64_SEED, k)).collect();
        let full_cache = || {
            let mut cache = PartitionCache::new(CACHE_CAPACITY);
            for &k in &cache_keys {
                cache.insert(k, Arc::clone(&cached));
            }
            cache
        };
        let (cache_read, cache_write) = (full_cache(), full_cache());
        let resp_payloads = vec![Vec::new(); chunks.len().max(1)];

        let mut replay = Replay {
            op,
            frame: frame.clone(),
            config,
            pipeline,
            built,
            sampled,
            grouped,
            output,
            ws,
            net,
            dist: vec![f32::INFINITY; rows],
            bx,
            by,
            bz,
            queries,
            select: SelectScratch::new(),
            seg_out: vec![0.0; seg_counts.len() * SEG_CHANNELS],
            seg_features,
            seg_indices,
            seg_counts,
            req_payload,
            resp_wire,
            resp_infer,
            chunks,
            resp_payloads,
            cache_read,
            cache_write,
            cache_keys,
            cache_next: CACHE_CAPACITY as u64,
            cached,
        };
        replay.encode_response();
        Ok(replay)
    }

    fn cloud(&self) -> &PointCloud {
        &self.frame.0
    }

    // --- pointcloud.kernels ------------------------------------------------

    /// Points in the kernel rows' block.
    pub fn block_points(&self) -> usize {
        self.bx.len()
    }

    /// Query × candidate pairs one [`Replay::kernel_ball_select`] scans.
    pub fn ball_pairs(&self) -> usize {
        self.queries.len() * self.bx.len()
    }

    /// Segments one [`Replay::kernel_segmented_max`] reduces.
    pub fn segment_rows(&self) -> usize {
        self.seg_counts.len()
    }

    /// `kernels::fps_relax_argmax`: one FPS iteration over the block.
    pub fn kernel_fps_relax(&mut self, iteration: usize) -> usize {
        let q = self.queries[iteration % self.queries.len()];
        kernels::fps_relax_argmax(&self.bx, &self.by, &self.bz, q, &mut self.dist)
    }

    /// `kernels::ball_select_batch_into`: the block's centers against the
    /// block, nearest-`neighbors`-within-radius.
    pub fn kernel_ball_select(&mut self) -> usize {
        let mut hits = 0;
        kernels::ball_select_batch_into(
            kernels::active_backend(),
            &self.bx,
            &self.by,
            &self.bz,
            &self.queries,
            self.config.radius * self.config.radius,
            self.config.neighbors,
            &mut self.select,
            |_, best, _| hits += best.len(),
        );
        hits
    }

    /// `kernels::segmented_max_into`: one max-aggregation over the block.
    pub fn kernel_segmented_max(&mut self) -> f32 {
        kernels::segmented_max_into(
            &self.seg_features,
            SEG_CHANNELS,
            &self.seg_indices,
            &self.seg_counts,
            self.config.neighbors,
            &mut self.seg_out,
        );
        self.seg_out[0]
    }

    // --- core ----------------------------------------------------------------

    /// `Fractal::build`. Returns `(blocks, largest block)`.
    pub fn fractal_build(&mut self) -> Result<(usize, usize), String> {
        self.built = Fractal::new(FractalConfig::new(self.config.threshold))
            .build(self.cloud())
            .map_err(|e| e.to_string())?;
        let blocks = &self.built.partition.blocks;
        Ok((blocks.len(), blocks.iter().map(|b| b.len()).max().unwrap_or(0)))
    }

    /// `bppo::block_fps`, blocks in parallel or one after the other.
    pub fn bppo_sample(&mut self, parallel: bool) -> Result<usize, String> {
        let cfg = if parallel { BppoConfig::default() } else { BppoConfig::sequential() };
        self.sampled =
            block_fps(&self.frame.0, &self.built.partition, self.config.sample_rate, &cfg)
                .map_err(|e| e.to_string())?;
        Ok(self.sampled.indices.len())
    }

    /// `bppo::block_ball_query` for the sampled centers.
    pub fn bppo_group(&mut self) -> Result<usize, String> {
        self.grouped = block_ball_query(
            &self.frame.0,
            &self.built.partition,
            &self.sampled.per_block,
            self.config.radius,
            self.config.neighbors,
            &BppoConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        Ok(self.grouped.indices.len())
    }

    /// `Pipeline::run`: partition + sample + group in one call.
    pub fn pipeline_run(&mut self) -> Result<usize, String> {
        self.output = self.pipeline.run(&self.frame.0, true).map_err(|e| e.to_string())?;
        Ok(self.output.sampled.indices.len())
    }

    /// `PipelineOutput::prefix` at first-paint depth.
    pub fn lod_prefix(&self) -> usize {
        self.output.prefix(STREAM_OPEN.first_paint as usize).sampled.indices.len()
    }

    /// `PipelineOutput::slice_level` for every chunk of one stream; returns
    /// the chunk count.
    pub fn lod_slices(&self) -> usize {
        for c in &self.chunks {
            std::hint::black_box(self.output.slice_level(c.lo as usize, c.hi as usize));
        }
        self.chunks.len()
    }

    // --- parallel --------------------------------------------------------------

    /// `parallel_map_budget` over `items` no-op items at `budget`.
    pub fn parallel_noop(items: usize, budget: usize) -> usize {
        fractalcloud_parallel::parallel_map_budget((0..items).collect(), budget, |i, v: usize| {
            i ^ v
        })
        .len()
    }

    // --- pnn -------------------------------------------------------------------

    /// `Linear::forward_into` over every layer shape × row count of one
    /// delayed request; returns the MACs performed (computed from shapes).
    pub fn pnn_linears(&mut self) -> u64 {
        let Some(net) = self.net.as_mut() else { return 0 };
        for (layer, input) in &net.linears {
            layer.forward_into(input, &mut net.linear_out);
            std::hint::black_box(&net.linear_out);
        }
        net.linear_macs
    }

    /// MACs one [`Replay::pnn_linears`] performs (0 outside INFER).
    pub fn pnn_linear_macs(&self) -> u64 {
        self.net.as_ref().map_or(0, |n| n.linear_macs)
    }

    /// `NetworkExecutor::run_with_stage1_into` (the network half of an INFER
    /// request) under either schedule. Returns `[macs_moved, macs_saved,
    /// gather_bytes]` of the run.
    pub fn pnn_infer(&mut self, delayed: bool) -> Result<[u64; 3], String> {
        let Some(net) = self.net.as_mut() else { return Ok([0; 3]) };
        let executor = if delayed { &net.delayed } else { &net.eager };
        executor
            .run_with_stage1_into(&self.frame.0, &self.output, &mut self.ws, &mut net.out)
            .map_err(|e| e.to_string())?;
        let c = &net.out.counters;
        Ok([c.macs_moved, c.macs_saved, c.gather_bytes])
    }

    /// One delayed inference with the program's flight recorder on: the
    /// total of its `aggregate` spans, in µs (the segmented-max share of the
    /// forward pass, as the program itself attributes it).
    pub fn pnn_aggregate_us(&mut self) -> Result<f64, String> {
        program_trace(true);
        let _ = obs::drain();
        let run = self.pnn_infer(true);
        program_trace(false);
        let trace = program_trace_drain();
        run?;
        Ok(trace.stage_us(obs::SpanKind::Aggregate.name()))
    }

    // --- serve.protocol --------------------------------------------------------

    /// Encodes this input's request (payload + frame header), as the client
    /// does per request. Returns the bytes on the wire.
    pub fn encode_request(&mut self) -> usize {
        let cloud: &PointCloud = &self.frame.0;
        let (kind, payload) = match self.op {
            Op::Frame => (
                protocol::request_kind(Priority::Normal),
                protocol::encode_request_payload(cloud, &self.config),
            ),
            Op::Stream => (
                protocol::stream_request_kind(Priority::Normal),
                protocol::encode_stream_request_payload(cloud, &self.config, 0, &STREAM_OPEN),
            ),
            Op::Infer => (
                protocol::infer_request_kind(Priority::Normal),
                protocol::encode_infer_request_payload(cloud, &wire_infer_request(), 0),
            ),
        };
        protocol::encode_message(kind, &payload).len()
    }

    /// Decodes this input's request payload, as the server does.
    pub fn decode_request(&self) -> Result<usize, String> {
        let p = &self.req_payload;
        match self.op {
            Op::Frame => protocol::decode_request_payload(p).map(|r| r.0.len()),
            Op::Stream => protocol::decode_stream_request_payload(p).map(|r| r.0.len()),
            Op::Infer => protocol::decode_infer_request_payload(p).map(|r| r.0.len()),
        }
        .map_err(|e| e.to_string())
    }

    /// Encodes this input's reply (every chunk, for a stream), as the server
    /// does. Returns the payload bytes.
    pub fn encode_response(&mut self) -> usize {
        for buf in &mut self.resp_payloads {
            buf.clear();
        }
        if let Some(r) = &self.resp_wire {
            protocol::encode_response_payload_into(r, &mut self.resp_payloads[0]);
        } else if let Some(r) = &self.resp_infer {
            protocol::encode_infer_response_payload_into(r, &mut self.resp_payloads[0]);
        } else {
            for (c, buf) in self.chunks.iter().zip(&mut self.resp_payloads) {
                protocol::encode_stream_chunk_into(c, buf);
            }
        }
        self.resp_payloads.iter().map(Vec::len).sum()
    }

    /// Decodes this input's reply (every chunk, for a stream), as the client
    /// does. Returns the frames decoded.
    pub fn decode_response(&self) -> Result<usize, String> {
        for p in &self.resp_payloads {
            if self.resp_wire.is_some() {
                protocol::decode_response_payload(p).map(|_| ())
            } else if self.resp_infer.is_some() {
                protocol::decode_infer_response_payload(p).map(|_| ())
            } else {
                protocol::decode_stream_chunk_payload(p).map(|_| ())
            }
            .map_err(|e| e.to_string())?;
        }
        Ok(self.resp_payloads.len())
    }

    /// Encode + decode of the first-paint `CHUNK` frame (streams only).
    pub fn chunk_codec(&mut self) -> Result<usize, String> {
        let (Some(first), Some(buf)) = (self.chunks.first(), self.resp_payloads.first_mut()) else {
            return Ok(0);
        };
        buf.clear();
        protocol::encode_stream_chunk_into(first, buf);
        protocol::decode_stream_chunk_payload(buf)
            .map(|c| c.segments.len())
            .map_err(|e| e.to_string())
    }

    // --- serve.cache -----------------------------------------------------------

    /// `cache::frame_key`: the hash every request pays for its lookup.
    pub fn cache_frame_key(&self) -> u64 {
        frame_key(&self.frame.0, self.config.threshold)
    }

    /// `PartitionCache::get` hitting a full cache.
    pub fn cache_get(&mut self, i: usize) -> bool {
        self.cache_read.get(self.cache_keys[i % self.cache_keys.len()]).is_some()
    }

    /// `PartitionCache::insert` of a new key into a full cache (evicts).
    pub fn cache_insert(&mut self) {
        self.cache_next += 1;
        self.cache_write.insert(fnv1a64(FNV1A64_SEED, self.cache_next), Arc::clone(&self.cached));
    }

    // --- the direct equivalent of one request ---------------------------------

    /// What one request of this workload computes, called directly: the full
    /// pipeline when the server's caches miss (`warm = false`); when they
    /// hit, only the part a hit still runs — BPPO over the cached partition
    /// (plus the forward pass) for INFER, pure slicing for a stream.
    pub fn direct_request(&mut self, warm: bool) -> Result<(), String> {
        let err = |e: fractalcloud_pointcloud::Error| e.to_string();
        match (self.op, warm) {
            (Op::Stream, true) => {
                self.lod_slices();
            }
            (_, true) => {
                self.pipeline
                    .run_with_partition_into(
                        &self.frame.0,
                        &self.built,
                        true,
                        &mut self.ws,
                        &mut self.output,
                    )
                    .map_err(err)?;
            }
            (_, false) => {
                self.pipeline_run()?;
            }
        }
        if self.op == Op::Infer {
            self.pnn_infer(true)?;
        }
        Ok(())
    }
}
