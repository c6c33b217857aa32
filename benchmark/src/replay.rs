//! The per-layer replay: a single thread feeds the first few inputs of the
//! workload through each layer's public functions, in pipeline order, and
//! times every call from outside. Each call is a span (`layer.function`)
//! under one `replay.input` parent per input, so the trace file shows where
//! a request's time would go if nothing but that layer ran.
//!
//! A metric is the median over inputs × repetitions. Layers this workload's
//! requests never enter report 0 (see README.md, "Per-layer metrics").

use crate::spans;
use crate::stats;
use crate::sut::{self, Frame, Op, Replay, Server};
use crate::workload::Spec;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Inputs replayed per run, and how often each slow call is repeated on one
/// input. Small on purpose: the whole replay fits in a few seconds.
const INPUTS: usize = 4;
const REPS: usize = 3;
/// In-process requests timed against a cold engine (each input once, so
/// none can hit) and counted for the allocation rate of a warm one.
const COLD_REQUESTS: usize = 12;
const ALLOC_REQUESTS: u64 = 20;

#[derive(Default)]
struct Timings(BTreeMap<&'static str, Vec<f64>>);

impl Timings {
    /// Runs `f` inside a span and files its wall time (µs) under `name`.
    fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let _span = spans::enter(name, req);
        let t = Instant::now();
        let v = black_box(f());
        self.0.entry(name).or_default().push(t.elapsed().as_secs_f64() * 1e6);
        v
    }

    /// As [`Timings::time`] for a call too short to time alone: `f` runs
    /// `reps` times in one span, and what is filed is the time per *unit of
    /// work*, a call doing `units` of them (points scanned, chunks sliced).
    fn time_each(
        &mut self,
        name: &'static str,
        req: u64,
        reps: usize,
        units: usize,
        mut f: impl FnMut(usize),
    ) {
        let _span = spans::enter(name, req);
        let t = Instant::now();
        for i in 0..reps {
            f(i);
        }
        let per_unit = t.elapsed().as_secs_f64() * 1e6 / (reps * units.max(1)) as f64;
        self.0.entry(name).or_default().push(per_unit);
    }

    fn last_us(&self, name: &str) -> f64 {
        self.0.get(name).and_then(|v| v.last()).copied().unwrap_or(0.0)
    }

    fn median_us(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| stats::median(v))
    }
}

pub fn run(spec: &Spec, seed: u64, nproc: usize) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut t = Timings::default();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let is = |op: Op| spec.op == op;
    let inputs = INPUTS.min(spec.pool);

    let mut frames = Vec::new();
    let mut replays = Vec::new();
    let (mut blocks, mut max_block, mut req_bytes, mut resp_bytes) = (0, 0, 0, 0);
    let mut net_counts = [0u64; 3];
    for k in 0..inputs {
        let req = k as u64;
        let _input = spans::enter("replay.input", req);
        let frame = t.time("pointcloud.generate", req, || spec.input(seed, k));
        let mut r = {
            let _prepare = spans::enter("replay.prepare", req);
            Replay::new(spec.op, &frame)?
        };

        // pointcloud.kernels, on this input's first leaf block.
        t.time_each("pointcloud.kernels.fps_relax", req, 400, r.block_points(), |i| {
            black_box(r.kernel_fps_relax(i));
        });
        t.time_each("pointcloud.kernels.ball_select", req, 40, r.ball_pairs(), |_| {
            black_box(r.kernel_ball_select());
        });
        t.time_each("pointcloud.kernels.segmented_max", req, 100, r.segment_rows(), |_| {
            black_box(r.kernel_segmented_max());
        });

        // core: the three stages called one by one, then the one call that
        // runs all three — interleaved so drift hits both sides alike.
        for _ in 0..REPS {
            (blocks, max_block) = t.time("core.fractal.build", req, || r.fractal_build())?;
            t.time("core.bppo.sample", req, || r.bppo_sample(true))?;
            t.time("core.bppo.group", req, || r.bppo_group())?;
            t.time("core.pipeline.run", req, || r.pipeline_run())?;
            if nproc >= 2 {
                t.time("core.bppo.sample_sequential", req, || r.bppo_sample(false))?;
                r.bppo_sample(true)?;
            }
        }
        if is(Op::Stream) {
            t.time_each("core.lod.prefix", req, 20, 1, |_| {
                black_box(r.lod_prefix());
            });
            t.time_each("core.lod.slices", req, 20, r.lod_slices(), |_| {
                black_box(r.lod_slices());
            });
        }

        // pnn: the layers alone, then the forward pass under both schedules.
        if is(Op::Infer) {
            for _ in 0..REPS {
                t.time("pnn.layers.linear", req, || r.pnn_linears());
                net_counts = t.time("pnn.infer.delayed", req, || r.pnn_infer(true))?;
            }
            if k < 2 {
                // Eager is an order of magnitude slower; two runs are enough
                // to show whether a delayed-only trick taxed it.
                net_counts[2] = t.time("pnn.infer.eager", req, || r.pnn_infer(false))?[2];
            }
            let aggregate_us = r.pnn_aggregate_us()?;
            t.0.entry("pnn.infer.aggregate").or_default().push(aggregate_us);
        }

        // serve.protocol: this input's request and reply through the codec.
        if spec.wire {
            for _ in 0..REPS {
                req_bytes = t.time("serve.protocol.encode_req", req, || r.encode_request());
                t.time("serve.protocol.decode_req", req, || r.decode_request())?;
                resp_bytes = t.time("serve.protocol.encode_resp", req, || r.encode_response());
                t.time("serve.protocol.decode_resp", req, || r.decode_response())?;
            }
            if is(Op::Stream) {
                t.time_each("serve.protocol.chunk_codec", req, 20, 1, |_| {
                    black_box(r.chunk_codec().is_ok());
                });
            }
        }

        // serve.cache: the hash every request pays, and a full LRU's
        // read and evicting write.
        for _ in 0..REPS {
            t.time("serve.cache.frame_key", req, || r.cache_frame_key());
        }
        t.time_each("serve.cache.get", req, 2000, 1, |i| {
            black_box(r.cache_get(i));
        });
        t.time_each("serve.cache.insert", req, 2000, 1, |_| r.cache_insert());

        frames.push(frame);
        replays.push(r);
    }

    // parallel: the cost of a fan-out that does nothing.
    for _ in 0..50 {
        t.time("parallel.map", 0, || Replay::parallel_noop(64, nproc));
    }

    // serve.engine, in-process: the same requests through admission, queue,
    // worker and caches — everything but the wire.
    let server = Server::start(nproc, false)?;
    let (op_counts, allocs_per_req) =
        engine_inproc(spec, seed, &server, &frames, &mut replays, &mut t)?;
    server.stop();

    let us = |name: &str| t.median_us(name);
    let ms = |name: &str| t.median_us(name) / 1e3;
    out.insert("pointcloud.generate.ms_per_frame", ms("pointcloud.generate"));
    out.insert(
        "pointcloud.kernels.fps_relax_ns_per_point",
        1e3 * us("pointcloud.kernels.fps_relax"),
    );
    out.insert(
        "pointcloud.kernels.ball_select_ns_per_pair",
        1e3 * us("pointcloud.kernels.ball_select"),
    );
    out.insert(
        "pointcloud.kernels.segmented_max_ns_per_row",
        1e3 * us("pointcloud.kernels.segmented_max"),
    );
    for (name, v) in [
        "pointcloud.ops.distance_evals",
        "pointcloud.ops.coord_reads",
        "pointcloud.ops.writes",
        "pointcloud.ops.skipped",
    ]
    .into_iter()
    .zip(op_counts)
    {
        out.insert(name, v as f64);
    }
    out.insert("core.fractal.build_ms", ms("core.fractal.build"));
    out.insert("core.fractal.blocks", blocks as f64);
    out.insert("core.fractal.max_block_points", max_block as f64);
    out.insert("core.bppo.sample_ms", ms("core.bppo.sample"));
    out.insert("core.bppo.group_ms", ms("core.bppo.group"));
    out.insert("core.lod.prefix_us", us("core.lod.prefix"));
    out.insert("core.lod.slice_us_per_chunk", us("core.lod.slices"));
    out.insert("core.pipeline.run_ms", ms("core.pipeline.run"));
    out.insert(
        "core.pipeline.self_ms",
        ms("core.pipeline.run")
            - ms("core.fractal.build")
            - ms("core.bppo.sample")
            - ms("core.bppo.group"),
    );
    out.insert("parallel.map_overhead_us", us("parallel.map"));
    out.insert(
        "parallel.block_speedup",
        // One core: nothing to speed up, and no claim is made.
        if nproc >= 2 { us("core.bppo.sample_sequential") / us("core.bppo.sample") } else { 0.0 },
    );
    let linear_ms = ms("pnn.layers.linear");
    out.insert("pnn.layers.linear_ms", linear_ms);
    out.insert(
        "pnn.layers.linear_gflops",
        // FLOPs are computed from the layer shapes (2 per MAC), not counted.
        if linear_ms > 0.0 {
            2.0 * replays[0].pnn_linear_macs() as f64 / (linear_ms * 1e6)
        } else {
            0.0
        },
    );
    out.insert("pnn.infer.delayed_ms", ms("pnn.infer.delayed"));
    out.insert("pnn.infer.eager_ms", ms("pnn.infer.eager"));
    out.insert("pnn.infer.aggregate_ms", ms("pnn.infer.aggregate"));
    out.insert("pnn.infer.macs", net_counts[0] as f64);
    out.insert("pnn.infer.macs_saved", net_counts[1] as f64);
    out.insert("pnn.infer.gather_bytes", net_counts[2] as f64);
    out.insert("serve.protocol.encode_req_us", us("serve.protocol.encode_req"));
    out.insert("serve.protocol.decode_req_us", us("serve.protocol.decode_req"));
    out.insert("serve.protocol.encode_resp_us", us("serve.protocol.encode_resp"));
    out.insert("serve.protocol.decode_resp_us", us("serve.protocol.decode_resp"));
    out.insert("serve.protocol.chunk_codec_us", us("serve.protocol.chunk_codec"));
    out.insert("serve.protocol.req_bytes", req_bytes as f64);
    out.insert("serve.protocol.resp_bytes", resp_bytes as f64);
    out.insert("serve.cache.frame_key_us", us("serve.cache.frame_key"));
    out.insert("serve.cache.get_us", us("serve.cache.get"));
    out.insert("serve.cache.insert_us", us("serve.cache.insert"));
    out.insert("serve.engine.inproc_ms", ms("serve.engine.inproc"));
    out.insert("serve.engine.overhead_us", us("serve.engine.overhead"));
    out.insert("serve.engine.allocs_per_req", allocs_per_req);
    Ok(out)
}

/// Times in-process requests against a fresh engine, each paired with the
/// direct call that computes the same thing (`direct.request`) on the same
/// input a moment earlier — `serve.engine.overhead` is the median of the
/// paired differences, so machine drift between the two cancels. A warm
/// workload primes the replayed inputs and then times them repeatedly (all
/// hits); a cold one sends [`COLD_REQUESTS`] distinct inputs once each (all
/// misses; only the replayed ones have a direct twin). Returns the
/// `OpCounters` sum of the first replies and the allocations per warm
/// request (0 on a cold workload, where thread fan-out makes the count
/// scheduling-dependent).
fn engine_inproc(
    spec: &Spec,
    seed: u64,
    server: &Server,
    frames: &[Frame],
    replays: &mut [Replay],
    t: &mut Timings,
) -> Result<([u64; 4], f64), String> {
    let mut op_counts = [0u64; 4];
    let mut count = |reply: &sut::Reply| {
        if let Some(c) = reply.op_counts() {
            for (sum, v) in op_counts.iter_mut().zip(c) {
                *sum += v;
            }
        }
    };
    let mut paired = |t: &mut Timings, k: usize, first: bool| -> Result<(), String> {
        t.time("direct.request", k as u64, || replays[k].direct_request(spec.warm))?;
        let reply =
            t.time("serve.engine.inproc", k as u64, || server.process(spec.op, &frames[k]))?;
        let overhead = t.last_us("serve.engine.inproc") - t.last_us("direct.request");
        t.0.entry("serve.engine.overhead").or_default().push(overhead);
        if first {
            count(&reply);
        }
        server.recycle(reply);
        Ok(())
    };
    if !spec.warm {
        for k in 0..frames.len() {
            paired(t, k, true)?;
        }
        for k in frames.len()..COLD_REQUESTS.min(spec.pool) {
            let frame = spec.input(seed, k);
            let reply =
                t.time("serve.engine.inproc", k as u64, || server.process(spec.op, &frame))?;
            server.recycle(reply);
        }
        return Ok((op_counts, 0.0));
    }
    for frame in frames {
        server.recycle(server.process(spec.op, frame)?);
    }
    for rep in 0..REPS {
        for k in 0..frames.len() {
            paired(t, k, rep == 0)?;
        }
    }
    let before = sut::allocation_count();
    for i in 0..ALLOC_REQUESTS as usize {
        server.recycle(server.process(spec.op, &frames[i % frames.len()])?);
    }
    let allocs = (sut::allocation_count() - before) as f64 / ALLOC_REQUESTS as f64;
    Ok((op_counts, allocs))
}
