//! Load generator for the `fractalcloud-serve` TCP front-end: drives a
//! localhost server with concurrent clients at full tilt, then prints
//! sustained throughput, shed/latency statistics, and the server's own
//! per-stage metrics.
//!
//! ```text
//! cargo run --release --example serve_loadgen            # 256 frames, 4 clients
//! cargo run --release --example serve_loadgen -- --quick # CI smoke scale
//! ```
//!
//! The second phase deliberately overloads a deliberately small admission
//! queue to demonstrate the backpressure contract: under overload the
//! server sheds with counted rejections — the queue's high-water mark never
//! passes its bound, so memory stays flat no matter how hard the clients
//! push.

use fractalcloud::core::{Pipeline, PipelineConfig, PipelineOutput, Workspace};
use fractalcloud::pointcloud::generate::{scene_cloud, SceneConfig};
use fractalcloud::pointcloud::kernels;
use fractalcloud::pointcloud::PointCloud;
use fractalcloud::serve::{
    ClientError, Engine, FaultPlan, Priority, ServeClient, ServeConfig, TcpServer,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// With the `bench` feature (default), the loadgen installs the counting
/// allocator so the steady-state alloc telemetry below reports real
/// per-frame heap traffic.
#[cfg(feature = "bench")]
#[global_allocator]
static ALLOC: fractalcloud::pointcloud::count_alloc::CountingAllocator =
    fractalcloud::pointcloud::count_alloc::CountingAllocator;

/// Prints the serving counters a dashboard would scrape after this phase:
/// a filtered slice of the engine's Prometheus-style exposition (the full
/// text is one `METRICS` opcode away).
fn print_exposition(text: &str) {
    println!("  exposition     :");
    for line in text.lines() {
        if line.starts_with("fractalcloud_requests_total")
            || line.starts_with("fractalcloud_latency_us")
            || line.starts_with("fractalcloud_queue_wait_p99_us_all")
            || line.starts_with("fractalcloud_trace_enabled")
            || line.starts_with("fractalcloud_overload_level")
            || line.starts_with("fractalcloud_goaway_sent_total")
            || line.starts_with("fractalcloud_retries_total")
        {
            println!("    {line}");
        }
    }
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// Drives `frames` requests through `clients` connections as fast as they
/// will go (connection `c` submits at `priority_of(c)`); returns (wall
/// seconds, ok count, shed count, sorted latencies).
fn drive(
    addr: std::net::SocketAddr,
    clouds: &[PointCloud],
    cfg: PipelineConfig,
    frames: usize,
    clients: usize,
    priority_of: impl Fn(usize) -> Priority + Sync,
) -> (f64, u64, u64, Vec<u64>) {
    let t0 = Instant::now();
    let per_client = frames.div_ceil(clients);
    let results = fractalcloud_parallel::parallel_map_budget(
        (0..clients).collect::<Vec<_>>(),
        clients,
        |_, c| {
            let mut client = ServeClient::connect(addr).expect("connect loadgen client");
            let mut ok = 0u64;
            let mut shed = 0u64;
            let mut lat_us = Vec::with_capacity(per_client);
            for i in 0..per_client {
                let cloud = &clouds[(c * per_client + i) % clouds.len()];
                let t = Instant::now();
                match client.process_with_priority(cloud, &cfg, priority_of(c)) {
                    Ok(_) => {
                        ok += 1;
                        lat_us.push(t.elapsed().as_micros() as u64);
                    }
                    Err(e) if e.is_shed() => shed += 1,
                    Err(e) => panic!("loadgen hit a non-shed error: {e}"),
                }
            }
            (ok, shed, lat_us)
        },
    );
    let wall = t0.elapsed().as_secs_f64();
    let mut ok = 0;
    let mut shed = 0;
    let mut lat = Vec::new();
    for (o, s, l) in results {
        ok += o;
        shed += s;
        lat.extend(l);
    }
    lat.sort_unstable();
    (wall, ok, shed, lat)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (frames, points, clients) = if quick { (48, 1024, 3) } else { (256, 4096, 4) };
    println!(
        "serve_loadgen: {frames} frames × {points} points, {clients} clients, \
         kernel backend {}, {} lib worker threads",
        kernels::active_backend().name(),
        fractalcloud_parallel::workers(),
    );

    // A few distinct frames plus repeats, so the partition LRU sees hits.
    let clouds: Vec<PointCloud> =
        (0..8).map(|s| scene_cloud(&SceneConfig::default(), points, s)).collect();
    let cfg = PipelineConfig::default();

    // --- Phase 1: sustained throughput on a sanely sized queue ---
    let engine = Arc::new(Engine::start(ServeConfig::from_env()));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind localhost");
    let (wall, ok, shed, lat) =
        drive(server.local_addr(), &clouds, cfg, frames, clients, |_| Priority::Normal);
    let m = engine.metrics();
    println!("\nphase 1 — sustained serving");
    println!(
        "  throughput     : {:.1} frames/s ({ok} ok, {shed} shed, {wall:.2} s)",
        ok as f64 / wall
    );
    println!(
        "  latency        : p50 {} µs, p99 {} µs (client-side)",
        percentile(&lat, 0.50),
        percentile(&lat, 0.99)
    );
    println!(
        "  server metrics : admitted {}, completed {}, mean batch {:.2}, cache {}/{} hits, peak queue {}",
        m.admitted, m.completed, m.mean_batch(), m.cache_hits, m.cache_hits + m.cache_misses,
        m.peak_queue_depth
    );
    print_exposition(&engine.metrics_text());
    server.shutdown();
    engine.shutdown();

    // --- Steady-state allocation telemetry (workspace reuse) ---
    // The warmed core hot path (cache-hit shape: partition prebuilt, BPPO
    // half re-run through one workspace + output staging) must allocate
    // nothing per frame; the serve path on cache hits adds
    // only the response buffers it hands to the client. Counted by the
    // measurement allocator when built with the `bench` feature (default).
    if cfg!(feature = "bench") {
        use fractalcloud::pointcloud::count_alloc::allocation_count;
        let cloud = &clouds[0];
        let pipe = Pipeline::new(cfg).expect("default config");
        let mut ws = Workspace::new();
        let built = pipe.partition_ws(cloud, &mut ws).expect("partition");
        let mut staging = PipelineOutput::default();
        pipe.run_with_partition_into(cloud, &built, false, &mut ws, &mut staging).expect("warm");
        let mut core_allocs = 0u64;
        for _ in 0..8 {
            let before = allocation_count();
            pipe.run_with_partition_into(cloud, &built, false, &mut ws, &mut staging)
                .expect("warm run");
            core_allocs = core_allocs.max(allocation_count() - before);
        }
        // The recycling serve loop: the cloud is shared (no per-submit
        // clone), the response's buffers go back to the engine's pool via
        // `recycle`, and slots/workspaces/staging come from their own
        // pools — so a warm cache-hit frame touches the heap zero times.
        let engine = Engine::start(ServeConfig::from_env().workers(1));
        let shared = Arc::new(cloud.clone());
        for _ in 0..4 {
            let r = engine.process_shared(Arc::clone(&shared), cfg).expect("serve warmup");
            engine.recycle(r);
        }
        let serve_frames = 16u64;
        let before = allocation_count();
        for _ in 0..serve_frames {
            let r = engine.process_shared(Arc::clone(&shared), cfg).expect("serve warm frame");
            engine.recycle(r);
        }
        let serve_allocs = (allocation_count() - before) / serve_frames;
        engine.shutdown();
        println!("\nsteady-state allocations");
        println!(
            "  core hot path  : {core_allocs} allocs/frame (warmed workspace + output staging)"
        );
        println!(
            "  serve cache-hit: {serve_allocs} allocs/frame (shared cloud, recycled response buffers)"
        );
        assert_eq!(core_allocs, 0, "the warmed core hot path must be allocation-free");
        assert_eq!(
            serve_allocs, 0,
            "the recycling serve loop must be allocation-free on cache hits"
        );
        println!(
            "  steady state   : 0 allocs/frame end to end (core hot path AND the\n  recycling serve loop — response buffers circulate client → engine → client)"
        );
    } else {
        println!("\nsteady-state allocations: not measured (build with --features bench)");
    }

    // --- Phase 2: overload a tiny queue to show counted load-shedding ---
    let capacity = 2;
    let engine = Arc::new(Engine::start(
        ServeConfig::from_env().workers(1).queue_capacity(capacity).thread_budget(1),
    ));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind localhost");
    let burst_clients = clients * 2;
    let (wall, ok, shed, _) =
        drive(server.local_addr(), &clouds, cfg, frames, burst_clients, |_| Priority::Normal);
    let m = engine.metrics();
    println!("\nphase 2 — overload (1 worker, queue capacity {capacity}, {burst_clients} clients)");
    println!(
        "  throughput     : {:.1} frames/s ({ok} ok, {shed} shed, {wall:.2} s)",
        ok as f64 / wall
    );
    println!(
        "  backpressure   : {} shed as queue-full, peak queue depth {} (bound {capacity})",
        m.shed_queue_full, m.peak_queue_depth
    );
    assert_eq!(m.shed_queue_full, shed, "client-observed sheds must match server counters");
    assert!(
        m.peak_queue_depth <= capacity as u64,
        "queue exceeded its bound: {} > {capacity}",
        m.peak_queue_depth
    );
    assert!(shed > 0 || quick, "an overloaded tiny queue should shed");
    println!(
        "  the admission queue never grew past its bound: excess load was rejected\n  with counted reasons instead of buffered — memory stays flat under overload."
    );
    print_exposition(&engine.metrics_text());
    server.shutdown();
    engine.shutdown();

    // --- Phase 3: mixed-priority overload — weighted dequeue + per-class
    // shedding (Bulk displaced first at the bound, High completing first) ---
    let capacity = 4;
    let engine = Arc::new(Engine::start(
        ServeConfig::from_env().workers(1).queue_capacity(capacity).thread_budget(1),
    ));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind localhost");
    let mix_clients = clients * 2;
    // Connection c submits at class c % 3 (High, Normal, Bulk round-robin).
    let (wall, ok, shed, _) =
        drive(server.local_addr(), &clouds, cfg, frames, mix_clients, |c| Priority::ALL[c % 3]);
    let m = engine.metrics();
    println!("\nphase 3 — mixed priorities (1 worker, queue capacity {capacity}, {mix_clients} clients across 3 classes)");
    println!(
        "  throughput     : {:.1} frames/s ({ok} ok, {shed} shed, {wall:.2} s)",
        ok as f64 / wall
    );
    println!(
        "  shed by class  : high={} normal={} bulk={}",
        m.shed_by_class[0], m.shed_by_class[1], m.shed_by_class[2]
    );
    println!(
        "  p99 by class   : high={} µs, normal={} µs, bulk={} µs",
        m.latency_p99_by_class_us[0], m.latency_p99_by_class_us[1], m.latency_p99_by_class_us[2]
    );
    assert_eq!(
        m.shed_by_class.iter().sum::<u64>(),
        m.shed_queue_full,
        "per-class queue-bound sheds must sum to the global counter"
    );
    assert_eq!(m.shed_queue_full, shed, "client-observed sheds must match server counters");
    assert!(
        m.peak_queue_depth <= capacity as u64,
        "queue exceeded its bound: {} > {capacity}",
        m.peak_queue_depth
    );
    println!(
        "  under a mixed-class flood the queue bound sheds the lowest class first\n  (displacement) while the weighted schedule keeps High latency ahead."
    );
    print_exposition(&engine.metrics_text());
    server.shutdown();
    engine.shutdown();

    // --- Phase 4: chaos soak — seeded fault injection over live TCP ---
    // A fixed-seed storm of worker panics, block errors, block delays and
    // net-write errors. The invariant under test: every request gets
    // exactly one outcome (response, counted error, or a visible
    // connection drop) — never a hung waiter — and the engine survives
    // every worker panic without restarting.
    let plan = FaultPlan::parse(
        "panic@worker:0.08,err@block:0.02,delay@block:200us:0.05,err@net_write:0.01;seed=4242",
    )
    .expect("chaos fault plan");
    let engine =
        Arc::new(Engine::start(ServeConfig::from_env().workers(2).queue_capacity(64).faults(plan)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind localhost");
    let addr = server.local_addr();
    let connect = |note: &str| {
        let mut c = ServeClient::connect(addr).unwrap_or_else(|e| panic!("{note}: {e}"));
        c.set_read_timeout(Some(Duration::from_secs(10))).expect("set chaos read timeout");
        c
    };
    let mut client = connect("connect chaos client");
    let target_panics = 10u64;
    let max_requests = frames as u64 * 40; // bounded cap so the soak always terminates
    let (mut sent, mut ok, mut internal, mut shed, mut conn_drops, mut hung) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let t0 = Instant::now();
    while engine.metrics().worker_panics < target_panics && sent < max_requests {
        let cloud = &clouds[sent as usize % clouds.len()];
        // Every 8th request carries a 1 ms deadline; under injected delays
        // it may shed retryably — either way it must resolve.
        let deadline_ms = if sent % 8 == 7 { 1 } else { 0 };
        sent += 1;
        match client.process_with_options(cloud, &cfg, Priority::Normal, deadline_ms) {
            Ok(_) => ok += 1,
            Err(e) if e.is_shed() => shed += 1,
            Err(ClientError::Server { code, .. })
                if code == fractalcloud::serve::protocol::status::INTERNAL_ERROR =>
            {
                internal += 1;
            }
            Err(ClientError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) =>
            {
                // 10 s with no bytes at all: a genuinely hung request —
                // the one outcome the failure model forbids.
                hung += 1;
                client = connect("reconnect after hang");
            }
            Err(ClientError::Server { .. }) => {
                panic!("chaos soak hit an unexpected server status");
            }
            Err(_) => {
                // An injected net-write fault killed the connection; the
                // drop is visible (not silent), so the contract holds —
                // reconnect and keep pushing.
                conn_drops += 1;
                client = connect("reconnect after injected net fault");
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let m = engine.metrics();
    let health = client.health().expect("health probe over TCP");
    println!("\nphase 4 — chaos soak (seeded faults: worker panics, block errors, delays, net-write errors)");
    println!(
        "  outcomes       : {ok} ok, {internal} internal, {shed} shed, {conn_drops} conn drops \
         of {sent} sent ({wall:.2} s)"
    );
    println!("  fault layer    : {} injections, seed 4242", m.faults_injected);
    println!("  chaos: {hung} hung requests");
    println!(
        "  engine survived {} worker panics ({} workers respawned)",
        m.worker_panics, m.workers_respawned
    );
    assert_eq!(hung, 0, "the failure model forbids hung requests");
    assert_eq!(
        sent,
        ok + internal + shed + conn_drops,
        "every request must have exactly one accounted outcome"
    );
    assert!(
        m.worker_panics >= target_panics,
        "the soak should have produced >= {target_panics} worker panics, got {}",
        m.worker_panics
    );
    assert!(health.live, "the engine must still be live after the storm: {health:?}");
    print_exposition(&engine.metrics_text());
    server.shutdown();
    engine.shutdown();

    // --- Phase 5: inference serving — eager vs Mesorasi delayed aggregation ---
    // The same frames now carry a full network forward pass (`INFER` on
    // the wire). Eager gathers neighbor features and runs the stage-1 MLP
    // on centers × nsample duplicated rows; delayed runs it once per
    // unique point and max-aggregates afterwards. Logits are bit-identical
    // — the schedules differ only in where the MACs land.
    use fractalcloud::serve::protocol::{WireInferRequest, AGG_DELAYED, AGG_EAGER};
    use fractalcloud::serve::ModelConfig;
    let (infer_points, infer_frames) = if quick { (512, 4) } else { (1024, 8) };
    let infer_clouds: Vec<PointCloud> =
        (0..2).map(|s| scene_cloud(&SceneConfig::default(), infer_points, 90 + s)).collect();
    let notation = ModelConfig::table1().remove(0).notation;
    let request = |agg: u8| WireInferRequest {
        threshold: cfg.threshold as u32,
        seed: 42,
        aggregation: agg,
        notation: notation.clone(),
    };
    let engine = Arc::new(Engine::start(ServeConfig::from_env().workers(1)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind localhost");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect infer client");
    // Warm both schedules (partition LRU + cached executors) and check the
    // cross-schedule bit-identity while at it.
    let mut last = None;
    for c in &infer_clouds {
        let e = client.infer(c, &request(AGG_EAGER)).expect("eager warmup");
        let d = client.infer(c, &request(AGG_DELAYED)).expect("delayed warmup");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&e.logits),
            bits(&d.logits),
            "eager and delayed must produce bit-identical logits"
        );
        last = Some(d);
    }
    let mut timed = |agg: u8| {
        let t0 = Instant::now();
        for i in 0..infer_frames {
            client
                .infer(&infer_clouds[i % infer_clouds.len()], &request(agg))
                .expect("infer frame");
        }
        t0.elapsed().as_secs_f64()
    };
    let eager_wall = timed(AGG_EAGER);
    let delayed_wall = timed(AGG_DELAYED);
    let last = last.expect("warmed at least one frame");
    let speedup = eager_wall / delayed_wall;
    println!(
        "\nphase 5 — inference serving ({notation}, {infer_points} pts, {infer_frames} warm frames per schedule)"
    );
    println!(
        "  eager          : {:.1} frames/s (gather-then-MLP)",
        infer_frames as f64 / eager_wall
    );
    println!(
        "  delayed        : {:.1} frames/s ({} MACs moved, {} MACs saved per frame)",
        infer_frames as f64 / delayed_wall,
        last.macs_moved,
        last.macs_saved
    );
    println!("  logits         : bit-identical across schedules (checked over TCP)");
    println!("  delayed-vs-eager speedup: {speedup:.2}x");
    assert!(last.macs_saved > 0, "delayed aggregation must report saved MACs");
    assert!(
        speedup > 1.0 || quick,
        "delayed aggregation should outrun eager at this scale (got {speedup:.2}x)"
    );
    // This phase scrapes over the wire — the `METRICS` opcode itself.
    print_exposition(&client.metrics_text().expect("METRICS over TCP"));
    server.shutdown();
    engine.shutdown();

    // --- Phase 6: progressive LOD streaming — coarse-to-fine over TCP ---
    // A STREAM request paints a small prefix of the frame's coarse-to-fine
    // FPS ordering immediately, then refines in credit-gated chunks. The
    // numbers that matter: time-to-first-byte (first chunk) vs the full
    // monolithic response, per-frame wire allocations on a warm connection
    // (the per-connection encode/decode scratch must be reused, not
    // reallocated), and — after a deliberate mid-stream cancel — the
    // engine's stream gauge returning to zero: no hung streams.
    use fractalcloud::serve::protocol::WireStreamOpen;
    use fractalcloud::serve::StreamEvent;
    let engine = Arc::new(Engine::start(ServeConfig::from_env().workers(2)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind localhost");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect stream client");
    let stream_cloud = &clouds[0];
    let first_paint = 64u32;
    let open = WireStreamOpen { first_paint, chunk: 0, credits: 0 };
    // Warm both paths: the first stream computes (and caches) the frame's
    // full FPS ordering; the direct request warms the partition LRU.
    client.stream_frame(stream_cloud, &cfg, Priority::High, 0, &open).expect("stream warmup");
    client.process(stream_cloud, &cfg).expect("direct warmup");

    let stream_frames = if quick { 4 } else { 16 };
    let mut ttfb_us = Vec::with_capacity(stream_frames);
    let mut chunks_seen = 0u64;
    for _ in 0..stream_frames {
        let t = Instant::now();
        client.stream_open(stream_cloud, &cfg, Priority::High, 0, &open).expect("open stream");
        let first = match client.stream_next().expect("stream event") {
            StreamEvent::Chunk(c) => c,
            StreamEvent::End(e) => panic!("stream ended before first paint: {e:?}"),
        };
        ttfb_us.push(t.elapsed().as_micros() as u64);
        chunks_seen += 1;
        // Drain to full depth, replenishing one credit per refinement.
        let (mut depth, total) = (first.hi, first.total);
        loop {
            if depth < total {
                client.stream_credit().expect("stream credit");
            }
            match client.stream_next().expect("stream event") {
                StreamEvent::Chunk(c) => {
                    depth = c.hi;
                    chunks_seen += 1;
                }
                StreamEvent::End(_) => break,
            }
        }
    }
    ttfb_us.sort_unstable();
    let mut full_us = Vec::with_capacity(stream_frames);
    for _ in 0..stream_frames {
        let t = Instant::now();
        client.process(stream_cloud, &cfg).expect("warm full frame");
        full_us.push(t.elapsed().as_micros() as u64);
    }
    full_us.sort_unstable();
    let (ttfb_p50, full_p50) = (percentile(&ttfb_us, 0.50), percentile(&full_us, 0.50));

    // Warm-connection wire allocations: the per-connection scratch buffers
    // absorb request reads and response encodes, so the per-frame count
    // stays flat no matter how many frames the connection has served.
    if cfg!(feature = "bench") {
        use fractalcloud::pointcloud::count_alloc::allocation_count;
        for _ in 0..2 {
            client.process(stream_cloud, &cfg).expect("wire warmup");
        }
        let n = 8u64;
        let before = allocation_count();
        for _ in 0..n {
            client.process(stream_cloud, &cfg).expect("wire warm frame");
        }
        let wire_allocs = (allocation_count() - before) / n;
        println!("\nphase 6 — progressive LOD streaming ({stream_frames} streams, first paint {first_paint} samples)");
        println!(
            "  wire-allocs/frame: {wire_allocs} (warm connection, per-connection scratch reused)"
        );
    } else {
        println!("\nphase 6 — progressive LOD streaming ({stream_frames} streams, first paint {first_paint} samples)");
        println!("  wire-allocs/frame: not measured (build with --features bench)");
    }
    println!(
        "  ttfb           : p50 {ttfb_p50} µs first chunk vs p50 {full_p50} µs full response \
         ({chunks_seen} chunks streamed)"
    );
    assert!(
        ttfb_p50 <= full_p50 || quick,
        "warm first paint should land no later than the warm full response \
         ({ttfb_p50} µs vs {full_p50} µs)"
    );

    // A viewer losing interest: cancel after the first paint, and the
    // server provably stops refining (the engine-side chunk counter halts).
    client
        .stream_open(
            stream_cloud,
            &cfg,
            Priority::Normal,
            0,
            &WireStreamOpen { first_paint: 32, chunk: 32, credits: 1 },
        )
        .expect("open cancellable stream");
    match client.stream_next().expect("first paint") {
        StreamEvent::Chunk(c) => assert!(c.hi < c.total, "cancel demo needs refinements left"),
        StreamEvent::End(e) => panic!("stream ended before first paint: {e:?}"),
    }
    client.cancel().expect("send cancel");
    let end = loop {
        match client.stream_next().expect("stream event") {
            StreamEvent::Chunk(_) => {} // already in flight when the cancel landed
            StreamEvent::End(end) => break end,
        }
    };
    assert!(end.cancelled, "the server must acknowledge the mid-stream cancel");
    println!(
        "  cancel         : acknowledged after {} chunks / {} samples — refinement stopped early",
        end.chunks, end.delivered
    );

    let m = engine.metrics();
    let health = client.health().expect("health over TCP");
    assert_eq!(health.streams_open, 0, "every stream must be closed at phase end: {health:?}");
    println!(
        "  zero hung streams: streams_open=0 (opened {}, closed {}, cancelled {}, chunks sent {})",
        m.streams_opened, m.streams_closed, m.streams_cancelled, m.stream_chunks_sent
    );
    server.shutdown();
    engine.shutdown();

    // --- Phase 7: graceful degradation — adaptive brown-out, then a live
    // zero-downtime drain with a self-healing client ---
    // An aggressive controller tuning (any measurable queue wait counts as
    // pressure, relax-through-traffic effectively off) so the storm
    // demonstrably climbs the brown-out ladder; once the clients stop, idle
    // decay must walk the level back to Normal with no operator action.
    use fractalcloud::serve::{BrownoutConfig, RetryPolicy};
    let brownout = BrownoutConfig {
        enabled: true,
        forced: None,
        escalate_wait_us: 200,
        relax_wait_us: 100,
        escalate_after: 1,
        relax_after: 1_000_000,
        dwell_ms: 1,
    };
    let engine = Arc::new(Engine::start(
        ServeConfig::from_env().workers(1).thread_budget(1).queue_capacity(32).brownout(brownout),
    ));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind localhost");
    let storm_clients = clients * 2;
    let (wall, ok, shed, _) =
        drive(server.local_addr(), &clouds, cfg, frames, storm_clients, |_| Priority::Normal);
    let m = engine.metrics();
    let by_level = |l: usize| m.requests_degraded.iter().map(|per_class| per_class[l]).sum::<u64>();
    println!(
        "\nphase 7 — graceful degradation (adaptive brown-out, {storm_clients} clients on 1 worker)"
    );
    println!(
        "  throughput     : {:.1} frames/s ({ok} ok, {shed} shed, {wall:.2} s)",
        ok as f64 / wall
    );
    println!(
        "  degraded by level: l1={} l2={} l3={} ({} of {ok} ok responses at reduced budget)",
        by_level(0),
        by_level(1),
        by_level(2),
        m.degraded_total()
    );
    assert!(m.degraded_total() > 0, "the storm should have pushed the controller into brown-out");
    // Degraded responses are still correct — just shallower: each is the
    // exact budget-k prefix of the full quality ordering, so a dashboard
    // shows quality fading under load instead of requests failing.
    println!(
        "  under pressure the server answered at a reduced LOD budget (exact\n  prefix of the full ordering) instead of shedding or queue-bloating."
    );
    let recover_deadline = Instant::now() + Duration::from_secs(10);
    while engine.overload_level().as_u8() != 0 {
        assert!(Instant::now() < recover_deadline, "controller never recovered after the storm");
        std::thread::sleep(Duration::from_millis(2));
    }
    println!("  recovered: overload_level=0");
    print_exposition(&engine.metrics_text());
    server.shutdown();
    engine.shutdown();

    // Zero-downtime drain: the draining server answers work with GOAWAY
    // (retryable) while probes stay inline; the self-healing client rides
    // the seeded backoff schedule, reconnects, and replays the request the
    // moment the engine resumes.
    let engine = Arc::new(Engine::start(ServeConfig::from_env().workers(1)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind localhost");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect drain client");
    client.process(&clouds[0], &cfg).expect("pre-drain frame");
    engine.drain();
    match client.process(&clouds[0], &cfg) {
        Err(ClientError::Server { code, .. })
            if code == fractalcloud::serve::protocol::status::GOAWAY => {}
        other => panic!("a draining server must answer GOAWAY, got {other:?}"),
    }
    assert!(client.health().expect("health while draining").draining);
    let resumer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            engine.resume();
        })
    };
    let mut policy = RetryPolicy::new(8, 0x10AD).base_delay(Duration::from_millis(25));
    client
        .process_retry(&clouds[0], &cfg, Priority::Normal, 0, &mut policy)
        .expect("the retry loop must outlast the drain window");
    resumer.join().expect("resume thread");
    engine.record_retries(client.retries());
    let m = engine.metrics();
    assert!(client.retries() >= 1, "healing through a drain takes at least one retry");
    assert!(m.goaway_sent >= 1, "GOAWAY must be counted: {m:?}");
    println!(
        "  drain round-trip: goaway observed, reconnected ok after {} retries (goaway_sent={})",
        client.retries(),
        m.goaway_sent
    );
    print_exposition(&engine.metrics_text());
    server.shutdown();
    engine.shutdown();
}
