//! Chaos-soak and fault-injection integration tests: under a seeded storm
//! of injected panics, errors and delays, every submitted request resolves
//! exactly once (no hung waiters, no double resolutions), the engine keeps
//! serving, and fault-free configurations are bit-identical to a clean
//! engine.

use fractalcloud_core::{
    block_ball_query, block_fps, BppoConfig, Fractal, Pipeline, PipelineConfig,
};
use fractalcloud_pointcloud::generate::{scene_cloud, uniform_cube, SceneConfig};
use fractalcloud_pointcloud::kernels::{self, Backend};
use fractalcloud_pointcloud::PointCloud;
use fractalcloud_serve::protocol::{self, status, WireResponse, WireStreamOpen};
use fractalcloud_serve::{
    BrownoutConfig, ClientError, Engine, FaultKind, FaultPlan, FaultPoint, FrameResponse, Priority,
    ServeClient, ServeConfig, TcpServer,
};
use std::sync::Arc;
use std::time::Duration;

/// The direct library computation a served frame must match exactly.
fn direct(cloud: &PointCloud, cfg: &PipelineConfig) -> (Vec<usize>, Vec<usize>) {
    let built = Fractal::with_threshold(cfg.threshold).build(cloud).unwrap();
    let bppo = BppoConfig::default();
    let fps = block_fps(cloud, &built.partition, cfg.sample_rate, &bppo).unwrap();
    let bq =
        block_ball_query(cloud, &built.partition, &fps.per_block, cfg.radius, cfg.neighbors, &bppo)
            .unwrap();
    (fps.indices, bq.indices)
}

fn shape(r: &FrameResponse) -> (Vec<usize>, Vec<usize>) {
    (r.sampled_indices.clone(), r.neighbor_indices.clone())
}

/// The soak invariant: under a mixed seeded fault storm (worker panics,
/// block errors, block delays, dropped cache inserts) every submission
/// resolves exactly once, the engine survives ≥ 10 worker panics without a
/// restart, and it still answers a clean frame correctly afterwards.
#[test]
fn chaos_soak_every_request_resolves_exactly_once() {
    let plan = FaultPlan::OFF
        .with_fault(FaultKind::Panic, FaultPoint::Worker, 0.15)
        .with_fault(FaultKind::Err, FaultPoint::Block, 0.05)
        .with_fault(FaultKind::Delay, FaultPoint::Block, 0.05)
        .with_delay(FaultPoint::Block, Duration::from_micros(200))
        .with_fault(FaultKind::Err, FaultPoint::CacheInsert, 0.2)
        .with_seed(0xC7A05);
    let engine = Arc::new(Engine::start(
        ServeConfig::default().workers(2).queue_capacity(64).max_batch(4).faults(plan),
    ));

    // A small pool of distinct frames so the storm mixes cache hits and
    // misses (dropped inserts make even repeats miss sometimes).
    let frames: Vec<PointCloud> = (0..4)
        .map(|seed| scene_cloud(&SceneConfig::default(), 400 + 100 * seed as usize, seed))
        .collect();
    let cfg = PipelineConfig::default();

    let (mut ok, mut internal, mut shed, mut hung) = (0u64, 0u64, 0u64, 0u64);
    let mut submitted = 0u64;
    for wave in 0..400 {
        let tickets: Vec<_> = (0..16)
            .map(|i| engine.submit(frames[(wave + i) % frames.len()].clone(), cfg).unwrap())
            .collect();
        submitted += tickets.len() as u64;
        for t in tickets {
            // A ticket that outlives this generous timeout is a hung waiter
            // — exactly what the drop-guard layer exists to prevent.
            match t.wait_timeout(Duration::from_secs(30)) {
                None => hung += 1,
                Some(Ok(_)) => ok += 1,
                Some(Err(fractalcloud_serve::ServeError::Internal)) => internal += 1,
                Some(Err(fractalcloud_serve::ServeError::Shed(_))) => shed += 1,
                Some(Err(e)) => panic!("unexpected outcome under chaos: {e}"),
            }
        }
        if engine.metrics().worker_panics >= 10 {
            break;
        }
    }

    assert_eq!(hung, 0, "chaos must never hang a waiter");
    assert_eq!(ok + internal + shed, submitted, "every submission resolves exactly once");
    // Metric increments trail ticket resolution by a hair (drop guards
    // resolve during the unwind; supervision counts the panic after), so
    // poll briefly until the books close before asserting on them.
    let settle_deadline = std::time::Instant::now() + Duration::from_secs(10);
    let m = loop {
        let m = engine.metrics();
        let settled = m.submitted == m.completed + m.failed_internal
            && m.worker_panics == m.workers_respawned
            && m.completed == ok;
        if settled || std::time::Instant::now() > settle_deadline {
            break m;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        m.worker_panics >= 10,
        "the storm should have produced >= 10 worker panics, got {}",
        m.worker_panics
    );
    assert_eq!(
        m.workers_respawned, m.worker_panics,
        "every panicked worker is replaced by supervision"
    );
    assert!(m.faults_injected > 0, "the fault layer must report its injections");
    assert_eq!(shed, 0, "no deadline was configured, nothing should shed");
    // Server-side accounting closes: everything admitted either completed
    // or failed internally (no deadlines or displacement in this config).
    assert_eq!(m.submitted, m.completed + m.failed_internal, "server-side accounting leak");
    assert_eq!(m.completed, ok, "client and server disagree on completions");
    assert_eq!(m.failed_internal, internal, "client and server disagree on failures");

    // The engine is still healthy and still correct after the storm.
    let h = engine.health();
    assert!(h.live, "engine must stay live through the storm: {h:?}");
    assert_eq!(h.worker_panics, m.worker_panics);
    let clean = uniform_cube(600, 99);
    for _attempt in 0..50 {
        // Faults are still armed, so retry through injected failures; a
        // success must be bit-identical to the direct computation.
        if let Ok(r) = engine.process(clean.clone(), cfg) {
            assert_eq!(shape(&r), direct(&clean, &cfg), "post-storm response diverged");
            engine.shutdown();
            return;
        }
    }
    panic!("engine never served a clean frame after the storm");
}

/// `HEALTH` requests are answered inline over TCP — the probe works and
/// reflects worker liveness without touching the request queue.
#[test]
fn health_is_served_over_tcp() {
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(2)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let h = client.health().unwrap();
    assert!(h.live);
    assert_eq!(h.workers_alive, 2);
    assert_eq!(h.workers_configured, 2);
    assert_eq!(h.queued_by_class, [0, 0, 0]);
    assert_eq!(h.worker_panics, 0);
    assert_eq!(h.workers_respawned, 0);
    // The in-process snapshot is taken later than the wire one, so the two
    // clock fields may have ticked: assert they only move forward, then
    // copy them over so the equality stays exhaustive on every other field.
    let mut local = engine.health();
    assert!(local.uptime_ms >= h.uptime_ms, "uptime went backwards");
    assert!(local.last_progress_age_ms >= h.last_progress_age_ms, "progress age went backwards");
    local.uptime_ms = h.uptime_ms;
    local.last_progress_age_ms = h.last_progress_age_ms;
    assert_eq!(h, local, "wire health equals the in-process snapshot");

    // Still answered while draining begins (the probe never queues).
    server.shutdown();
    engine.shutdown();
    assert!(!engine.health().live, "a stopped engine is not live");
}

/// An injected engine-side failure surfaces as `INTERNAL_ERROR` on the
/// wire, and the client contract marks it non-retryable (not shed).
#[test]
fn injected_internal_errors_are_non_retryable_on_the_wire() {
    let plan = FaultPlan::OFF.with_fault(FaultKind::Err, FaultPoint::Block, 1.0).with_seed(7);
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(1).faults(plan)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let err = client
        .process(&uniform_cube(300, 1), &PipelineConfig::default())
        .expect_err("every block task fails, the request cannot succeed");
    match &err {
        fractalcloud_serve::ClientError::Server { code, .. } => {
            assert_eq!(*code, status::INTERNAL_ERROR);
        }
        other => panic!("expected a server status, got {other:?}"),
    }
    assert!(!err.is_shed(), "INTERNAL_ERROR is non-retryable by contract");

    server.shutdown();
    engine.shutdown();
}

/// A request whose deadline expires while it waits in the queue is shed
/// with the retryable `DEADLINE_EXCEEDED` status on the wire.
#[test]
fn deadline_expired_in_queue_is_shed_retryable_on_the_wire() {
    let engine = Arc::new(Engine::start(
        ServeConfig::default().workers(1).max_batch(1).thread_budget(1).queue_capacity(8),
    ));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    // Plug the single worker with a fat frame so the deadlined request
    // genuinely waits in the queue past its budget.
    let plug = engine.submit(uniform_cube(32_768, 5), PipelineConfig::default()).unwrap();
    for _ in 0..2000 {
        let m = engine.metrics();
        if m.queue_depth == 0 && m.batches >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let err = client
        .process_with_options(
            &uniform_cube(200, 6),
            &PipelineConfig::default(),
            Priority::Normal,
            1,
        )
        .expect_err("a 1ms deadline behind a fat plug frame must expire in queue");
    match &err {
        fractalcloud_serve::ClientError::Server { code, .. } => {
            assert_eq!(*code, status::DEADLINE_EXCEEDED);
        }
        other => panic!("expected a server status, got {other:?}"),
    }
    assert!(err.is_shed(), "DEADLINE_EXCEEDED is retryable by contract");
    plug.wait().unwrap();
    assert_eq!(engine.metrics().shed_deadline, 1);

    // Retrying without a deadline (the contract's advice) succeeds.
    let retry = client.process(&uniform_cube(200, 6), &PipelineConfig::default()).unwrap();
    assert!(!retry.sampled_indices.is_empty());

    server.shutdown();
    engine.shutdown();
}

/// After surviving injected worker panics, successful responses remain
/// bit-identical to direct library calls — supervision replaces workers
/// without corrupting pooled scratch state.
#[test]
fn post_panic_responses_are_bit_identical_to_direct_calls() {
    let plan = FaultPlan::OFF.with_fault(FaultKind::Panic, FaultPoint::Worker, 0.4).with_seed(11);
    let engine = Engine::start(ServeConfig::default().workers(1).queue_capacity(16).faults(plan));
    let cloud = scene_cloud(&SceneConfig::default(), 1200, 3);
    let cfg = PipelineConfig::default();
    let want = direct(&cloud, &cfg);

    let mut successes_after_panic = 0;
    for _ in 0..200 {
        if let Ok(r) = engine.process(cloud.clone(), cfg) {
            if engine.metrics().worker_panics >= 1 {
                assert_eq!(shape(&r), want, "post-panic response diverged from direct calls");
                successes_after_panic += 1;
                if successes_after_panic >= 3 {
                    break;
                }
            }
        }
    }
    assert!(successes_after_panic >= 3, "storm never let a post-panic success through");
    assert!(engine.metrics().worker_panics >= 1);
    engine.shutdown();
}

/// Streams under a seeded storm at every point a stream draws — `worker`
/// and `block` on its one engine job, `net_write` on every chunk the
/// connection writes, `credit_stall` on every credit wait: each stream
/// either accumulates to the byte-identical direct response or ends in an
/// error, never hangs, and the engine is clean afterwards.
#[test]
fn stream_chaos_every_stream_completes_exactly_or_errors() {
    let plan = FaultPlan::parse(
        "err@net_write:0.05,err@credit_stall:0.05,err@worker:0.05,delay@block:1ms:0.1;seed=1907",
    )
    .unwrap();
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(2).faults(plan)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let cfg = PipelineConfig::default();
    let frames: Vec<PointCloud> = (0..4)
        .map(|seed| scene_cloud(&SceneConfig::default(), 1500 + 300 * seed as usize, seed))
        .collect();
    let narrow = |v: &[usize]| v.iter().map(|&i| i as u32).collect::<Vec<u32>>();
    let want: Vec<WireResponse> = frames
        .iter()
        .map(|cloud| {
            let out = Pipeline::new(cfg).unwrap().run(cloud, false).unwrap();
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
        })
        .collect();

    // One credit at a time, so every refinement is preceded by a wait.
    let open = WireStreamOpen { first_paint: 64, chunk: 64, credits: 1 };
    let (mut exact, mut errored) = (0, 0);
    for i in 0..40 {
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        // A hang surfaces as a read timeout, which is the one outcome that
        // fails the test.
        client.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        match client.stream_frame(&frames[i % frames.len()], &cfg, Priority::Normal, 0, &open) {
            Ok((mut resp, end)) => {
                assert!(!end.cancelled);
                assert_eq!(end.delivered as usize, resp.sampled_indices.len());
                resp.cache_hit = false; // the one field a cold/warm stream may differ in
                assert_eq!(
                    protocol::encode_response_payload(&resp),
                    protocol::encode_response_payload(&want[i % frames.len()]),
                    "stream {i} survived the storm but diverged from the direct response"
                );
                exact += 1;
            }
            Err(ClientError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                panic!("stream {i} hung under chaos: {e}")
            }
            Err(_) => errored += 1,
        }
    }
    assert!(exact > 0 && errored > 0, "the storm should split the streams: {exact} / {errored}");
    let stalls = engine
        .metrics_text()
        .lines()
        .find_map(|l| {
            l.strip_prefix("fractalcloud_faults_injected_at_total{point=\"credit_stall\"} ")
        })
        .map(|v| v.parse::<f64>().unwrap());
    assert!(stalls > Some(0.0), "no credit wait drew its fault point: {stalls:?}");

    // Every stream closed its books (the last handler may still be leaving).
    let settle = std::time::Instant::now() + Duration::from_secs(10);
    while engine.health().streams_open > 0 {
        assert!(std::time::Instant::now() < settle, "a stream never closed: {:?}", engine.health());
        std::thread::sleep(Duration::from_millis(5));
    }
    // Faults are still armed, so retry through them: a plain frame succeeds.
    let served = (0..50).any(|_| {
        ServeClient::connect(server.local_addr())
            .is_ok_and(|mut client| client.process(&frames[0], &cfg).is_ok())
    });
    assert!(served, "engine never served a plain frame after the stream storm");
    server.shutdown();
    engine.shutdown();
}

/// Delay-only fault plans perturb timing, never results: a delay-faulted
/// engine answers bit-identically to a clean one (and to direct calls on
/// every backend).
#[test]
fn delay_only_faults_never_change_results() {
    let plan = FaultPlan::OFF
        .with_fault(FaultKind::Delay, FaultPoint::Worker, 0.5)
        .with_delay(FaultPoint::Worker, Duration::from_micros(300))
        .with_fault(FaultKind::Delay, FaultPoint::Block, 0.3)
        .with_delay(FaultPoint::Block, Duration::from_micros(100))
        .with_seed(23);
    // The clean engine pins `OFF` explicitly so this suite can also run
    // under a CI-wide `FRACTALCLOUD_FAULTS` delay sweep.
    let clean = Engine::start(ServeConfig::default().workers(1).faults(FaultPlan::OFF));
    let faulted = Engine::start(ServeConfig::default().workers(1).faults(plan));
    let cfg = PipelineConfig::default();

    for seed in 0..6 {
        let cloud = scene_cloud(&SceneConfig::default(), 900, seed);
        let want = direct(&cloud, &cfg);
        for backend in Backend::ALL {
            let via = kernels::with_backend(backend, || direct(&cloud, &cfg));
            assert_eq!(via, want, "backend {backend:?} diverged on direct calls");
        }
        let a = clean.process(cloud.clone(), cfg).unwrap();
        let b = faulted.process(cloud, cfg).unwrap();
        assert_eq!(shape(&a), want);
        assert_eq!(shape(&b), want, "a delay fault changed results");
    }
    assert!(faulted.metrics().faults_injected > 0, "the delay plan should have fired");
    assert_eq!(clean.metrics().faults_injected, 0);
    clean.shutdown();
    faulted.shutdown();
}

/// A seeded-but-all-zero plan builds no fault layer at all: injection is
/// genuinely off, metrics report zero, and responses are identical to the
/// default configuration.
#[test]
fn off_plan_is_zero_cost_and_identical_to_default() {
    assert!(FaultPlan::OFF.with_seed(99).is_off(), "a seed alone enables nothing");
    let explicit =
        Engine::start(ServeConfig::default().workers(1).faults(FaultPlan::OFF.with_seed(99)));
    let default = Engine::start(ServeConfig::default().workers(1));
    let cfg = PipelineConfig::default();
    let cloud = scene_cloud(&SceneConfig::default(), 1000, 8);
    let a = explicit.process(cloud.clone(), cfg).unwrap();
    let b = default.process(cloud.clone(), cfg).unwrap();
    assert_eq!(shape(&a), shape(&b));
    assert_eq!(shape(&a), direct(&cloud, &cfg));
    assert_eq!(explicit.metrics().faults_injected, 0);
    assert_eq!(explicit.metrics().worker_panics, 0);
    explicit.shutdown();
    default.shutdown();
}

/// Brown-out under a chaos storm: with the engine pinned one level into
/// brown-out AND a seeded fault plan (worker panics, block errors, dropped
/// cache inserts) raging, every submission still resolves exactly once,
/// every degraded success is the *bit-identical* budget-`k` prefix of the
/// full run (the same prefix on every kernel backend), and High priority
/// never degrades.
#[test]
fn brownout_chaos_storm_degrades_without_corruption() {
    let plan = FaultPlan::OFF
        .with_fault(FaultKind::Panic, FaultPoint::Worker, 0.1)
        .with_fault(FaultKind::Err, FaultPoint::Block, 0.05)
        .with_fault(FaultKind::Err, FaultPoint::CacheInsert, 0.2)
        .with_seed(0xB0_0F);
    let brownout = BrownoutConfig { forced: Some(1), ..BrownoutConfig::default() };
    let engine = Arc::new(Engine::start(
        ServeConfig::default()
            .workers(2)
            .queue_capacity(64)
            .max_batch(4)
            .faults(plan)
            .brownout(brownout),
    ));
    let cfg = PipelineConfig::default();
    let frames: Vec<PointCloud> = (0..3)
        .map(|seed| scene_cloud(&SceneConfig::default(), 500 + 150 * seed as usize, seed))
        .collect();

    // Per frame: the served budget at level 1 is `full >> 1`, and the
    // expected degraded answer is the run_budget prefix — verified
    // backend-invariant up front so a storm failure can't be blamed on
    // kernel divergence.
    let pipe = Pipeline::new(cfg).unwrap();
    struct Want {
        k: usize,
        prefix: (Vec<usize>, Vec<usize>),
        full: (Vec<usize>, Vec<usize>),
    }
    let expected: Vec<Want> = frames
        .iter()
        .map(|f| {
            let full_run = pipe.run(f, false).unwrap();
            let full = (full_run.sampled.indices, full_run.grouped.indices);
            let k = (full.0.len() >> 1).max(1);
            let budget_run = pipe.run_budget(f, k, false).unwrap();
            let prefix = (budget_run.sampled.indices, budget_run.grouped.indices);
            for backend in Backend::ALL {
                let via = kernels::with_backend(backend, || {
                    let o = pipe.run_budget(f, k, false).unwrap();
                    (o.sampled.indices, o.grouped.indices)
                });
                assert_eq!(via, prefix, "backend {backend:?} diverged on the budget prefix");
            }
            Want { k, prefix, full }
        })
        .collect();

    let (mut ok_normal, mut ok_high, mut internal, mut shed, mut hung) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut submitted = 0u64;
    for wave in 0..120 {
        let tickets: Vec<_> = (0..12)
            .map(|i| {
                let idx = (wave + i) % frames.len();
                let priority = if i % 3 == 0 { Priority::High } else { Priority::Normal };
                let t = engine.submit_with_priority(frames[idx].clone(), cfg, priority).unwrap();
                (idx, priority, t)
            })
            .collect();
        submitted += tickets.len() as u64;
        for (idx, priority, t) in tickets {
            match t.wait_timeout(Duration::from_secs(30)) {
                None => hung += 1,
                Some(Ok(r)) => {
                    let want = &expected[idx];
                    if priority == Priority::High {
                        assert!(!r.degraded, "High priority degraded under brown-out");
                        assert_eq!(r.budget_served, 0);
                        assert_eq!(shape(&r), want.full, "High response diverged mid-storm");
                        ok_high += 1;
                    } else {
                        assert!(r.degraded, "forced level 1 must mark Normal responses");
                        assert_eq!(r.budget_served, want.k);
                        assert_eq!(
                            shape(&r),
                            want.prefix,
                            "degraded response is not the budget-{} prefix",
                            want.k
                        );
                        ok_normal += 1;
                    }
                }
                Some(Err(fractalcloud_serve::ServeError::Internal)) => internal += 1,
                Some(Err(fractalcloud_serve::ServeError::Shed(_))) => shed += 1,
                Some(Err(e)) => panic!("unexpected outcome under chaos: {e}"),
            }
        }
        if engine.metrics().worker_panics >= 5 {
            break;
        }
    }

    assert_eq!(hung, 0, "brown-out chaos must never hang a waiter");
    assert_eq!(
        ok_normal + ok_high + internal + shed,
        submitted,
        "every submission resolves exactly once"
    );
    assert_eq!(shed, 0, "level 1 degrades instead of shedding, and no deadline is set");
    assert!(ok_normal > 0 && ok_high > 0, "the storm should complete work in both classes");

    let m = engine.metrics();
    // The degraded counter ticks at execution start, so it can lead the
    // success count when a worker panics after counting — `>=`, not `==`.
    assert!(
        m.requests_degraded[Priority::Normal.index()][0] >= ok_normal,
        "degraded executions underflow the books: {m:?}"
    );
    assert_eq!(
        m.requests_degraded[Priority::High.index()],
        [0, 0, 0],
        "High must never appear in the degraded books"
    );
    assert!(m.degraded_total() >= ok_normal);
    assert!(engine.health().live, "engine must stay live through the brown-out storm");
    engine.shutdown();
}
