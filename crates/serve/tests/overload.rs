//! Graceful degradation under overload: brown-out serves reduced-budget
//! (bit-identical prefix) responses instead of shedding, High priority is
//! never degraded, zero-downtime drain answers GOAWAY while in-flight work
//! finishes, and the self-healing client reconnects through all of it.

use fractalcloud_core::{Pipeline, PipelineConfig};
use fractalcloud_pointcloud::generate::{scene_cloud, uniform_cube, SceneConfig};
use fractalcloud_serve::protocol::status;
use fractalcloud_serve::{
    BrownoutConfig, Engine, OverloadLevel, Priority, RetryPolicy, ServeClient, ServeConfig,
    ServeError, ShedReason, TcpServer,
};
use std::sync::Arc;
use std::time::Duration;

fn forced(level: u8) -> BrownoutConfig {
    BrownoutConfig { forced: Some(level), ..BrownoutConfig::default() }
}

/// The tentpole contract: a browned-out response is the exact
/// budget-`(full >> level)` prefix of the full run — same bytes the client
/// would get from an explicit budget request — and carries the degraded
/// marker with the served budget. High priority is exempt.
#[test]
fn brownout_serves_bit_identical_budget_prefixes() {
    let engine = Engine::start(ServeConfig::default().workers(1).brownout(forced(2)));
    let cloud = scene_cloud(&SceneConfig::default(), 1500, 21);
    let cfg = PipelineConfig::default();

    let pipe = Pipeline::new(cfg).unwrap();
    let full = pipe.run(&cloud, false).unwrap();
    let served = (full.sampled.indices.len() >> 2).max(1);
    let want = pipe.run_budget(&cloud, served, false).unwrap();

    let resp = engine.process_shared(Arc::new(cloud.clone()), cfg).unwrap();
    assert!(resp.degraded, "a forced brown-out must mark the response degraded");
    assert_eq!(resp.budget_served, served);
    assert_eq!(resp.sampled_indices, want.sampled.indices, "degraded response is not the prefix");
    assert_eq!(resp.neighbor_indices, want.grouped.indices);

    // High priority rides through untouched, at full depth.
    let high = engine
        .submit_shared_with_options(Arc::new(cloud.clone()), cfg, Priority::High, None)
        .and_then(|t| t.wait())
        .unwrap();
    assert!(!high.degraded, "High priority must never be degraded");
    assert_eq!(high.budget_served, 0);
    assert_eq!(high.sampled_indices, full.sampled.indices);

    let m = engine.metrics();
    // Degraded executions count under [class][level-1]: one Normal at
    // level 2, and the High run counts nowhere.
    assert_eq!(m.requests_degraded[Priority::Normal.index()][1], 1);
    assert_eq!(m.requests_degraded[Priority::High.index()], [0, 0, 0]);
    assert_eq!(m.degraded_total(), 1);
    assert_eq!(engine.overload_level(), OverloadLevel::BrownOut(2));
    engine.shutdown();
}

/// At the top of the ladder (`Shed`), non-High frame admissions shed
/// retryably before touching the queue; High still admits and runs at
/// full depth.
#[test]
fn shed_level_sheds_normal_but_never_high() {
    let engine = Engine::start(ServeConfig::default().workers(1).brownout(forced(4)));
    let cloud = uniform_cube(600, 3);
    let cfg = PipelineConfig::default();

    let err = engine
        .process_shared(Arc::new(cloud.clone()), cfg)
        .expect_err("Normal must shed at level 4");
    assert!(matches!(err, ServeError::Shed(ShedReason::QueueFull)), "shed reason: {err:?}");

    let high = engine
        .submit_shared_with_options(Arc::new(cloud.clone()), cfg, Priority::High, None)
        .and_then(|t| t.wait())
        .unwrap();
    assert!(!high.degraded);
    let pipe = Pipeline::new(cfg).unwrap();
    assert_eq!(high.sampled_indices, pipe.run(&cloud, false).unwrap().sampled.indices);

    assert_eq!(engine.overload_level(), OverloadLevel::Shed);
    assert_eq!(engine.metrics().shed_queue_full, 1);
    engine.shutdown();
}

/// The degraded marker crosses the wire as the optional trailer, and the
/// health payload carries the overload level.
#[test]
fn brownout_marker_and_level_cross_the_wire() {
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(1).brownout(forced(1))));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let cloud = scene_cloud(&SceneConfig::default(), 1200, 8);
    let cfg = PipelineConfig::default();

    let resp = client.process(&cloud, &cfg).unwrap();
    assert!(resp.degraded);
    let served = resp.budget_served;
    assert!(served > 0);
    // The wire bytes equal an explicit budget request for the same depth
    // (which itself degrades no further: an explicit budget is already a
    // prefix request, halved again only by the budget clamp — so compare
    // against the direct pipeline instead).
    let want = Pipeline::new(cfg).unwrap().run_budget(&cloud, served as usize, false).unwrap();
    let sampled: Vec<usize> = resp.sampled_indices.iter().map(|&i| i as usize).collect();
    assert_eq!(sampled, want.sampled.indices);

    let high = client.process_budget(&cloud, &cfg, Priority::High, 0, 0).unwrap();
    assert!(!high.degraded, "High priority must cross the wire undegraded");
    assert_eq!(high.budget_served, 0);

    let h = client.health().unwrap();
    assert_eq!(h.overload_level, 1);
    assert!(!h.draining);
    let local = engine.health();
    assert_eq!(
        (h.live, h.overload_level, h.draining),
        (local.live, local.overload_level, local.draining)
    );

    let text = client.metrics_text().unwrap();
    assert!(text.contains("fractalcloud_overload_level 1"), "missing gauge in: {text}");
    assert!(
        text.contains("fractalcloud_requests_degraded_total{class=\"normal\",level=\"1\"} 1"),
        "missing degraded counter in: {text}"
    );

    server.shutdown();
    engine.shutdown();
}

/// Zero-downtime drain: work is answered GOAWAY (retryable), probes stay
/// live, in-flight work finishes, and `resume` re-arms the engine.
#[test]
fn drain_answers_goaway_and_resume_rearms() {
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(1)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let cloud = uniform_cube(500, 7);
    let cfg = PipelineConfig::default();

    client.process(&cloud, &cfg).unwrap();

    // In-flight work admitted before the drain still completes.
    let inflight = engine
        .submit_shared_with_options(Arc::new(uniform_cube(20_000, 9)), cfg, Priority::Normal, None)
        .unwrap();
    engine.drain();
    assert!(engine.is_draining());
    inflight.wait().expect("work admitted before the drain must finish");

    // New in-process submits shed retryably; new wire work gets GOAWAY.
    let err = engine
        .submit_shared_with_options(Arc::new(cloud.clone()), cfg, Priority::Normal, None)
        .expect_err("draining engine must not admit");
    assert!(matches!(err, ServeError::Shed(ShedReason::ShuttingDown)));
    let err = client.process(&cloud, &cfg).expect_err("draining server must answer GOAWAY");
    match &err {
        fractalcloud_serve::ClientError::Server { code, .. } => {
            assert_eq!(*code, status::GOAWAY);
        }
        other => panic!("expected a server status, got {other:?}"),
    }
    assert!(err.is_shed(), "GOAWAY is retryable by contract");

    // Probes stay answered inline on the very same connection.
    let h = client.health().unwrap();
    assert!(h.draining, "health must report the drain");
    assert!(!h.live, "a draining engine is not routable");
    let m = engine.metrics();
    assert!(m.goaway_sent >= 1, "GOAWAY must be counted: {m:?}");

    // The connection told to go away counts as drained once it closes.
    drop(client);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while engine.metrics().connections_drained < 1 {
        assert!(std::time::Instant::now() < deadline, "drained connection never counted");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Resume re-arms: health is live again and work flows.
    engine.resume();
    assert!(!engine.is_draining());
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let h = client.health().unwrap();
    assert!(h.live && !h.draining);
    client.process(&cloud, &cfg).unwrap();
    engine
        .submit_shared_with_options(Arc::new(cloud.clone()), cfg, Priority::Normal, None)
        .unwrap()
        .wait()
        .unwrap();

    server.shutdown();
    engine.shutdown();
}

/// The self-healing client rides out a live drain-and-resume: GOAWAY is
/// retried on the backoff schedule (reconnecting each time) until the
/// engine re-arms, and the retry count lands in the exposition.
#[test]
fn client_retry_heals_through_a_live_drain() {
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(1)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let cloud = uniform_cube(500, 4);
    let cfg = PipelineConfig::default();

    engine.drain();
    let resumer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            engine.resume();
        })
    };

    // Deterministic schedule, patient budget: the drain window (~150 ms)
    // sits well inside a few backoff steps.
    let mut policy = RetryPolicy::new(10, 0xD5A1).base_delay(Duration::from_millis(40));
    let resp = client
        .process_retry(&cloud, &cfg, Priority::Normal, 0, &mut policy)
        .expect("the retry loop must outlast the drain window");
    assert!(!resp.degraded);
    assert!(client.retries() >= 1, "healing through a drain takes at least one retry");
    resumer.join().unwrap();

    engine.record_retries(client.retries());
    let m = engine.metrics();
    assert_eq!(m.retries_total, client.retries());
    let text = engine.metrics_text();
    assert!(text.contains("fractalcloud_retries_total"), "missing counter in: {text}");

    server.shutdown();
    engine.shutdown();
}

/// Slow-peer defense: a connection idle past `idle_timeout_ms` is reaped
/// server-side, and the self-healing client heals the reap transparently
/// by reconnect-and-replay.
#[test]
fn idle_reaped_connection_heals_via_retry() {
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(1).idle_timeout_ms(100)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let cloud = uniform_cube(400, 5);
    let cfg = PipelineConfig::default();

    client.process(&cloud, &cfg).unwrap();
    // Sit idle past the server's timeout: the handler reaps the socket.
    std::thread::sleep(Duration::from_millis(400));

    let mut policy = RetryPolicy::new(5, 7).base_delay(Duration::from_millis(5));
    let resp = client
        .process_retry(&cloud, &cfg, Priority::Normal, 0, &mut policy)
        .expect("a reaped connection must heal by reconnect-and-replay");
    assert!(!resp.sampled_indices.is_empty());

    server.shutdown();
    engine.shutdown();
}

/// The adaptive controller escalates under genuine queue pressure and
/// walks back to Normal via idle decay once traffic stops — no operator
/// action required.
#[test]
fn adaptive_controller_escalates_and_recovers() {
    let tuned = BrownoutConfig {
        forced: None,
        // Any measurable queue wait counts as pressure; relaxing via
        // traffic is effectively disabled so only idle decay recovers.
        escalate_wait_us: 1,
        relax_wait_us: 0,
        escalate_after: 2,
        relax_after: 1_000_000,
        dwell_ms: 1,
    };
    let engine = Engine::start(
        ServeConfig::default().workers(1).max_batch(1).thread_budget(1).brownout(tuned),
    );
    let cfg = PipelineConfig::default();

    // Pile up work behind a single worker so jobs genuinely wait.
    let tickets: Vec<_> = (0..12)
        .map(|s| {
            engine
                .submit_shared_with_options(
                    Arc::new(uniform_cube(4096, s)),
                    cfg,
                    Priority::Normal,
                    None,
                )
                .unwrap()
        })
        .collect();
    for t in tickets {
        let _ = t.wait();
    }
    let peak = engine.overload_level();
    assert!(peak > OverloadLevel::Normal, "queue pressure must escalate the level, got {peak}");

    // Traffic stops entirely: polling the level drives idle decay back to
    // Normal, one dwell period per step.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while engine.overload_level() != OverloadLevel::Normal {
        assert!(
            std::time::Instant::now() < deadline,
            "controller never recovered, stuck at {}",
            engine.overload_level()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(engine.overload_level(), OverloadLevel::Normal);
    engine.shutdown();
}
