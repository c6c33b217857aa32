//! Observability is free and faithful: enabling the flight recorder never
//! changes a single response bit on any kernel backend, the `METRICS` and
//! `TRACE_DUMP` opcodes speak well-formed exposition / Chrome trace JSON,
//! and `HEALTH` reports the recorder's live status.

use fractalcloud_core::PipelineConfig;
use fractalcloud_obs as obs;
use fractalcloud_pointcloud::generate::{scene_cloud, uniform_cube, SceneConfig};
use fractalcloud_pointcloud::kernels::{self, Backend};
use fractalcloud_pointcloud::PointCloud;
use fractalcloud_serve::protocol::WireStreamOpen;
use fractalcloud_serve::{
    Aggregation, Engine, FrameResponse, InferRequest, ModelConfig, Priority, ServeClient,
    ServeConfig, TcpServer,
};
use proptest::{proptest, ProptestConfig};
use std::sync::{Arc, Mutex};

/// The recorder is process-global state; tests that flip it must not
/// interleave with tests that read it.
static RECORDER: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    RECORDER.lock().unwrap_or_else(|p| p.into_inner())
}

fn frame_bits(r: &FrameResponse) -> (Vec<usize>, Vec<usize>, Vec<usize>, usize, usize) {
    (r.sampled_indices.clone(), r.neighbor_indices.clone(), r.found.clone(), r.num, r.blocks)
}

fn logit_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn zoo_model() -> ModelConfig {
    ModelConfig::table1().remove(0)
}

/// One frame + one inference through a fresh engine, returning every bit
/// that defines the responses.
#[allow(clippy::type_complexity)]
fn serve_once(
    cloud: &PointCloud,
) -> ((Vec<usize>, Vec<usize>, Vec<usize>, usize, usize), Vec<u32>, Vec<usize>) {
    let engine = Engine::start(ServeConfig::default().workers(2).max_batch(4));
    let frame = engine.process(cloud.clone(), PipelineConfig::default()).expect("frame");
    let infer = engine
        .process_infer(
            Arc::new(cloud.clone()),
            InferRequest {
                aggregation: Some(Aggregation::Delayed),
                ..InferRequest::new(zoo_model())
            },
        )
        .expect("infer");
    engine.shutdown();
    (frame_bits(&frame), logit_bits(&infer.output.logits), infer.output.row_index.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Tracing is observation, not participation: with the recorder off and
    /// then on, frame indices and inference logits are bit-identical on
    /// every kernel backend.
    #[test]
    fn responses_bit_identical_tracing_on_vs_off(n in 300usize..900, seed in 0u64..1_000) {
        let _guard = lock();
        let cloud = uniform_cube(n, seed);
        for backend in Backend::ALL {
            obs::disable();
            let off = kernels::with_backend(backend, || serve_once(&cloud));
            obs::enable(4096);
            let on = kernels::with_backend(backend, || serve_once(&cloud));
            obs::disable();
            proptest::prop_assert_eq!(&off.0, &on.0);
            proptest::prop_assert_eq!(&off.1, &on.1);
            proptest::prop_assert_eq!(&off.2, &on.2);
        }
    }
}

/// `METRICS` over TCP renders a snapshot where every line parses as
/// `name{labels} value`, and reflects the traffic that preceded it.
#[test]
fn metrics_opcode_speaks_well_formed_exposition() {
    let _guard = lock();
    obs::disable();
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(2)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let cloud = scene_cloud(&SceneConfig::default(), 2048, 7);
    client.process(&cloud, &PipelineConfig::default()).expect("frame");

    let text = client.metrics_text().expect("METRICS reply");
    let mut names = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let parsed = obs::expo::parse_line(line)
            .unwrap_or_else(|| panic!("unparseable exposition line: {line:?}"));
        names.push(parsed.name);
    }
    assert!(names.len() >= 40, "expected a full snapshot, got {} lines", names.len());
    for required in [
        "fractalcloud_uptime_ms",
        "fractalcloud_requests_total",
        "fractalcloud_latency_p99_us",
        "fractalcloud_queue_wait_p99_us",
        "fractalcloud_trace_enabled",
    ] {
        assert!(names.iter().any(|n| n == required), "missing metric {required}");
    }
    // The frame above must be visible in the snapshot the wire returned.
    let completed = text
        .lines()
        .find(|l| l.starts_with("fractalcloud_requests_total{outcome=\"completed\"}"))
        .expect("completed counter");
    let value: f64 = completed.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(value >= 1.0, "completed counter not incremented: {completed}");

    server.shutdown();
    engine.shutdown();
}

/// `TRACE_DUMP` returns Chrome trace JSON and drains: spans recorded for a
/// request appear once, and a second dump no longer carries them.
#[test]
fn trace_dump_opcode_drains_chrome_json() {
    let _guard = lock();
    obs::enable(4096);
    let _ = obs::drain(); // discard spans left over from other tests
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(2)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let cloud = uniform_cube(1024, 11);
    client.process(&cloud, &PipelineConfig::default()).expect("frame");

    let first = client.trace_dump().expect("TRACE_DUMP reply");
    assert!(first.starts_with("{\"traceEvents\":["), "not chrome trace JSON: {first:.40}");
    assert!(first.contains("\"queue_wait\""), "queue-wait span missing from {first}");
    assert!(first.contains("\"wire_encode\""), "wire-encode span missing");

    let second = client.trace_dump().expect("second TRACE_DUMP");
    assert!(
        !second.contains("\"queue_wait\""),
        "dump did not drain; second dump still has spans: {second}"
    );

    obs::disable();
    server.shutdown();
    engine.shutdown();
}

/// A stream is one admission: its spans — the engine's for the first paint
/// and the connection thread's for every refinement it cuts itself — all
/// carry the first-paint job's request id, with one queue wait between them.
#[test]
fn stream_is_one_queue_wait_and_one_chunk_emit_per_chunk_under_one_request_id() {
    let _guard = lock();
    // 2048 like `health_reports_trace_status_and_uptime`, which asserts the
    // capacity the recorder was first created with.
    obs::enable(2048);
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(2)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let cloud = scene_cloud(&SceneConfig::default(), 4096, 19);
    let cfg = PipelineConfig::default();
    client.process(&cloud, &cfg).expect("warm-up frame");

    // Request ids are minted at admission, in order, and the recorder lock
    // keeps every other engine in this binary quiet: the stream's one job
    // takes the next id.
    let req = obs::next_request_id() + 1;
    let open = WireStreamOpen { first_paint: 128, chunk: 128, credits: 2 };
    let (resp, end) = client.stream_frame(&cloud, &cfg, Priority::Normal, 0, &open).unwrap();
    assert_eq!((end.chunks, resp.sampled_indices.len()), (8, 1024), "an 8-chunk warm stream");

    let spans = obs::spans_for(req);
    let count = |kind: obs::SpanKind| spans.iter().filter(|s| s.kind == kind).count();
    assert_eq!(count(obs::SpanKind::QueueWait), 1, "a stream queues once: {spans:?}");
    assert_eq!(count(obs::SpanKind::ChunkEmit), 8, "one slice per chunk: {spans:?}");
    assert_eq!(count(obs::SpanKind::WireEncode), 8);
    assert_eq!(count(obs::SpanKind::WireWrite), 8);
    // Nothing of the stream was recorded under a later id: it minted none.
    assert_eq!(obs::next_request_id(), req + 1, "the refinements admitted nothing");
    // Counted on two threads (the worker's first paint, the connection's
    // refinements), still one per chunk.
    let m = engine.metrics();
    assert_eq!(m.stream_chunks_sent, u64::from(end.chunks));
    assert_eq!((m.submitted, m.completed), (2, 2), "one job per stream, plus the warm-up");

    obs::disable();
    server.shutdown();
    engine.shutdown();
}

/// `HEALTH` carries the recorder's status and an uptime that moves.
#[test]
fn health_reports_trace_status_and_uptime() {
    let _guard = lock();
    obs::enable(2048);
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(1)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let cloud = uniform_cube(512, 5);
    client.process(&cloud, &PipelineConfig::default()).expect("frame");

    let health = client.health().expect("HEALTH reply");
    assert!(health.trace_enabled);
    assert_eq!(health.trace_capacity, 2048);
    assert!(health.live);

    std::thread::sleep(std::time::Duration::from_millis(2));
    let later = client.health().expect("second HEALTH reply");
    assert!(later.uptime_ms >= health.uptime_ms);
    assert!(later.uptime_ms > 0, "uptime should be nonzero after traffic + sleep");

    obs::disable();
    server.shutdown();
    engine.shutdown();
}

/// Satellite 1: INFER tickets land in the same queue-wait and per-class
/// latency histograms as frames — a bulk inference shows up under its
/// class, not just in the totals.
#[test]
fn infer_tickets_share_queue_wait_and_class_histograms() {
    let _guard = lock();
    obs::disable();
    let engine = Engine::start(ServeConfig::default().workers(1));
    let cloud = Arc::new(uniform_cube(1024, 13));

    let before = engine.metrics();
    let request = InferRequest {
        priority: fractalcloud_serve::Priority::Bulk,
        ..InferRequest::new(zoo_model())
    };
    engine.process_infer(Arc::clone(&cloud), request).expect("infer");
    let after = engine.metrics();

    let bulk = fractalcloud_serve::Priority::Bulk.index();
    assert_eq!(after.completed_by_class[bulk], before.completed_by_class[bulk] + 1);
    assert!(after.latency_p99_by_class_us[bulk] > 0, "bulk latency histogram untouched by INFER");
    assert!(
        after.queue_wait_p99_by_class_us[bulk] >= before.queue_wait_p99_by_class_us[bulk],
        "bulk queue-wait histogram untouched by INFER"
    );
    assert!(after.queue_wait_p99_us >= before.queue_wait_p99_us);

    engine.shutdown();
}
