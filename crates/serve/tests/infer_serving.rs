//! End-to-end inference serving: an `INFER` request over TCP must produce
//! logits bit-identical to [`Engine::submit_infer`] in-process, cold or
//! cache-hit, under either aggregation schedule; bad requests are rejected
//! without killing the connection, and a malformed model is refused before
//! any worker sees it.

use fractalcloud_core::PipelineConfig;
use fractalcloud_pointcloud::generate::{scene_cloud, uniform_cube, SceneConfig};
use fractalcloud_serve::protocol::{status, WireInferRequest, AGG_DELAYED, AGG_EAGER};
use fractalcloud_serve::{
    Aggregation, ClientError, Engine, InferRequest, ModelConfig, ServeClient, ServeConfig,
    ServeError, TcpServer,
};
use std::sync::Arc;

fn zoo_model() -> ModelConfig {
    ModelConfig::table1().remove(0)
}

fn wire_request(aggregation: u8) -> WireInferRequest {
    WireInferRequest {
        threshold: PipelineConfig::default().threshold as u32,
        seed: 42,
        aggregation,
        notation: zoo_model().notation,
    }
}

fn serve() -> (TcpServer, Arc<Engine>) {
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(2)));
    let server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
    (server, engine)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The wire path adds nothing and loses nothing: for both schedules, the
/// TCP reply's logits are bit-identical to the in-process response for the
/// same cloud/model/seed, and the counters and row indices match exactly.
#[test]
fn tcp_infer_is_bit_identical_to_in_process() {
    let (mut server, engine) = serve();
    let cloud = uniform_cube(2048, 17);

    for (byte, agg) in [(AGG_EAGER, Aggregation::Eager), (AGG_DELAYED, Aggregation::Delayed)] {
        let direct = engine
            .process_infer(
                Arc::new(cloud.clone()),
                InferRequest { aggregation: Some(agg), ..InferRequest::new(zoo_model()) },
            )
            .expect("in-process infer");

        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        let wire = client.infer(&cloud, &wire_request(byte)).expect("tcp infer");

        assert_eq!(wire.aggregation, byte);
        assert_eq!(wire.classes as usize, direct.output.classes);
        assert_eq!(bits(&wire.logits), bits(&direct.output.logits));
        let rows: Vec<u32> = direct.output.row_index.iter().map(|&i| i as u32).collect();
        assert_eq!(wire.row_index, rows);
        assert_eq!(wire.macs_moved, direct.output.counters.macs_moved);
        assert_eq!(wire.macs_saved, direct.output.counters.macs_saved);
        assert_eq!(wire.gather_bytes, direct.output.counters.gather_bytes);
    }
    server.shutdown();
    engine.shutdown();
}

/// A repeated frame serves from the partition LRU (`cache_hit` flips to
/// true) with logits bit-identical to the cold pass.
#[test]
fn tcp_infer_cold_then_cache_hit_identical_logits() {
    let (mut server, engine) = serve();
    let cloud = scene_cloud(&SceneConfig::default(), 2048, 23);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let cold = client.infer(&cloud, &wire_request(AGG_DELAYED)).expect("cold infer");
    let warm = client.infer(&cloud, &wire_request(AGG_DELAYED)).expect("warm infer");
    assert!(!cold.cache_hit);
    assert!(warm.cache_hit);
    assert_eq!(bits(&cold.logits), bits(&warm.logits));
    assert_eq!(cold.row_index, warm.row_index);

    server.shutdown();
    engine.shutdown();
}

/// An unknown model notation is a caller bug ([`status::INVALID`]), not a
/// framing error: the same connection keeps serving afterwards.
#[test]
fn unknown_notation_rejected_connection_survives() {
    let (mut server, engine) = serve();
    let cloud = uniform_cube(512, 3);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let mut bogus = wire_request(AGG_DELAYED);
    bogus.notation = "NoSuchNet (z)".into();
    match client.infer(&cloud, &bogus) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, status::INVALID),
        other => panic!("expected INVALID, got {other:?}"),
    }
    // Counted as the engine counts a model it cannot serve.
    let m = engine.metrics();
    assert_eq!((m.submitted, m.rejected_invalid), (1, 1), "the rejection must be counted");

    let ok = client.infer(&cloud, &wire_request(AGG_DELAYED)).expect("connection reusable");
    assert!(!ok.logits.is_empty());

    server.shutdown();
    engine.shutdown();
}

/// The `AGG_SERVER_DEFAULT` byte defers to the server's default schedule,
/// delayed, and the reply names the schedule that actually ran.
#[test]
fn server_default_byte_resolves_to_a_concrete_schedule() {
    let (mut server, engine) = serve();
    let cloud = uniform_cube(512, 7);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let resp = client.infer(&cloud, &wire_request(0)).expect("infer");
    assert_eq!(resp.aggregation, AGG_DELAYED);

    server.shutdown();
    engine.shutdown();
}

/// One NaN coordinate is a defined result, not a dead worker: in-process
/// and over TCP the reply carries in-range rows (the NaN reaches the
/// logits, bit-identically on both paths) and no worker panics.
#[test]
fn one_nan_coordinate_is_a_reply_not_a_worker_panic() {
    let (mut server, engine) = serve();
    let mut points: Vec<_> = uniform_cube(1024, 29).iter().collect();
    points[500].x = f32::NAN;
    let cloud = fractalcloud_pointcloud::PointCloud::from_points(points);

    let direct = engine
        .process_infer(
            Arc::new(cloud.clone()),
            InferRequest {
                aggregation: Some(Aggregation::Delayed),
                ..InferRequest::new(zoo_model())
            },
        )
        .expect("in-process infer");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let wire = client.infer(&cloud, &wire_request(AGG_DELAYED)).expect("tcp infer");

    assert!(direct.output.row_index.iter().all(|&i| i < cloud.len()));
    assert_eq!(direct.output.logits.len(), direct.output.row_index.len() * direct.output.classes);
    assert_eq!(bits(&wire.logits), bits(&direct.output.logits));
    assert_eq!(engine.metrics().worker_panics, 0);

    server.shutdown();
    engine.shutdown();
}

/// Submits `model` in-process and asserts a counted [`ServeError::Invalid`]
/// refusal on the caller's thread: nothing is queued, no worker panics.
fn assert_refused_in_process(model: ModelConfig) {
    let engine = Engine::start(ServeConfig::default().workers(2));
    let out = engine.process_infer(Arc::new(uniform_cube(1024, 31)), InferRequest::new(model));
    assert!(matches!(out, Err(ServeError::Invalid(_))), "got {out:?}");
    let m = engine.metrics();
    assert_eq!((m.submitted, m.rejected_invalid), (1, 1), "the refusal must be counted");
    assert_eq!((m.worker_panics, m.failed_internal), (0, 0));
    engine.shutdown();
}

/// A propagating model with one more feature-propagation stage than it has
/// abstraction levels to skip-connect to is refused at submission.
#[test]
fn more_propagation_than_abstraction_stages_is_refused() {
    let mut model = ModelConfig::pointnetpp_segmentation();
    model.propagation.push(model.propagation[0].clone());
    assert_refused_in_process(model);
}

/// A stage that groups zero neighbors is refused at submission, not
/// discovered by a worker mid-inference.
#[test]
fn zero_neighbors_in_a_deeper_stage_is_refused() {
    let mut model = ModelConfig::pointnetpp_segmentation();
    model.stages[1].nsample = 0;
    assert_refused_in_process(model);
}
