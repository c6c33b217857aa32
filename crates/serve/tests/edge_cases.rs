//! Serving edge cases: zero-capacity queues, overload shedding, oversized
//! and malformed frames, client disconnects mid-request, and graceful
//! shutdown draining.

use fractalcloud_core::PipelineConfig;
use fractalcloud_pointcloud::generate::{scene_cloud, uniform_cube, SceneConfig};
use fractalcloud_serve::protocol::{
    self, status, OP_HEALTH, OP_INFER, OP_PROCESS_FRAME, OP_STREAM, OP_STREAM_CREDIT,
};
use fractalcloud_serve::{
    ClientError, Engine, Priority, ServeClient, ServeConfig, ServeError, ShedReason, TcpServer,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn frame(n: usize, seed: u64) -> fractalcloud_pointcloud::PointCloud {
    scene_cloud(&SceneConfig::default(), n, seed)
}

#[test]
fn zero_capacity_queue_sheds_everything() {
    let engine = Engine::start(ServeConfig::default().workers(1).queue_capacity(0));
    for seed in 0..4 {
        let r = engine.submit_shared_with_options(
            Arc::new(uniform_cube(256, seed)),
            PipelineConfig::default(),
            Priority::Normal,
            None,
        );
        assert_eq!(r.unwrap_err(), ServeError::Shed(ShedReason::QueueFull));
    }
    let m = engine.metrics();
    assert_eq!(m.shed_queue_full, 4);
    assert_eq!(m.admitted, 0);
    assert_eq!(m.completed, 0);
    engine.shutdown();
}

#[test]
fn oversized_frames_shed_in_process_and_over_tcp() {
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(1).max_points(512)));
    let big = uniform_cube(1000, 1);

    let r = engine.process_shared(Arc::new(big.clone()), PipelineConfig::default());
    assert_eq!(
        r.unwrap_err(),
        ServeError::Shed(ShedReason::Oversized { points: 1000, max_points: 512 })
    );

    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    // The TCP layer rejects on byte size before the engine even sees it.
    let err = client.process(&big, &PipelineConfig::default()).unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, status::OVERSIZED),
        other => panic!("expected server oversize rejection, got {other:?}"),
    }
    assert!(err.is_shed());
    // Both the in-process and the TCP-level rejection are counted.
    assert_eq!(engine.metrics().shed_oversized, 2);
    server.shutdown();
    engine.shutdown();
}

#[test]
fn malformed_frames_reject_but_do_not_kill_the_server() {
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(1)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();

    // Bad magic: the server answers MALFORMED and closes that connection.
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"NOPE\x01\x00\x00\x00\x00").unwrap();
        raw.flush().unwrap();
        let mut buf = Vec::new();
        use std::io::Read;
        raw.read_to_end(&mut buf).unwrap();
        assert_eq!(buf[4], status::MALFORMED);
    }

    // Intact framing, garbage payload: connection survives for reuse.
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&protocol::encode_message(OP_PROCESS_FRAME, &[1, 2, 3])).unwrap();
        use std::io::Read;
        let mut header = [0u8; 9];
        raw.read_exact(&mut header).unwrap();
        assert_eq!(header[4], status::MALFORMED);
        let len = u32::from_le_bytes(header[5..9].try_into().unwrap()) as usize;
        let mut msg = vec![0u8; len];
        raw.read_exact(&mut msg).unwrap();

        // Same connection, now a valid request: it still works.
        let payload =
            protocol::encode_request_payload(&uniform_cube(512, 2), &PipelineConfig::default());
        raw.write_all(&protocol::encode_message(OP_PROCESS_FRAME, &payload)).unwrap();
        raw.read_exact(&mut header).unwrap();
        assert_eq!(header[4], status::OK);
    }

    // Every other refusal with intact framing: each is answered MALFORMED
    // (its payload drained when the server will not read it), and the same
    // connection then serves a valid request.
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        let payload =
            protocol::encode_request_payload(&uniform_cube(256, 5), &PipelineConfig::default());
        let valid = protocol::encode_message(OP_PROCESS_FRAME, &payload);
        let refused: [(u8, &[u8], &str); 5] = [
            (OP_INFER, &[1, 2, 3], "malformed INFER payload"),
            (OP_STREAM, &[1, 2, 3], "malformed STREAM payload"),
            (OP_PROCESS_FRAME | 0xF0, &payload, "unknown priority nibble"),
            (OP_HEALTH, &[0; 4], "payload on HEALTH"),
            (OP_STREAM_CREDIT, &[0; 4], "payload on STREAM_CREDIT"),
        ];
        for (kind, body, case) in refused {
            raw.write_all(&protocol::encode_message(kind, body)).unwrap();
            assert_eq!(read_reply(&mut raw), status::MALFORMED, "{case}");
            raw.write_all(&valid).unwrap();
            assert_eq!(read_reply(&mut raw), status::OK, "valid request after {case}");
        }
    }

    assert_eq!(engine.metrics().net_malformed, 7);
    server.shutdown();
    engine.shutdown();
}

/// Reads one whole reply off a raw connection and returns its status.
fn read_reply(raw: &mut TcpStream) -> u8 {
    use std::io::Read;
    let mut header = [0u8; 9];
    raw.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes(header[5..9].try_into().unwrap()) as usize;
    raw.read_exact(&mut vec![0u8; len]).unwrap();
    header[4]
}

#[test]
fn client_disconnect_mid_request_leaves_server_healthy() {
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(1)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();

    {
        // Announce a 1 KiB payload, send 3 bytes, vanish.
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        let mut msg = Vec::new();
        msg.extend_from_slice(&protocol::MAGIC.to_le_bytes());
        msg.push(OP_PROCESS_FRAME);
        msg.extend_from_slice(&1024u32.to_le_bytes());
        msg.extend_from_slice(&[7, 7, 7]);
        raw.write_all(&msg).unwrap();
        raw.flush().unwrap();
    } // dropped here — RST/EOF mid-payload

    // The server must still answer a well-formed request afterwards.
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let reply = client.process(&frame(1024, 3), &PipelineConfig::default()).unwrap();
    assert_eq!(reply.sampled_indices.len(), 256);

    // The disconnect is (eventually) counted; poll briefly since the
    // handler thread races this assertion.
    let mut seen = 0;
    for _ in 0..200 {
        seen = engine.metrics().net_disconnects;
        if seen >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(seen >= 1, "mid-request disconnect was not counted");
    server.shutdown();
    engine.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_batches() {
    let engine = Engine::start(ServeConfig::default().workers(2).queue_capacity(64));
    let tickets: Vec<_> = (0..12)
        .map(|seed| {
            engine
                .submit_shared_with_options(
                    Arc::new(frame(2048, seed)),
                    PipelineConfig::default(),
                    Priority::Normal,
                    None,
                )
                .unwrap()
        })
        .collect();

    engine.shutdown(); // must block until every admitted job completed

    for t in tickets {
        let r = t.wait().expect("admitted before shutdown → must complete");
        assert_eq!(r.sampled_indices.len(), 512);
    }
    let m = engine.metrics();
    assert_eq!(m.completed, 12);
    assert_eq!(m.queue_depth, 0);

    // And new work is refused with the dedicated reason.
    let r = engine.submit_shared_with_options(
        Arc::new(frame(512, 99)),
        PipelineConfig::default(),
        Priority::Normal,
        None,
    );
    assert_eq!(r.unwrap_err(), ServeError::Shed(ShedReason::ShuttingDown));
}

#[test]
fn overload_sheds_with_counted_rejections_and_bounded_queue() {
    // One slow worker, a tiny queue, and a flood: the queue must never
    // exceed its bound and the excess must be shed, not buffered.
    let capacity = 4;
    let engine = Arc::new(Engine::start(
        ServeConfig::default().workers(1).queue_capacity(capacity).max_batch(2),
    ));
    let offered = 64;
    let mut shed = 0u64;
    let mut tickets = Vec::new();
    for seed in 0..offered {
        match engine.submit_shared_with_options(
            Arc::new(frame(4096, seed)),
            PipelineConfig::default(),
            Priority::Normal,
            None,
        ) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Shed(ShedReason::QueueFull)) => shed += 1,
            Err(other) => panic!("unexpected error under overload: {other:?}"),
        }
    }
    for t in tickets {
        t.wait().unwrap();
    }
    let m = engine.metrics();
    assert!(shed > 0, "flooding a 1-worker queue of {capacity} must shed");
    assert_eq!(m.shed_queue_full, shed);
    assert_eq!(m.admitted + shed, offered);
    assert_eq!(m.completed, m.admitted);
    assert!(
        m.peak_queue_depth <= capacity as u64,
        "queue grew past its bound: {} > {capacity}",
        m.peak_queue_depth
    );
    engine.shutdown();
}

#[test]
fn compatible_frames_are_batched_incompatible_are_not_mixed() {
    // Stuff the queue while no worker runs... not possible directly, so
    // use a zero-worker trick: submit first, workers race. Instead rely on
    // statistics: many compatible frames through a 2-worker engine must
    // produce at least one fused batch (mean batch > 1 is likely but not
    // guaranteed, so assert the invariant direction only).
    let engine = Engine::start(ServeConfig::default().workers(2).queue_capacity(64).max_batch(8));
    let a = PipelineConfig::default();
    let b = PipelineConfig { neighbors: 8, ..PipelineConfig::default() };
    let tickets: Vec<_> = (0..16)
        .map(|seed| {
            let cfg = if seed % 2 == 0 { a } else { b };
            engine
                .submit_shared_with_options(
                    Arc::new(frame(2048, seed)),
                    cfg,
                    Priority::Normal,
                    None,
                )
                .unwrap()
        })
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    // Mixed-config batches are impossible: every response's batch size must
    // divide cleanly into same-config groups; verify via result shape (the
    // b-config responses all have num == 8, a-config num == 16).
    for (seed, r) in responses.iter().enumerate() {
        let expect = if seed % 2 == 0 { 16 } else { 8 };
        assert_eq!(r.num, expect, "request {seed} got a foreign batch's parameters");
        assert!(r.batch_size >= 1 && r.batch_size <= 8);
    }
    let m = engine.metrics();
    assert_eq!(m.batched_frames, 16);
    assert!(m.batches <= 16);
    engine.shutdown();
}

/// Blocks until the engine's worker has picked up everything submitted so
/// far (queue empty and at least `batches` batches started).
fn wait_for_drain_start(engine: &Engine, batches: u64) {
    for _ in 0..2000 {
        let m = engine.metrics();
        if m.queue_depth == 0 && m.batches >= batches {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("worker never picked up the plug job");
}

#[test]
fn high_completes_first_under_overload_and_bulk_sheds_first_at_the_bound() {
    // One worker, no fusing, sequential lanes: dequeue order is exactly
    // the weighted schedule, and completion order is dequeue order.
    let engine = Arc::new(Engine::start(
        ServeConfig::default().workers(1).max_batch(1).thread_budget(1).queue_capacity(16),
    ));

    // Pregenerate every frame so the submission loop below is pure queue
    // pushes (the race window against the plug finishing stays tiny).
    let bulk_frames: Vec<_> = (0..3).map(|s| frame(2048, 10 + s)).collect();
    let high_frames: Vec<_> = (0..3).map(|s| frame(2048, 20 + s)).collect();

    // Occupy the worker with a fat plug frame so the real submissions all
    // queue behind it.
    let plug = engine
        .submit_shared_with_options(
            Arc::new(frame(32_768, 1)),
            PipelineConfig::default(),
            Priority::Normal,
            None,
        )
        .unwrap();
    wait_for_drain_start(&engine, 1);

    // Overload: Bulk arrives *before* High, yet High must complete first
    // (the weighted schedule prefers the High lane 4:1).
    let bulk_tickets: Vec<_> = bulk_frames
        .into_iter()
        .map(|f| {
            engine
                .submit_shared_with_options(
                    Arc::new(f),
                    PipelineConfig::default(),
                    Priority::Bulk,
                    None,
                )
                .unwrap()
        })
        .collect();
    let high_tickets: Vec<_> = high_frames
        .into_iter()
        .map(|f| {
            engine
                .submit_shared_with_options(
                    Arc::new(f),
                    PipelineConfig::default(),
                    Priority::High,
                    None,
                )
                .unwrap()
        })
        .collect();

    plug.wait().unwrap();

    // Completion order is observed race-free through server-side counters:
    // the single worker publishes serially and bumps `completed_by_class`
    // *before* waking the ticket, so by the time the first Bulk response
    // is redeemable, every completion that preceded it is already counted.
    let mut bulk_tickets = bulk_tickets.into_iter();
    bulk_tickets.next().unwrap().wait().unwrap();
    let m = engine.metrics();
    assert_eq!(
        m.completed_by_class[Priority::High.index()],
        3,
        "all High work must complete before the first Bulk response under overload"
    );

    for t in bulk_tickets.chain(high_tickets) {
        t.wait().unwrap();
    }
    let m = engine.metrics();
    assert_eq!(m.completed_by_class, [3, 1, 3]); // 3 High, the plug, 3 Bulk
    assert_eq!(m.shed_total(), 0);
    engine.shutdown();
}

#[test]
fn bulk_is_displaced_at_the_queue_bound_and_high_is_never_displaced() {
    let engine = Arc::new(Engine::start(
        ServeConfig::default().workers(1).max_batch(1).thread_budget(1).queue_capacity(2),
    ));
    let frames: Vec<_> = (30..35).map(|s| frame(512, s)).collect();
    let [f30, f31, f32, f33, f34] = <[_; 5]>::try_from(frames).unwrap();
    let plug = engine
        .submit_shared_with_options(
            Arc::new(frame(32_768, 2)),
            PipelineConfig::default(),
            Priority::Normal,
            None,
        )
        .unwrap();
    wait_for_drain_start(&engine, 1);

    // Fill the bound with Bulk work.
    let b1 = engine
        .submit_shared_with_options(Arc::new(f30), PipelineConfig::default(), Priority::Bulk, None)
        .unwrap();
    let b2 = engine
        .submit_shared_with_options(Arc::new(f31), PipelineConfig::default(), Priority::Bulk, None)
        .unwrap();

    // A High arrival at the bound displaces the *youngest* Bulk job...
    let h = engine
        .submit_shared_with_options(Arc::new(f32), PipelineConfig::default(), Priority::High, None)
        .unwrap();
    assert_eq!(
        b2.wait().unwrap_err(),
        ServeError::Shed(ShedReason::QueueFull),
        "the youngest Bulk job must be displaced"
    );

    // ...a further Bulk arrival has nothing below it and sheds itself...
    let r = engine.submit_shared_with_options(
        Arc::new(f33),
        PipelineConfig::default(),
        Priority::Bulk,
        None,
    );
    assert_eq!(r.unwrap_err(), ServeError::Shed(ShedReason::QueueFull));

    // ...and a second High arrival cannot displace the queued High (only
    // classes strictly below it), so it displaces the remaining Bulk job.
    let h2 = engine
        .submit_shared_with_options(Arc::new(f34), PipelineConfig::default(), Priority::High, None)
        .unwrap();
    assert_eq!(b1.wait().unwrap_err(), ServeError::Shed(ShedReason::QueueFull));

    let m = engine.metrics();
    assert_eq!(m.shed_queue_full, 3);
    // All three queue-bound sheds hit the Bulk class: two displacements
    // plus the direct overflow.
    assert_eq!(m.shed_by_class, [0, 0, 3]);

    plug.wait().unwrap();
    h.wait().unwrap();
    h2.wait().unwrap();
    engine.shutdown();
}

#[test]
fn connection_limit_refuses_with_retryable_status() {
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(1).max_connections(1)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();

    // First connection occupies the single slot (a round-trip guarantees
    // its handler is registered).
    let mut first = ServeClient::connect(server.local_addr()).unwrap();
    first.process(&frame(512, 40), &PipelineConfig::default()).unwrap();

    // The second connection is answered TOO_MANY_CONNECTIONS and closed.
    let mut second = ServeClient::connect(server.local_addr()).unwrap();
    let err = second.process(&frame(512, 41), &PipelineConfig::default()).unwrap_err();
    match &err {
        ClientError::Server { code, .. } => {
            assert_eq!(*code, protocol::status::TOO_MANY_CONNECTIONS)
        }
        other => panic!("expected a connection-limit refusal, got {other:?}"),
    }
    assert!(err.is_shed(), "connection-limit refusals are retryable");
    assert!(engine.metrics().net_conn_refused >= 1);

    // Once the first connection closes, the slot frees up.
    drop(first);
    let mut ok = false;
    for _ in 0..500 {
        if let Ok(mut c) = ServeClient::connect(server.local_addr()) {
            if c.process(&frame(512, 42), &PipelineConfig::default()).is_ok() {
                ok = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(ok, "connection slot never freed after the first client left");
    server.shutdown();
    engine.shutdown();
}

#[test]
fn responses_over_tcp_match_in_process_results() {
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(2)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let cloud = frame(3000, 11);
    let cfg = PipelineConfig::default();
    let wire = client.process(&cloud, &cfg).unwrap();
    let local = engine.process_shared(Arc::new(cloud), cfg).unwrap();

    let as_u32 = |v: &[usize]| v.iter().map(|&i| i as u32).collect::<Vec<u32>>();
    assert_eq!(wire.sampled_indices, as_u32(&local.sampled_indices));
    assert_eq!(wire.neighbor_indices, as_u32(&local.neighbor_indices));
    assert_eq!(wire.found, as_u32(&local.found));
    assert_eq!(wire.num as usize, local.num);
    assert_eq!(wire.blocks as usize, local.blocks);
    server.shutdown();
    engine.shutdown();
}
