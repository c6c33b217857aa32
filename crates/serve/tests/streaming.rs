//! Progressive LOD streaming over TCP: coarse-to-fine chunks accumulate to
//! the byte-identical equivalent of direct prefix-budget responses, credits
//! gate refinement, cancel provably stops server-side work (not just wire
//! traffic), and a viewer vanishing mid-stream leaves the engine healthy.

use fractalcloud_core::PipelineConfig;
use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
use fractalcloud_serve::protocol::{self, WireStreamOpen};
use fractalcloud_serve::{Engine, Priority, ServeClient, ServeConfig, StreamEvent, TcpServer};
use std::sync::Arc;
use std::time::Duration;

fn start(config: ServeConfig) -> (Arc<Engine>, TcpServer) {
    let engine = Arc::new(Engine::start(config));
    let server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    (engine, server)
}

#[test]
fn accumulated_chunks_are_byte_identical_to_direct_budget_responses_at_every_depth() {
    // The streaming acceptance contract: after folding chunks 1..=n into
    // the accumulator, its response encodes byte-for-byte the payload a
    // direct `budget = depth` request returns — at EVERY chunk boundary,
    // not just the final one.
    let (engine, mut server) = start(ServeConfig::default().workers(2));
    let mut streamer = ServeClient::connect(server.local_addr()).unwrap();
    let mut direct = ServeClient::connect(server.local_addr()).unwrap();

    let cloud = scene_cloud(&SceneConfig::default(), 3000, 11);
    let cfg = PipelineConfig::default();
    // Warm the partition cache so the streamed chunks and the direct
    // comparisons all report the same cache_hit flag.
    direct.process(&cloud, &cfg).unwrap();

    let open = WireStreamOpen { first_paint: 100, chunk: 230, credits: 2 };
    streamer.stream_open(&cloud, &cfg, Priority::Normal, 0, &open).unwrap();
    let mut acc = protocol::StreamAccumulator::new();
    loop {
        match streamer.stream_next().unwrap() {
            StreamEvent::Chunk(chunk) => {
                acc.push(&chunk).unwrap();
                let at_depth =
                    direct.process_budget(&cloud, &cfg, Priority::Normal, 0, acc.depth()).unwrap();
                assert_eq!(
                    protocol::encode_response_payload(&acc.response()),
                    protocol::encode_response_payload(&at_depth),
                    "accumulated stream diverged from the direct budget-{} response",
                    acc.depth()
                );
                if acc.depth() < acc.total() {
                    streamer.stream_credit().unwrap();
                }
            }
            StreamEvent::End(end) => {
                assert!(!end.cancelled);
                assert_eq!(end.delivered, acc.total(), "the stream must refine to full depth");
                break;
            }
        }
    }
    // ...and the fully refined stream equals the ordinary full response.
    let full = direct.process(&cloud, &cfg).unwrap();
    assert_eq!(acc.response(), full, "a fully refined stream must equal the monolithic response");

    server.shutdown();
    engine.shutdown();
}

#[test]
fn stream_frame_completes_with_server_default_knobs() {
    let (engine, mut server) = start(ServeConfig::default().workers(1));
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let cloud = scene_cloud(&SceneConfig::default(), 1500, 3);
    let cfg = PipelineConfig::default();

    // Zero wire fields select the server's configured defaults.
    let open = WireStreamOpen { first_paint: 0, chunk: 0, credits: 0 };
    let (resp, end) = client.stream_frame(&cloud, &cfg, Priority::High, 0, &open).unwrap();
    assert!(!end.cancelled);
    assert!(end.chunks >= 1);
    let full = client.process(&cloud, &cfg).unwrap();
    // The stream ran first (cold), the direct request second (warm): the
    // cache flag is the only field allowed to differ.
    let mut warm = resp.clone();
    warm.cache_hit = full.cache_hit;
    assert_eq!(warm, full);

    // Leftover control frames from the natural-completion race are
    // tolerated: the connection stays usable for ordinary requests.
    client.stream_credit().unwrap();
    client.cancel().unwrap();
    client.process(&cloud, &cfg).unwrap();

    let m = engine.metrics();
    assert_eq!(m.streams_opened, 1);
    assert_eq!(m.streams_closed, 1);
    assert_eq!(m.streams_cancelled, 0);
    assert_eq!(m.stream_chunks_sent, u64::from(end.chunks));
    server.shutdown();
    engine.shutdown();
}

#[test]
fn cancel_provably_stops_server_side_work() {
    // Tiny chunks so a full refinement would take many engine jobs; cancel
    // right after first paint and prove the engine-side chunk counter —
    // incremented only when a chunk job *executes* — stops advancing.
    let (engine, mut server) =
        start(ServeConfig::default().workers(2).stream_first_paint(16).stream_chunk(16));
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let cloud = scene_cloud(&SceneConfig::default(), 4096, 5);
    let cfg = PipelineConfig::default();

    let open = WireStreamOpen { first_paint: 0, chunk: 0, credits: 2 };
    client.stream_open(&cloud, &cfg, Priority::Normal, 0, &open).unwrap();
    let first = match client.stream_next().unwrap() {
        StreamEvent::Chunk(c) => c,
        StreamEvent::End(e) => panic!("stream ended before first paint: {e:?}"),
    };
    assert!(
        first.hi < first.total,
        "test needs a stream with refinements left (hi {} of {})",
        first.hi,
        first.total
    );
    client.cancel().unwrap();
    let end = loop {
        match client.stream_next().unwrap() {
            StreamEvent::Chunk(_) => {} // chunks already in flight when the cancel landed
            StreamEvent::End(end) => break end,
        }
    };
    assert!(end.cancelled, "the server must acknowledge the cancel");
    assert!(
        end.delivered < first.total,
        "cancel must stop refinement short of full depth ({} of {})",
        end.delivered,
        first.total
    );

    // The work provability claim: after STREAM_END, no chunk job executes.
    let settled = engine.metrics().stream_chunks_sent;
    std::thread::sleep(Duration::from_millis(150));
    let after = engine.metrics().stream_chunks_sent;
    assert_eq!(settled, after, "chunk jobs kept executing after the stream was cancelled");

    let m = engine.metrics();
    assert_eq!(m.streams_cancelled, 1);
    assert_eq!(m.streams_opened, m.streams_closed, "cancel must balance the open/closed gauge");
    assert_eq!(client.health().unwrap().streams_open, 0);
    server.shutdown();
    engine.shutdown();
}

#[test]
fn mid_stream_disconnect_leaves_the_engine_healthy() {
    // Chaos case: the viewer vanishes (socket dropped, no cancel) while
    // the server is blocked waiting for credits. The control read sees EOF,
    // the stream closes quietly, the gauge returns to zero, and the engine
    // keeps serving other clients.
    let (engine, mut server) =
        start(ServeConfig::default().workers(2).stream_first_paint(16).stream_chunk(16));
    let cloud = scene_cloud(&SceneConfig::default(), 4096, 9);
    let cfg = PipelineConfig::default();
    {
        let mut doomed = ServeClient::connect(server.local_addr()).unwrap();
        // credits: 1 → after one refinement the server blocks on control
        // frames, which is exactly where the EOF lands.
        let open = WireStreamOpen { first_paint: 0, chunk: 0, credits: 1 };
        doomed.stream_open(&cloud, &cfg, Priority::Normal, 0, &open).unwrap();
        match doomed.stream_next().unwrap() {
            StreamEvent::Chunk(c) => assert!(c.hi < c.total, "need refinements left"),
            StreamEvent::End(e) => panic!("stream ended before first paint: {e:?}"),
        }
        // Drop without cancel: simulates a crashed viewer.
    }

    // The stream must close (opened − closed → 0) without hanging.
    let mut probe = ServeClient::connect(server.local_addr()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let h = probe.health().unwrap();
        if h.streams_open == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stream never closed after the client vanished: {h:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // And the engine still serves.
    probe.process(&cloud, &cfg).unwrap();
    assert!(probe.health().unwrap().live);
    server.shutdown();
    engine.shutdown();
}

#[test]
fn malformed_stream_requests_keep_the_connection_usable() {
    use std::io::{Read, Write};
    let (engine, mut server) = start(ServeConfig::default().workers(1));
    let cloud = scene_cloud(&SceneConfig::default(), 400, 2);
    let cfg = PipelineConfig::default();

    // A stream request whose trailer is truncated (plain PROCESS_FRAME
    // payload under the STREAM opcode) is malformed — but framing was
    // intact, so the same connection survives and serves the next request.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let bad = protocol::encode_request_payload(&cloud, &cfg);
    raw.write_all(&protocol::encode_message(protocol::stream_request_kind(Priority::Normal), &bad))
        .unwrap();
    let mut header = [0u8; 9];
    raw.read_exact(&mut header).unwrap();
    assert_eq!(header[4], protocol::status::MALFORMED);
    let len = u32::from_le_bytes(header[5..9].try_into().unwrap()) as usize;
    let mut msg = vec![0u8; len];
    raw.read_exact(&mut msg).unwrap();

    // Same socket, now a valid frame request: still answered.
    raw.write_all(&protocol::encode_message(protocol::OP_PROCESS_FRAME, &bad)).unwrap();
    raw.read_exact(&mut header).unwrap();
    assert_eq!(header[4], protocol::status::OK);

    assert!(engine.metrics().net_malformed >= 1);
    server.shutdown();
    engine.shutdown();
}

#[test]
fn credit_starved_stream_resolves_at_the_deadline() {
    // A viewer that opens a stream and never sends credits used to pin the
    // connection's handler in an unbounded credit wait. Now the wait is
    // bounded by the stream's deadline: the server resolves the stream with
    // a retryable DEADLINE_EXCEEDED, balances its stream books, and keeps
    // the connection usable.
    let (engine, mut server) =
        start(ServeConfig::default().workers(1).stream_first_paint(16).stream_chunk(16));
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let cloud = scene_cloud(&SceneConfig::default(), 2048, 17);
    let cfg = PipelineConfig::default();

    // One credit pays for the first paint; refinement then starves.
    let open = WireStreamOpen { first_paint: 0, chunk: 0, credits: 1 };
    client.stream_open(&cloud, &cfg, Priority::Normal, 300, &open).unwrap();
    match client.stream_next().unwrap() {
        StreamEvent::Chunk(c) => assert!(c.hi - c.lo <= 16),
        StreamEvent::End(e) => panic!("stream ended before first paint: {e:?}"),
    }

    // Never send another credit: the server must give up at the deadline,
    // not hang forever.
    let err = loop {
        match client.stream_next() {
            Ok(StreamEvent::Chunk(_)) => continue,
            Ok(StreamEvent::End(e)) => panic!("starved stream ended cleanly: {e:?}"),
            Err(e) => break e,
        }
    };
    match &err {
        fractalcloud_serve::ClientError::Server { code, .. } => {
            assert_eq!(*code, protocol::status::DEADLINE_EXCEEDED, "wrong status: {err:?}");
        }
        other => panic!("expected DEADLINE_EXCEEDED, got {other:?}"),
    }
    assert!(err.is_shed(), "a deadline resolution must stay retryable");

    // The stream books close and the connection is still usable.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while engine.health().streams_open > 0 {
        assert!(std::time::Instant::now() < deadline, "stream books never balanced");
        std::thread::sleep(Duration::from_millis(5));
    }
    let m = engine.metrics();
    assert_eq!(m.streams_opened, m.streams_closed, "streams_open/closed must balance");
    client.process(&cloud, &cfg).unwrap();

    server.shutdown();
    engine.shutdown();
}

#[test]
fn soft_drain_lets_an_open_stream_run_to_completion() {
    // `Engine::drain` promises that open streams finish. A stream is one
    // admission — its first paint — so a drain that starts after it refuses
    // *new* streams (GOAWAY) while this one refines to full depth.
    let (engine, mut server) = start(ServeConfig::default().workers(2));
    let mut streamer = ServeClient::connect(server.local_addr()).unwrap();
    let mut other = ServeClient::connect(server.local_addr()).unwrap();
    let cloud = scene_cloud(&SceneConfig::default(), 3000, 23);
    let cfg = PipelineConfig::default();
    // Warm, so the stream and the direct response agree on `cache_hit`.
    other.process(&cloud, &cfg).unwrap();
    let direct = other.process(&cloud, &cfg).unwrap();

    let open = WireStreamOpen { first_paint: 16, chunk: 64, credits: 1 };
    streamer.stream_open(&cloud, &cfg, Priority::Normal, 0, &open).unwrap();
    let mut acc = protocol::StreamAccumulator::new();
    match streamer.stream_next().unwrap() {
        StreamEvent::Chunk(first) => acc.push(&first).unwrap(),
        StreamEvent::End(e) => panic!("stream ended before first paint: {e:?}"),
    }

    engine.drain();
    other.stream_open(&cloud, &cfg, Priority::Normal, 0, &open).unwrap();
    match other.stream_next() {
        Err(fractalcloud_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, protocol::status::GOAWAY, "a draining server refuses new streams");
        }
        other => panic!("expected GOAWAY, got {other:?}"),
    }

    // The open stream is credited chunk by chunk, all of it mid-drain.
    let end = loop {
        match streamer.stream_next().unwrap() {
            StreamEvent::Chunk(chunk) => {
                acc.push(&chunk).unwrap();
                streamer.stream_credit().unwrap();
            }
            StreamEvent::End(end) => break end,
        }
    };
    assert!(!end.cancelled);
    assert_eq!(end.delivered, acc.total(), "the drained stream must still reach full depth");
    assert!(end.chunks > 3, "the test needs refinements cut during the drain");
    assert_eq!(
        acc.response(),
        direct,
        "a stream finished mid-drain must equal the direct response"
    );

    engine.resume();
    // The same connection serves again, which also orders this thread
    // after the handler left the stream (its books are closed by now).
    assert_eq!(streamer.process(&cloud, &cfg).unwrap(), direct);
    let m = engine.metrics();
    assert_eq!((m.streams_opened, m.streams_closed, m.streams_cancelled), (1, 1, 0));
    assert_eq!(m.stream_chunks_sent, u64::from(end.chunks));
    assert_eq!(m.goaway_sent, 1);
    // One job per stream: two warm-ups, the first paint, the last frame.
    assert_eq!((m.submitted, m.admitted, m.completed), (4, 4, 4));
    assert_eq!(m.shed_total(), 0);
    server.shutdown();
    engine.shutdown();
}

#[test]
fn shutdown_mid_stream_refuses_the_next_chunk() {
    // A terminal shutdown is not a drain: the open stream's next chunk
    // boundary answers SHUTTING_DOWN, exactly as its per-chunk admission
    // used to.
    let (engine, mut server) = start(ServeConfig::default().workers(2));
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let cloud = scene_cloud(&SceneConfig::default(), 3000, 29);
    let cfg = PipelineConfig::default();

    let open = WireStreamOpen { first_paint: 16, chunk: 16, credits: 1 };
    client.stream_open(&cloud, &cfg, Priority::Normal, 0, &open).unwrap();
    // First paint plus the one refinement the opening credit pays for;
    // the server is then credit-starved.
    for _ in 0..2 {
        match client.stream_next().unwrap() {
            StreamEvent::Chunk(c) => assert!(c.hi < c.total, "need refinements left"),
            StreamEvent::End(e) => panic!("stream ended early: {e:?}"),
        }
    }
    engine.shutdown();
    client.stream_credit().unwrap();
    match client.stream_next() {
        Err(fractalcloud_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, protocol::status::SHUTTING_DOWN);
        }
        other => panic!("expected SHUTTING_DOWN, got {other:?}"),
    }
    // HEALTH is answered inline even now, and only after the handler left
    // the stream — so the books are closed when it returns.
    let health = client.health().unwrap();
    assert!(!health.live);
    assert_eq!(health.streams_open, 0);
    let m = engine.metrics();
    assert_eq!(m.streams_opened, m.streams_closed);
    assert_eq!(m.stream_chunks_sent, 2, "no chunk is cut after the shutdown");
    server.shutdown();
}
