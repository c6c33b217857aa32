//! The serving layer's correctness contract: every response — in-process or
//! over TCP, cold or partition-cache-hit, lone or fused into a batch — is
//! bit-identical to calling the library directly, on every kernel backend.

use fractalcloud_core::{block_ball_query, block_fps, BppoConfig, Fractal, PipelineConfig};
use fractalcloud_pointcloud::generate::{scene_cloud, uniform_cube, SceneConfig};
use fractalcloud_pointcloud::kernels::{self, Backend};
use fractalcloud_pointcloud::PointCloud;
use fractalcloud_serve::{Engine, FrameResponse, Priority, ServeClient, ServeConfig, TcpServer};
use std::sync::Arc;

/// The direct library computation a served frame must match exactly.
fn direct(cloud: &PointCloud, cfg: &PipelineConfig) -> FrameResponseShape {
    let built = Fractal::with_threshold(cfg.threshold).build(cloud).unwrap();
    let bppo = BppoConfig::default();
    let fps = block_fps(cloud, &built.partition, cfg.sample_rate, &bppo).unwrap();
    let bq =
        block_ball_query(cloud, &built.partition, &fps.per_block, cfg.radius, cfg.neighbors, &bppo)
            .unwrap();
    FrameResponseShape {
        sampled_indices: fps.indices,
        neighbor_indices: bq.indices,
        found: bq.found,
        num: bq.num,
        blocks: built.partition.blocks.len(),
    }
}

/// The result fields that define equivalence.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FrameResponseShape {
    sampled_indices: Vec<usize>,
    neighbor_indices: Vec<usize>,
    found: Vec<usize>,
    num: usize,
    blocks: usize,
}

fn shape(r: &FrameResponse) -> FrameResponseShape {
    FrameResponseShape {
        sampled_indices: r.sampled_indices.clone(),
        neighbor_indices: r.neighbor_indices.clone(),
        found: r.found.clone(),
        num: r.num,
        blocks: r.blocks,
    }
}

#[test]
fn server_responses_are_bit_identical_to_direct_calls_on_every_backend() {
    let engine = Arc::new(Engine::start(ServeConfig::default().workers(2).max_batch(4)));
    let mut server = TcpServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let cases: Vec<(PointCloud, PipelineConfig)> = vec![
        (scene_cloud(&SceneConfig::default(), 4096, 1), PipelineConfig::default()),
        (scene_cloud(&SceneConfig::default(), 2000, 2), PipelineConfig::new(64, 0.5, 0.2, 8)),
        (uniform_cube(777, 3), PipelineConfig::new(128, 0.1, 0.6, 32)),
        // Tiny frame: single block, k larger than the block.
        (uniform_cube(40, 4), PipelineConfig::new(64, 0.25, 0.3, 64)),
    ];

    for (cloud, cfg) in &cases {
        // Direct results agree across every backend (the kernel layer's
        // own guarantee — rechecked here because the server claim builds
        // on it).
        let expected = direct(cloud, cfg);
        for backend in Backend::ALL {
            let via = kernels::with_backend(backend, || direct(cloud, cfg));
            assert_eq!(via, expected, "backend {backend:?} diverged on direct calls");
        }

        // In-process serving: cold, then cache-hit.
        let cold = engine.process_shared(Arc::new(cloud.clone()), *cfg).unwrap();
        assert_eq!(shape(&cold), expected, "served response diverged from direct calls");
        let warm = engine.process_shared(Arc::new(cloud.clone()), *cfg).unwrap();
        assert!(warm.cache_hit, "identical frame bytes must hit the partition cache");
        assert_eq!(shape(&warm), expected, "cache-hit response diverged");

        // Over the wire.
        let wire = client.process(cloud, cfg).unwrap();
        assert_eq!(
            wire.sampled_indices,
            expected.sampled_indices.iter().map(|&i| i as u32).collect::<Vec<u32>>()
        );
        assert_eq!(
            wire.neighbor_indices,
            expected.neighbor_indices.iter().map(|&i| i as u32).collect::<Vec<u32>>()
        );
        assert_eq!(wire.found, expected.found.iter().map(|&i| i as u32).collect::<Vec<u32>>());
        assert_eq!(wire.num as usize, expected.num);
        assert_eq!(wire.blocks as usize, expected.blocks);
    }

    server.shutdown();
    engine.shutdown();
}

#[test]
fn batched_execution_matches_direct_calls_for_every_member() {
    // Flood enough compatible frames that batches actually fuse, then
    // verify each response individually against the direct computation.
    let engine =
        Arc::new(Engine::start(ServeConfig::default().workers(2).max_batch(8).queue_capacity(64)));
    let cfg = PipelineConfig::default();
    let clouds: Vec<PointCloud> =
        (0..24).map(|seed| scene_cloud(&SceneConfig::default(), 1500, seed)).collect();
    let tickets: Vec<_> = clouds
        .iter()
        .map(|c| {
            engine
                .submit_shared_with_options(Arc::new(c.clone()), cfg, Priority::Normal, None)
                .unwrap()
        })
        .collect();
    for (cloud, ticket) in clouds.iter().zip(tickets) {
        let r = ticket.wait().unwrap();
        assert_eq!(shape(&r), direct(cloud, &cfg), "a batched frame diverged");
    }
    engine.shutdown();
}

#[test]
fn fused_ragged_batches_are_bit_identical_to_per_frame_execution() {
    // A fused batch — one lane per frame, each lane's block fan-out
    // running on its share of the thread budget — must answer
    // byte-for-byte what per-frame sequential execution answers, on every
    // kernel backend (this test runs under whichever backend dispatch
    // selected; CI repeats the suite with FRACTALCLOUD_KERNEL=soa), for
    // *ragged* batches whose frames have wildly different block counts.
    let cfg = PipelineConfig::default();
    let clouds: Vec<PointCloud> = vec![
        // First frame is the largest so the remaining submissions queue up
        // behind it and genuinely fuse.
        (scene_cloud(&SceneConfig::default(), 6000, 21)),
        (scene_cloud(&SceneConfig::default(), 1500, 22)),
        (uniform_cube(300, 23)),
        (uniform_cube(40, 24)), // single block, smaller than the threshold
        (scene_cloud(&SceneConfig::default(), 4096, 25)),
    ];
    let expected: Vec<FrameResponseShape> = clouds.iter().map(|c| direct(c, &cfg)).collect();
    // Direct results agree across every backend (re-checked so the serve
    // claim composes with the kernel layer's own guarantee).
    for backend in Backend::ALL {
        for (cloud, want) in clouds.iter().zip(&expected) {
            let via = kernels::with_backend(backend, || direct(cloud, &cfg));
            assert_eq!(&via, want, "backend {backend:?} diverged on direct calls");
        }
    }

    // thread_budget(4) gives the batch genuinely parallel lanes even on
    // 1-CPU hosts — they must still match the sequential per-frame
    // expectation bit for bit.
    let engine = Arc::new(Engine::start(
        ServeConfig::default()
            .workers(1)
            .max_batch(8)
            .queue_capacity(16)
            .cache_capacity(0)
            .thread_budget(4),
    ));
    // Mixed priorities across the batch: scheduling class must never
    // change results.
    let tickets: Vec<_> = clouds
        .iter()
        .enumerate()
        .map(|(i, c)| {
            engine
                .submit_shared_with_options(Arc::new(c.clone()), cfg, Priority::ALL[i % 3], None)
                .expect("queue sized for the whole batch")
        })
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    for ((r, want), cloud) in responses.iter().zip(&expected).zip(&clouds) {
        assert_eq!(&shape(r), want, "fused batch diverged on a {}-point frame", cloud.len());
    }
    let fused = responses.iter().map(|r| r.batch_size).max().unwrap();
    assert!(fused >= 2, "expected at least one genuinely fused batch, got {fused}");
    engine.shutdown();
}

#[test]
fn warmed_worker_workspaces_never_leak_state_between_frames() {
    // The zero-allocation steady state reuses one workspace (and pooled
    // output staging) per worker lane across every frame it serves. Push a
    // stream of interleaved frames of very different shapes — big, tiny,
    // repeated (cache hits), differing configs — through ONE worker, so
    // the same scratch serves them all back to back, and check every
    // response against the direct library computation.
    let engine = Engine::start(ServeConfig::default().workers(1).queue_capacity(64));
    let shapes = [
        (4096usize, 1u64),
        (57, 2),
        (4096, 1), // cache-hit repeat of the first frame
        (700, 3),
        (57, 2), // cache-hit repeat of the tiny frame
        (2048, 4),
    ];
    let configs = [
        PipelineConfig::default(),
        PipelineConfig::new(64, 0.5, 0.9, 4),
        PipelineConfig::default(),
        PipelineConfig::new(32, 0.1, 0.2, 2),
        PipelineConfig::new(64, 0.5, 0.9, 4),
        PipelineConfig::default(),
    ];
    for round in 0..2 {
        for ((n, seed), cfg) in shapes.iter().zip(configs.iter()) {
            let cloud = scene_cloud(&SceneConfig::default(), *n, *seed);
            let served = engine.process_shared(Arc::new(cloud.clone()), *cfg).unwrap();
            assert_eq!(
                shape(&served),
                direct(&cloud, cfg),
                "dirty worker workspace changed results (round {round}, n={n}, seed={seed})"
            );
        }
    }
    let m = engine.metrics();
    assert!(m.cache_hits > 0, "the repeats must exercise the cache-hit path");
    engine.shutdown();
}

#[test]
fn sequential_and_parallel_serving_configurations_agree() {
    // thread_budget 1 forces every request onto a sequential lane;
    // a large budget lets lone requests parallelize. Same results.
    let cloud = scene_cloud(&SceneConfig::default(), 5000, 7);
    let cfg = PipelineConfig::default();

    let seq_engine = Engine::start(ServeConfig::default().workers(1).thread_budget(1));
    let par_engine = Engine::start(ServeConfig::default().workers(2).thread_budget(8));
    let a = seq_engine.process_shared(Arc::new(cloud.clone()), cfg).unwrap();
    let b = par_engine.process_shared(Arc::new(cloud), cfg).unwrap();
    assert_eq!(shape(&a), shape(&b));
    seq_engine.shutdown();
    par_engine.shutdown();
}
