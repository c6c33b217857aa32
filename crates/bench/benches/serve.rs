//! Criterion micro-benchmarks for the serving layer: engine round-trips
//! (cold partition vs LRU hit) against the direct pipeline call they must
//! match, and batched submission of compatible frames.

use criterion::{criterion_group, criterion_main, Criterion};
use fractalcloud_core::{Pipeline, PipelineConfig};
use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
use fractalcloud_serve::{Engine, ServeConfig};

fn bench_serve_roundtrip(c: &mut Criterion) {
    let n = 4096;
    let cloud = scene_cloud(&SceneConfig::default(), n, 42);
    let cfg = PipelineConfig::default();
    let pipeline = Pipeline::new(cfg).unwrap();

    let mut group = c.benchmark_group("serve_4k");
    group.bench_function("direct-pipeline", |b| b.iter(|| pipeline.run(&cloud, true).unwrap()));

    // Cache disabled: every round-trip pays queueing + partition + BPPO.
    let cold = Engine::start(ServeConfig::default().cache_capacity(0));
    group.bench_function("engine-process-cold", |b| {
        b.iter(|| cold.process(cloud.clone(), cfg).unwrap())
    });
    cold.shutdown();

    // Cache enabled: identical frame bytes reuse the partition.
    let warm = Engine::start(ServeConfig::default());
    warm.process(cloud.clone(), cfg).unwrap(); // prime the LRU
    group.bench_function("engine-process-cached", |b| {
        b.iter(|| {
            let r = warm.process(cloud.clone(), cfg).unwrap();
            assert!(r.cache_hit);
            r
        })
    });
    warm.shutdown();
    group.finish();
}

fn bench_serve_batching(c: &mut Criterion) {
    let frames: Vec<_> = (0..8).map(|s| scene_cloud(&SceneConfig::default(), 1024, s)).collect();
    let cfg = PipelineConfig::default();

    let mut group = c.benchmark_group("serve_batching_1k");
    // Eight compatible frames submitted up front so they fuse into one
    // batch. The budget is forced above 1 so the per-job lanes genuinely
    // run in parallel even on single-CPU hosts.
    let budget = fractalcloud_parallel::workers().max(2);
    let engine =
        Engine::start(ServeConfig::default().cache_capacity(0).max_batch(8).thread_budget(budget));
    group.bench_function("submit-8-compatible-frames", |b| {
        b.iter(|| {
            let tickets: Vec<_> =
                frames.iter().map(|f| engine.submit(f.clone(), cfg).unwrap()).collect();
            tickets.into_iter().map(|t| t.wait().unwrap()).collect::<Vec<_>>().len()
        })
    });
    engine.shutdown();
    group.finish();
}

fn bench_serve_inference(c: &mut Criterion) {
    use fractalcloud_serve::{Aggregation, InferRequest, ModelConfig};
    use std::sync::Arc;
    let cloud = Arc::new(scene_cloud(&SceneConfig::default(), 1024, 42));

    let mut group = c.benchmark_group("serve_infer_1k");
    // Warm cache-hit INFER frames: the partition comes from the LRU and
    // the executor/weights from the engine's cache, so the two schedules
    // differ only in where the stage MLPs run — eager on gathered
    // centers × nsample rows, delayed once per unique point (bit-identical
    // logits). Response buffers recycle through the engine's pool.
    for (label, agg) in
        [("engine-infer-eager", Aggregation::Eager), ("engine-infer-delayed", Aggregation::Delayed)]
    {
        let engine = Engine::start(ServeConfig::default().workers(1));
        let request = || InferRequest {
            aggregation: Some(agg),
            ..InferRequest::new(ModelConfig::table1().remove(0))
        };
        let warm = engine.process_infer(Arc::clone(&cloud), request()).unwrap();
        engine.recycle_infer(warm);
        group.bench_function(label, |b| {
            b.iter(|| {
                let r = engine.process_infer(Arc::clone(&cloud), request()).unwrap();
                assert!(r.cache_hit);
                engine.recycle_infer(r);
            })
        });
        engine.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_serve_roundtrip, bench_serve_batching, bench_serve_inference);
criterion_main!(benches);
