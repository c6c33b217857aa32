//! Criterion micro-benchmarks: partitioning strategies (software builders).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fractalcloud_core::Fractal;
use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
use fractalcloud_pointcloud::partition::{
    KdTreePartitioner, OctreePartitioner, Partitioner, UniformPartitioner,
};

fn bench_partitioners(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition");
    for &n in &[4096usize, 16_384] {
        let cloud = scene_cloud(&SceneConfig::default(), n, 42);
        group.bench_with_input(BenchmarkId::new("fractal-th256", n), &cloud, |b, cl| {
            b.iter(|| Fractal::with_threshold(256).build(cl).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("kdtree-bs256", n), &cloud, |b, cl| {
            b.iter(|| KdTreePartitioner::new(256).partition(cl).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("octree-bs256", n), &cloud, |b, cl| {
            b.iter(|| OctreePartitioner::new(256).partition(cl).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("uniform-t256", n), &cloud, |b, cl| {
            b.iter(|| UniformPartitioner::with_target_block_size(256).partition(cl).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partitioners);
criterion_main!(benches);
