//! Criterion micro-benchmarks: global vs block-parallel point operations,
//! and the chunked SoA kernel path vs the retained scalar references.

use criterion::{criterion_group, criterion_main, Criterion};
use fractalcloud_core::bppo::reference as bppo_reference;
use fractalcloud_core::{block_ball_query, block_fps, BppoConfig, Fractal};
use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
use fractalcloud_pointcloud::kernels::{self, Backend, SelectScratch};
use fractalcloud_pointcloud::ops::{
    ball_query, ball_query_into, farthest_point_sample, k_nearest_neighbors, reference,
};
use fractalcloud_pointcloud::Point3;

fn bench_point_ops(c: &mut Criterion) {
    let n = 4096;
    let cloud = scene_cloud(&SceneConfig::default(), n, 42);
    let part = Fractal::with_threshold(256).build(&cloud).unwrap().partition;
    let fps = block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap();
    let centers: Vec<Point3> = fps.indices.iter().map(|&i| cloud.point(i)).collect();

    let mut group = c.benchmark_group("point_ops_4k");
    group.bench_function("fps-global", |b| {
        b.iter(|| farthest_point_sample(&cloud, n / 4, 0).unwrap())
    });
    group.bench_function("fps-block-parallel", |b| {
        b.iter(|| block_fps(&cloud, &part, 0.25, &BppoConfig::default()).unwrap())
    });
    group.bench_function("fps-block-sequential", |b| {
        b.iter(|| block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap())
    });
    group.bench_function("ballquery-global", |b| {
        b.iter(|| ball_query(&cloud, &centers, 0.4, 16).unwrap())
    });
    group.bench_function("ballquery-block", |b| {
        b.iter(|| {
            block_ball_query(&cloud, &part, &fps.per_block, 0.4, 16, &BppoConfig::sequential())
                .unwrap()
        })
    });
    group.finish();
}

/// Grouping at scene scale, where it dominates a cold frame: sequential
/// block-wise ball query over a 64k room at threshold 256, and one real
/// parent search space through the row rule with the scan starting at slot
/// 0 vs at its centers' own block (the block with the most centers among
/// those not first in their space). Whole search spaces, unlike fcbench's one-leaf
/// `ball_select_ns_per_pair`, so the scan start shows.
fn bench_point_ops_64k(c: &mut Criterion) {
    let cloud = scene_cloud(&SceneConfig::default(), 65_536, 42);
    let part = Fractal::with_threshold(256).build(&cloud).unwrap().partition;
    let fps = block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap();

    let mut group = c.benchmark_group("point_ops_64k");
    group.bench_function("ballquery-block-sequential", |b| {
        b.iter(|| {
            block_ball_query(&cloud, &part, &fps.per_block, 0.4, 16, &BppoConfig::sequential())
                .unwrap()
        })
    });

    let own_offset = |b: usize| -> usize {
        let first = part.blocks[b].search.0;
        part.blocks[first..b].iter().map(|g| g.len()).sum()
    };
    let block = (0..part.blocks.len())
        .filter(|&b| own_offset(b) > 0)
        .max_by_key(|&b| fps.per_block[b].len())
        .unwrap();
    let (first, end) = part.blocks[block].search;
    let space: Vec<usize> =
        part.blocks[first..end].iter().flat_map(|g| g.indices.iter().copied()).collect();
    let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
    kernels::gather_coords(cloud.xs(), cloud.ys(), cloud.zs(), &space, &mut xs, &mut ys, &mut zs);
    let queries: Vec<[f32; 3]> = fps.per_block[block]
        .iter()
        .map(|&i| {
            let p = cloud.point(i);
            [p.x, p.y, p.z]
        })
        .collect();
    let mut scratch = SelectScratch::new();
    let (mut indices, mut found) = (Vec::new(), Vec::new());
    for (row, first) in [("searchspace-first-0", 0), ("searchspace-first-own", own_offset(block))] {
        group.bench_function(row, |b| {
            b.iter(|| {
                indices.clear();
                found.clear();
                ball_query_into(
                    kernels::active_backend(),
                    &xs,
                    &ys,
                    &zs,
                    &queries,
                    0.4,
                    16,
                    first,
                    &mut scratch,
                    &mut indices,
                    &mut found,
                    |slot| slot,
                    |_| 0,
                );
                found.len()
            })
        });
    }
    group.finish();
}

/// Chunked SoA kernel path vs the retained scalar references, same inputs.
fn bench_scalar_vs_kernel(c: &mut Criterion) {
    let n = 4096;
    let cloud = scene_cloud(&SceneConfig::default(), n, 42);
    let part = Fractal::with_threshold(256).build(&cloud).unwrap().partition;
    let centers: Vec<Point3> = (0..256).map(|i| cloud.point(i * (n / 256))).collect();

    let mut group = c.benchmark_group("scalar_vs_kernel_4k");
    group.bench_function("fps-scalar-reference", |b| {
        b.iter(|| reference::farthest_point_sample(&cloud, n / 4, 0).unwrap())
    });
    group.bench_function("fps-soa-kernel", |b| {
        b.iter(|| farthest_point_sample(&cloud, n / 4, 0).unwrap())
    });
    group.bench_function("knn-scalar-reference", |b| {
        b.iter(|| reference::k_nearest_neighbors(&cloud, &centers, 16).unwrap())
    });
    group.bench_function("knn-soa-kernel", |b| {
        b.iter(|| k_nearest_neighbors(&cloud, &centers, 16).unwrap())
    });
    group.bench_function("ballquery-scalar-reference", |b| {
        b.iter(|| reference::ball_query(&cloud, &centers, 0.4, 16).unwrap())
    });
    group.bench_function("ballquery-soa-kernel", |b| {
        b.iter(|| ball_query(&cloud, &centers, 0.4, 16).unwrap())
    });
    group.bench_function("blockfps-scalar-reference", |b| {
        b.iter(|| {
            bppo_reference::block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap()
        })
    });
    group.bench_function("blockfps-soa-kernel", |b| {
        b.iter(|| block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap())
    });
    group.finish();
}

/// Batched selection kernels across every available backend: tiles of
/// `QUERY_TILE` queries per candidate pass vs one query at a time (the
/// `per-query` rows call the same driver with single-query tiles, so only
/// the coordinate-load amortization differs).
fn bench_batched_selection(c: &mut Criterion) {
    let n = 4096;
    let cloud = scene_cloud(&SceneConfig::default(), n, 42);
    let queries: Vec<[f32; 3]> = (0..256)
        .map(|i| {
            let p = cloud.point(i * (n / 256));
            [p.x, p.y, p.z]
        })
        .collect();
    let (xs, ys, zs) = (cloud.xs(), cloud.ys(), cloud.zs());
    let (k, r_sq, num) = (16, 0.16f32, 16);

    let mut group = c.benchmark_group("batched_selection_4k");
    for backend in Backend::ALL {
        if !backend.is_available() {
            continue;
        }
        let name = backend.name();
        // One warmed scratch for every row, as a serving lane holds it.
        let mut scratch = SelectScratch::new();
        group.bench_function(format!("knn-batched-{name}"), |b| {
            b.iter(|| {
                let mut rows = 0usize;
                kernels::knn_select_batch_into(
                    backend,
                    xs,
                    ys,
                    zs,
                    &queries,
                    k,
                    &mut scratch,
                    |_, best| rows += best.len(),
                    |_| {},
                );
                rows
            })
        });
        group.bench_function(format!("knn-per-query-{name}"), |b| {
            b.iter(|| {
                let mut rows = 0usize;
                for q in &queries {
                    kernels::knn_select_batch_into(
                        backend,
                        xs,
                        ys,
                        zs,
                        std::slice::from_ref(q),
                        k,
                        &mut scratch,
                        |_, best| rows += best.len(),
                        |_| {},
                    );
                }
                rows
            })
        });
        // `num` on each selection path: the constant-width row (16) and the
        // count + shift rows the deeper network stages use (32, 64).
        for (num, row) in [
            (num, "ballquery-batched"),
            (32, "ballquery-batched-n32"),
            (64, "ballquery-batched-n64"),
        ] {
            group.bench_function(format!("{row}-{name}"), |b| {
                b.iter(|| {
                    let mut hits = 0usize;
                    kernels::ball_select_batch_into(
                        backend,
                        xs,
                        ys,
                        zs,
                        &queries,
                        r_sq,
                        num,
                        &mut scratch,
                        |_, best, _| hits += best.len(),
                    );
                    hits
                })
            });
        }
        group.bench_function(format!("ballquery-per-query-{name}"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for q in &queries {
                    kernels::ball_select_batch_into(
                        backend,
                        xs,
                        ys,
                        zs,
                        std::slice::from_ref(q),
                        r_sq,
                        num,
                        &mut scratch,
                        |_, best, _| hits += best.len(),
                    );
                }
                hits
            })
        });
    }
    group.finish();
}

/// The packed dense-layer GEMM per backend, on the two extreme PointNet++ (c)
/// layer shapes at 1k points: tall (every input point through a narrow
/// layer) and wide (few rows against 2 MB of weights, where panel packing
/// and the panel-outer loop order pay).
fn bench_linear_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("linear_gemm");
    for (shape, rows, cin, cout) in
        [("tall-1024x64x128", 1024, 64, 128), ("wide-64x512x1024", 64, 512, 1024)]
    {
        let weights = (0..cout * cin).map(|i| (i % 97) as f32 / 97.0 - 0.5);
        let packed = kernels::pack_linear_weights(weights, cin, cout);
        let bias = vec![0.01f32; cout];
        let input: Vec<f32> = (0..rows * cin).map(|i| (i % 89) as f32 / 89.0 - 0.5).collect();
        let mut out = vec![0.0f32; rows * cout];
        for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
            group.bench_function(format!("{shape}-{}", backend.name()), |b| {
                b.iter(|| {
                    kernels::linear_into(backend, &packed, &bias, cin, true, &input, &mut out);
                    out[0]
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_point_ops,
    bench_point_ops_64k,
    bench_scalar_vs_kernel,
    bench_batched_selection,
    bench_linear_gemm
);
criterion_main!(benches);
