//! Golden-bits test: what the block-parallel point operations return for
//! the four fixed clouds of `golden_partition.rs` is pinned to digests
//! recorded at the last commit that carried two ways of turning per-block
//! work into one result (a streaming loop and a per-block task fan-out,
//! which agreed bit for bit). One block driver has no second side to
//! compare against at a given schedule; a recorded digest shows it still
//! computes what the repo computed before — any change to a sample order,
//! a neighbour row, a `found` count, a counter, the critical-path tie rule,
//! the reuse statistics or the LOD schedule moves these bits. Each digest
//! is asserted sequential and fanned out, and rides every CI leg (kernel
//! backend, `FRACTALCLOUD_THREADS`, profile).

use fractalcloud_core::{
    block_gather, block_interpolate, fnv1a64, BppoConfig, Pipeline, PipelineConfig, FNV1A64_SEED,
};
use fractalcloud_pointcloud::generate::{
    object_cloud, scene_cloud, with_random_features, ObjectKind, SceneConfig,
};
use fractalcloud_pointcloud::ops::OpCounters;
use fractalcloud_pointcloud::{Point3, PointCloud};

/// FNV-1a word stream; lists are length-prefixed so no two results share
/// one.
struct Digest(u64);

impl Digest {
    fn put(&mut self, w: u64) {
        self.0 = fnv1a64(self.0, w);
    }

    fn list(&mut self, v: &[usize]) {
        self.put(v.len() as u64);
        v.iter().for_each(|&i| self.put(i as u64));
    }

    fn floats(&mut self, v: &[f32]) {
        self.put(v.len() as u64);
        v.iter().for_each(|f| self.put(u64::from(f.to_bits())));
    }

    fn counters(&mut self, c: &OpCounters) {
        [
            c.distance_evals,
            c.comparisons,
            c.coord_reads,
            c.feature_reads,
            c.writes,
            c.skipped,
            c.macs_moved,
            c.macs_saved,
            c.gather_bytes,
        ]
        .into_iter()
        .for_each(|w| self.put(w));
    }
}

/// Digests of one cloud at one schedule: the pipeline's output, then block
/// interpolation back onto the cloud from the sampled points, then a block
/// gather of the grouped rows.
fn digests(cloud: &PointCloud, threshold: usize, parallel: bool) -> [u64; 3] {
    let cloud = with_random_features(cloud.clone(), 4, 7);
    let pipe = Pipeline::new(PipelineConfig { threshold, ..Default::default() }).unwrap();
    let built = pipe.partition(&cloud).unwrap();
    let out = pipe.run_with_partition(&cloud, &built, parallel).unwrap();
    let bppo = if parallel { BppoConfig::default() } else { BppoConfig::sequential() };

    let mut p = Digest(FNV1A64_SEED);
    p.list(&out.sampled.indices);
    p.put(out.sampled.per_block.len() as u64);
    out.sampled.per_block.iter().for_each(|row| p.list(row));
    p.counters(&out.sampled.counters);
    p.counters(&out.sampled.critical_path);
    p.list(&out.grouped.indices);
    p.list(&out.grouped.center_indices);
    p.list(&out.grouped.found);
    p.put(out.grouped.num as u64);
    p.counters(&out.grouped.counters);
    p.counters(&out.grouped.critical_path);
    p.put(out.grouped.reuse.shared_loads);
    p.put(out.grouped.reuse.unshared_loads);
    p.put(out.blocks as u64);
    p.put(out.order.schedule.len() as u64);
    out.order.schedule.iter().for_each(|&b| p.put(u64::from(b)));
    p.list(&out.order.block_sizes);
    p.list(&out.order.cand_sizes);

    // Sources: the sampled points carrying a smooth field; block b's source
    // rows are its consecutive range of the concatenation.
    let pts: Vec<Point3> = out.sampled.indices.iter().map(|&i| cloud.point(i)).collect();
    let feats: Vec<f32> = pts.iter().flat_map(|q| [q.x + q.y, q.z]).collect();
    let sources = PointCloud::from_points_features(pts, feats, 2).unwrap();
    let mut rows = Vec::with_capacity(out.sampled.per_block.len());
    let mut cursor = 0usize;
    for b in &out.sampled.per_block {
        rows.push((cursor..cursor + b.len()).collect::<Vec<usize>>());
        cursor += b.len();
    }
    let r = block_interpolate(&cloud, &built.partition, &sources, &rows, 3, &bppo).unwrap();
    let mut i = Digest(FNV1A64_SEED);
    i.floats(&r.features);
    i.list(&r.target_indices);
    i.list(&r.neighbor_indices);
    i.put(r.k as u64);
    i.put(r.channels as u64);
    i.counters(&r.counters);
    i.counters(&r.critical_path);
    i.put(r.reuse.shared_loads);
    i.put(r.reuse.unshared_loads);

    // Gather: block b resolves the neighbour rows of its own centers.
    let num = out.grouped.num;
    let mut per_block = Vec::with_capacity(out.sampled.per_block.len());
    let mut row = 0usize;
    for centers in &out.sampled.per_block {
        per_block.push(out.grouped.indices[row * num..(row + centers.len()) * num].to_vec());
        row += centers.len();
    }
    let r = block_gather(&cloud, &built.partition, &per_block, num, &bppo).unwrap();
    let mut g = Digest(FNV1A64_SEED);
    g.floats(&r.data);
    g.put(r.channels as u64);
    g.put(r.num as u64);
    g.counters(&r.counters);
    g.put(r.locality.own_block);
    g.put(r.locality.parent_space);
    g.put(r.locality.remote);

    [p.0, i.0, g.0]
}

fn assert_golden(name: &str, cloud: &PointCloud, threshold: usize, golden: [u64; 3]) {
    for parallel in [false, true] {
        let got = digests(cloud, threshold, parallel);
        assert_eq!(
            got, golden,
            "{name}, parallel = {parallel}: [pipeline, interpolate, gather] moved off the \
             recorded bits (got {got:#018x?})"
        );
    }
}

#[test]
fn scene_64k_bppo_matches_the_recorded_bits() {
    let cloud = scene_cloud(&SceneConfig::default(), 65_536, 1);
    assert_golden(
        "scene 64k / th 256",
        &cloud,
        256,
        [0x4c9a_1a19_70f3_fb7c, 0x9965_5e0c_bd83_f101, 0x982a_221f_dcff_8895],
    );
}

#[test]
fn scene_20k_bppo_matches_the_recorded_bits() {
    let cloud = scene_cloud(&SceneConfig::default(), 20_000, 11);
    assert_golden(
        "scene 20k / th 128",
        &cloud,
        128,
        [0x17af_9d20_597f_380a, 0xad73_7b44_269a_14e8, 0x622d_7852_64b8_249b],
    );
}

#[test]
fn duplicates_and_collinear_bppo_matches_the_recorded_bits() {
    let mut pts = vec![Point3::splat(3.0); 500];
    pts.extend((0..500).map(|i| Point3::new(i as f32, -(i as f32), 0.5)));
    assert_golden(
        "duplicates + line / th 16",
        &PointCloud::from_points(pts),
        16,
        [0xe0b3_ac79_c271_6028, 0x9129_1be0_d0b9_9aaa, 0xa7e3_6c3a_99cf_c491],
    );
}

#[test]
fn sphere_1k_bppo_matches_the_recorded_bits() {
    let cloud = object_cloud(ObjectKind::Sphere, 1024, 5);
    assert_golden(
        "sphere 1k / th 64",
        &cloud,
        64,
        [0x60d0_8d42_cdeb_edcc, 0xd0a4_95c4_fd5c_897d, 0x60bb_73e4_a4ae_be31],
    );
}
