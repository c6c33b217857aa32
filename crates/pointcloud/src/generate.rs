//! Synthetic point-cloud generators.
//!
//! The paper evaluates on ModelNet40 (objects), ShapeNet (part-labelled
//! objects) and S3DIS (indoor scenes). Those datasets are not redistributable
//! here, so this module generates clouds with the *same geometric statistics*
//! the paper's analysis depends on:
//!
//! * points sampled on **object surfaces** with consistent sampling frequency
//!   (the core assumption behind shape-aware partitioning, §III-B);
//! * **non-uniform density** across space (what breaks space-uniform
//!   partitioning, Fig. 3(b));
//! * **coplanar structure** in scenes — floors/walls where one axis does not
//!   split (§VI-D motivates cycling all three axes);
//! * **outliers** at 0.5–2.5 % of points (§VI-D measures exactly this range
//!   for S3DIS).
//!
//! All generators are deterministic given a seed.

use crate::cloud::PointCloud;
use crate::point::Point3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which synthetic dataset family to mimic (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// ModelNet40-like single objects, ~1K–4K points, classification.
    ModelNet,
    /// ShapeNet-like part-labelled objects, ~2K points, part segmentation.
    ShapeNet,
    /// S3DIS-like indoor rooms, 4K–289K points, semantic segmentation.
    S3dis,
}

impl DatasetKind {
    /// Canonical name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::ModelNet => "ModelNet40",
            DatasetKind::ShapeNet => "ShapeNet",
            DatasetKind::S3dis => "S3DIS",
        }
    }

    /// Generates a cloud of `n` points for this dataset family.
    pub fn generate(&self, n: usize, seed: u64) -> PointCloud {
        match self {
            DatasetKind::ModelNet => object_cloud(ObjectKind::from_seed(seed), n, seed),
            DatasetKind::ShapeNet => part_object(n, seed).cloud,
            DatasetKind::S3dis => scene_cloud(&SceneConfig::default(), n, seed),
        }
    }
}

/// Primitive object shapes used for ModelNet-like clouds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Unit-ish sphere surface.
    Sphere,
    /// Axis-aligned box surface.
    Box,
    /// Vertical cylinder surface (lateral + caps).
    Cylinder,
    /// A composite "airplane": fuselage cylinder + wing slabs + tail fin.
    Airplane,
    /// A composite "chair": seat + back slabs + four legs.
    Chair,
}

impl ObjectKind {
    /// All object kinds.
    pub const ALL: [ObjectKind; 5] = [
        ObjectKind::Sphere,
        ObjectKind::Box,
        ObjectKind::Cylinder,
        ObjectKind::Airplane,
        ObjectKind::Chair,
    ];

    /// Picks a deterministic object kind from a seed.
    pub fn from_seed(seed: u64) -> ObjectKind {
        Self::ALL[(seed % Self::ALL.len() as u64) as usize]
    }
}

fn sphere_point(rng: &mut StdRng, center: Point3, r: f32) -> Point3 {
    // Marsaglia method: uniform on the sphere surface.
    loop {
        let u: f32 = rng.gen_range(-1.0..1.0);
        let v: f32 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s < 1.0 && s > 1e-9 {
            let f = 2.0 * (1.0 - s).sqrt();
            return center + Point3::new(u * f, v * f, 1.0 - 2.0 * s) * r;
        }
    }
}

/// A rectangular surface patch (slab face) for composite objects.
#[derive(Debug, Clone, Copy)]
struct Patch {
    origin: Point3,
    u: Point3,
    v: Point3,
}

impl Patch {
    fn area(&self) -> f32 {
        // |u × v|
        let c = Point3::new(
            self.u.y * self.v.z - self.u.z * self.v.y,
            self.u.z * self.v.x - self.u.x * self.v.z,
            self.u.x * self.v.y - self.u.y * self.v.x,
        );
        c.norm()
    }

    fn sample(&self, rng: &mut StdRng) -> Point3 {
        let a: f32 = rng.gen_range(0.0..1.0);
        let b: f32 = rng.gen_range(0.0..1.0);
        self.origin + self.u * a + self.v * b
    }
}

fn box_patches(min: Point3, max: Point3) -> Vec<Patch> {
    let d = max - min;
    let ex = Point3::new(d.x, 0.0, 0.0);
    let ey = Point3::new(0.0, d.y, 0.0);
    let ez = Point3::new(0.0, 0.0, d.z);
    vec![
        Patch { origin: min, u: ex, v: ey },      // bottom (z = min)
        Patch { origin: min + ez, u: ex, v: ey }, // top
        Patch { origin: min, u: ex, v: ez },      // front (y = min)
        Patch { origin: min + ey, u: ex, v: ez }, // back
        Patch { origin: min, u: ey, v: ez },      // left (x = min)
        Patch { origin: min + ex, u: ey, v: ez }, // right
    ]
}

fn sample_patches(rng: &mut StdRng, patches: &[Patch], n: usize, out: &mut Vec<Point3>) {
    // Area-weighted patch selection keeps sampling frequency consistent
    // across the surface — the paper's "consistent sampling frequency".
    let total: f32 = patches.iter().map(Patch::area).sum();
    if total <= 0.0 || patches.is_empty() {
        return;
    }
    for _ in 0..n {
        let mut t: f32 = rng.gen_range(0.0..total);
        let mut chosen = patches[patches.len() - 1];
        for p in patches {
            let a = p.area();
            if t < a {
                chosen = *p;
                break;
            }
            t -= a;
        }
        out.push(chosen.sample(rng));
    }
}

fn cylinder_points(
    rng: &mut StdRng,
    base: Point3,
    r: f32,
    h: f32,
    n: usize,
    out: &mut Vec<Point3>,
) {
    let lateral = std::f32::consts::TAU * r * h;
    let caps = 2.0 * std::f32::consts::PI * r * r;
    for _ in 0..n {
        let pick: f32 = rng.gen_range(0.0..(lateral + caps));
        let theta: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
        if pick < lateral {
            let z: f32 = rng.gen_range(0.0..h);
            out.push(base + Point3::new(r * theta.cos(), r * theta.sin(), z));
        } else {
            let rr = r * rng.gen_range(0.0f32..1.0).sqrt();
            let z = if rng.gen_bool(0.5) { 0.0 } else { h };
            out.push(base + Point3::new(rr * theta.cos(), rr * theta.sin(), z));
        }
    }
}

/// Generates an object-like cloud of `n` points on the surface of `kind`.
///
/// Clouds are roughly centred at the origin with unit scale, matching
/// ModelNet40 preprocessing.
///
/// # Examples
///
/// ```
/// use fractalcloud_pointcloud::generate::{object_cloud, ObjectKind};
///
/// let cloud = object_cloud(ObjectKind::Airplane, 1024, 7);
/// assert_eq!(cloud.len(), 1024);
/// ```
pub fn object_cloud(kind: ObjectKind, n: usize, seed: u64) -> PointCloud {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0b1e);
    let mut pts = Vec::with_capacity(n);
    match kind {
        ObjectKind::Sphere => {
            for _ in 0..n {
                pts.push(sphere_point(&mut rng, Point3::ORIGIN, 0.5));
            }
        }
        ObjectKind::Box => {
            let patches = box_patches(Point3::splat(-0.5), Point3::splat(0.5));
            sample_patches(&mut rng, &patches, n, &mut pts);
        }
        ObjectKind::Cylinder => {
            cylinder_points(&mut rng, Point3::new(0.0, 0.0, -0.5), 0.3, 1.0, n, &mut pts);
        }
        ObjectKind::Airplane => {
            // Fuselage 55%, wings 30%, tail 15% — elongated, highly
            // non-cubic, a good stress test for axis cycling.
            let nf = n * 55 / 100;
            let nw = n * 30 / 100;
            let nt = n - nf - nw;
            cylinder_points(&mut rng, Point3::new(-0.5, 0.0, 0.0), 0.06, 1.0, nf, &mut pts);
            // cylinder_points builds along +z from base; rotate fuselage onto x.
            for p in pts.iter_mut() {
                *p = Point3::new(p.z - 0.5, p.y, p.x + 0.5);
            }
            let wings = box_patches(Point3::new(-0.15, -0.5, -0.02), Point3::new(0.1, 0.5, 0.02));
            sample_patches(&mut rng, &wings, nw, &mut pts);
            let tail = box_patches(Point3::new(0.38, -0.01, 0.0), Point3::new(0.5, 0.01, 0.22));
            sample_patches(&mut rng, &tail, nt, &mut pts);
        }
        ObjectKind::Chair => {
            let mut patches =
                box_patches(Point3::new(-0.25, -0.25, 0.0), Point3::new(0.25, 0.25, 0.05));
            patches
                .extend(box_patches(Point3::new(-0.25, 0.2, 0.05), Point3::new(0.25, 0.25, 0.55)));
            for (lx, ly) in [(-0.22, -0.22), (0.17, -0.22), (-0.22, 0.17), (0.17, 0.17)] {
                patches.extend(box_patches(
                    Point3::new(lx, ly, -0.45),
                    Point3::new(lx + 0.05, ly + 0.05, 0.0),
                ));
            }
            sample_patches(&mut rng, &patches, n, &mut pts);
        }
    }
    pts.truncate(n);
    while pts.len() < n {
        pts.push(sphere_point(&mut rng, Point3::ORIGIN, 0.5));
    }
    PointCloud::from_points(pts)
}

/// A part-labelled object cloud (ShapeNet-like).
#[derive(Debug, Clone, PartialEq)]
pub struct PartObject {
    /// The points.
    pub cloud: PointCloud,
    /// One part label per point.
    pub labels: Vec<u8>,
    /// Number of distinct parts.
    pub num_parts: usize,
}

/// Generates a part-labelled airplane-like object for part segmentation.
///
/// Parts: 0 = fuselage, 1 = wings, 2 = tail.
pub fn part_object(n: usize, seed: u64) -> PartObject {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a27);
    let nf = n * 55 / 100;
    let nw = n * 30 / 100;
    let nt = n - nf - nw;
    let mut pts = Vec::with_capacity(n);
    cylinder_points(&mut rng, Point3::new(-0.5, 0.0, 0.0), 0.06, 1.0, nf, &mut pts);
    for p in pts.iter_mut() {
        *p = Point3::new(p.z - 0.5, p.y, p.x + 0.5);
    }
    let wings = box_patches(Point3::new(-0.15, -0.5, -0.02), Point3::new(0.1, 0.5, 0.02));
    sample_patches(&mut rng, &wings, nw, &mut pts);
    let tail = box_patches(Point3::new(0.38, -0.01, 0.0), Point3::new(0.5, 0.01, 0.22));
    sample_patches(&mut rng, &tail, nt, &mut pts);
    let mut labels = vec![0u8; nf];
    labels.extend(std::iter::repeat_n(1u8, nw));
    labels.extend(std::iter::repeat_n(2u8, pts.len() - nf - nw));
    PartObject { cloud: PointCloud::from_points(pts), labels, num_parts: 3 }
}

/// Configuration for S3DIS-like indoor scene generation.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneConfig {
    /// Room extent in metres `(x, y, z)`.
    pub room: Point3,
    /// Fraction of points on floor/ceiling/walls (coplanar structure).
    pub structure_fraction: f32,
    /// Fraction of points in dense furniture clusters.
    pub cluster_fraction: f32,
    /// Fraction of points that are uniform outliers (paper: 0.5–2.5 %).
    pub outlier_fraction: f32,
    /// Number of furniture clusters.
    pub clusters: usize,
    /// Density skew: >1 concentrates cluster points near the dominant
    /// cluster, reproducing the uneven densities of real scans.
    pub density_skew: f32,
}

impl Default for SceneConfig {
    fn default() -> SceneConfig {
        SceneConfig {
            room: Point3::new(8.0, 6.0, 3.0),
            structure_fraction: 0.45,
            cluster_fraction: 0.53,
            outlier_fraction: 0.02,
            clusters: 6,
            density_skew: 2.0,
        }
    }
}

/// Generates an S3DIS-like indoor scene of `n` points.
///
/// The scene mixes coplanar structure (floor, ceiling, four walls), dense
/// furniture clusters with skewed per-cluster densities, and a small uniform
/// outlier fraction — the three statistics §VI-D of the paper identifies as
/// the hard cases for partitioning.
///
/// # Examples
///
/// ```
/// use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
///
/// let cloud = scene_cloud(&SceneConfig::default(), 4096, 42);
/// assert_eq!(cloud.len(), 4096);
/// ```
pub fn scene_cloud(config: &SceneConfig, n: usize, seed: u64) -> PointCloud {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce9e);
    let r = config.room;
    let n_outlier = ((n as f32) * config.outlier_fraction).round() as usize;
    let denom = config.structure_fraction + config.cluster_fraction;
    let n_struct = (((n - n_outlier) as f32) * config.structure_fraction / denom) as usize;
    let n_cluster = n - n_outlier - n_struct;

    let mut pts = Vec::with_capacity(n);

    // Structure: floor, ceiling, 4 walls — area-weighted coplanar patches.
    let patches = box_patches(Point3::ORIGIN, r);
    sample_patches(&mut rng, &patches, n_struct, &mut pts);

    // Furniture clusters: gaussian-ish blobs with skewed sizes.
    let mut weights: Vec<f32> = (0..config.clusters.max(1))
        .map(|i| 1.0 / ((i + 1) as f32).powf(config.density_skew))
        .collect();
    let wsum: f32 = weights.iter().sum();
    for w in weights.iter_mut() {
        *w /= wsum;
    }
    let centers: Vec<Point3> = (0..config.clusters.max(1))
        .map(|_| {
            Point3::new(
                rng.gen_range(0.5..r.x - 0.5),
                rng.gen_range(0.5..r.y - 0.5),
                rng.gen_range(0.2..(r.z * 0.6)),
            )
        })
        .collect();
    for (ci, (&w, &c)) in weights.iter().zip(centers.iter()).enumerate() {
        let remaining = (n - n_outlier).saturating_sub(pts.len());
        let m = if ci + 1 == centers.len() {
            remaining
        } else {
            (((n_cluster as f32) * w).round() as usize).min(remaining)
        };
        let sigma = rng.gen_range(0.15..0.45);
        for _ in 0..m {
            // Box-Muller pairs, clamped into the room.
            let g = |rng: &mut StdRng| -> f32 {
                let u1: f32 = rng.gen_range(1e-6..1.0);
                let u2: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
                (-2.0 * u1.ln()).sqrt() * u2.cos()
            };
            let p = Point3::new(
                (c.x + g(&mut rng) * sigma).clamp(0.0, r.x),
                (c.y + g(&mut rng) * sigma).clamp(0.0, r.y),
                (c.z + g(&mut rng) * sigma * 0.6).clamp(0.0, r.z),
            );
            pts.push(p);
            if pts.len() >= n - n_outlier {
                break;
            }
        }
        if pts.len() >= n - n_outlier {
            break;
        }
    }
    while pts.len() < n - n_outlier {
        let c = centers[0];
        pts.push(Point3::new(
            (c.x + rng.gen_range(-0.3..0.3)).clamp(0.0, r.x),
            (c.y + rng.gen_range(-0.3..0.3)).clamp(0.0, r.y),
            (c.z + rng.gen_range(-0.2..0.2)).clamp(0.0, r.z),
        ));
    }

    // Outliers: uniform in the room volume.
    for _ in 0..n_outlier {
        pts.push(Point3::new(
            rng.gen_range(0.0..r.x),
            rng.gen_range(0.0..r.y),
            rng.gen_range(0.0..r.z),
        ));
    }

    pts.truncate(n);
    // Shuffle so memory order is uncorrelated with space — the "unordered in
    // memory" premise of Fig. 6.
    for i in (1..pts.len()).rev() {
        let j = rng.gen_range(0..=i);
        pts.swap(i, j);
    }
    PointCloud::from_points(pts)
}

/// Generates `n` points uniformly inside the unit cube (a *worst* case for
/// shape-aware methods: no shape to exploit; used as a control in tests).
pub fn uniform_cube(n: usize, seed: u64) -> PointCloud {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xcafe);
    PointCloud::from_points(
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                )
            })
            .collect(),
    )
}

/// Attaches `channels` pseudo-random features to a cloud (deterministic in
/// `seed`); used to exercise gather/interpolation paths with real data.
pub fn with_random_features(mut cloud: PointCloud, channels: usize, seed: u64) -> PointCloud {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfea7);
    let feats: Vec<f32> = (0..cloud.len() * channels).map(|_| rng.gen_range(-1.0..1.0)).collect();
    cloud.set_features(feats, channels).expect("matching shape by construction");
    cloud
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let a = object_cloud(ObjectKind::Sphere, 256, 3);
        let b = object_cloud(ObjectKind::Sphere, 256, 3);
        assert_eq!(a, b);
        let c = object_cloud(ObjectKind::Sphere, 256, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn object_cloud_has_exact_count_and_finite_points() {
        for kind in ObjectKind::ALL {
            let c = object_cloud(kind, 500, 11);
            assert_eq!(c.len(), 500, "{kind:?}");
            assert!(c.iter().all(|p| p.is_finite()), "{kind:?}");
        }
    }

    #[test]
    fn sphere_points_lie_on_surface() {
        let c = object_cloud(ObjectKind::Sphere, 200, 1);
        for p in &c {
            assert!((p.norm() - 0.5).abs() < 1e-3, "{p} not on r=0.5 sphere");
        }
    }

    #[test]
    fn scene_cloud_fills_room_and_respects_count() {
        let cfg = SceneConfig::default();
        let c = scene_cloud(&cfg, 2000, 9);
        assert_eq!(c.len(), 2000);
        let b = c.bounds().unwrap();
        assert!(b.max().x <= cfg.room.x + 1e-4);
        assert!(b.min().x >= -1e-4);
    }

    #[test]
    fn scene_cloud_is_denser_than_uniform_somewhere() {
        // The scene must have non-uniform density: count points in the
        // densest 1/64 sub-box and compare with the uniform expectation.
        let cfg = SceneConfig::default();
        let c = scene_cloud(&cfg, 8192, 5);
        let b = c.bounds().unwrap();
        let mut grid = vec![0usize; 64];
        for p in &c {
            let gx =
                (((p.x - b.min().x) / (b.extent(crate::point::Axis::X) + 1e-6)) * 4.0) as usize;
            let gy =
                (((p.y - b.min().y) / (b.extent(crate::point::Axis::Y) + 1e-6)) * 4.0) as usize;
            let gz =
                (((p.z - b.min().z) / (b.extent(crate::point::Axis::Z) + 1e-6)) * 4.0) as usize;
            grid[gx.min(3) * 16 + gy.min(3) * 4 + gz.min(3)] += 1;
        }
        let max = *grid.iter().max().unwrap();
        let uniform = c.len() / 64;
        assert!(
            max > uniform * 3,
            "scene should be strongly non-uniform: max cell {max}, uniform {uniform}"
        );
    }

    #[test]
    fn part_object_labels_every_point() {
        let po = part_object(1000, 2);
        assert_eq!(po.labels.len(), po.cloud.len());
        assert_eq!(po.num_parts, 3);
        for l in &po.labels {
            assert!((*l as usize) < po.num_parts);
        }
        // all three parts present
        for part in 0..3u8 {
            assert!(po.labels.contains(&part), "part {part} missing");
        }
    }

    #[test]
    fn dataset_kind_dispatches() {
        for kind in [DatasetKind::ModelNet, DatasetKind::ShapeNet, DatasetKind::S3dis] {
            let c = kind.generate(512, 1);
            assert_eq!(c.len(), 512, "{}", kind.name());
        }
    }

    #[test]
    fn uniform_cube_is_inside_unit_cube() {
        let c = uniform_cube(300, 0);
        for p in &c {
            assert!((0.0..=1.0).contains(&p.x));
            assert!((0.0..=1.0).contains(&p.y));
            assert!((0.0..=1.0).contains(&p.z));
        }
    }

    #[test]
    fn with_random_features_shapes_correctly() {
        let c = with_random_features(uniform_cube(10, 0), 4, 1);
        assert_eq!(c.channels(), 4);
        assert_eq!(c.features().len(), 40);
    }
}
