//! Scalar reference implementations of the global point operations.
//!
//! These are the seed's original per-point formulations: they materialize a
//! [`Point3`] per candidate and bump [`OpCounters`] fields inside every
//! inner loop. They are deliberately *not* fast — they exist as the
//! equivalence baseline for the chunked SoA kernel path in
//! [`kernels`](fractalcloud_pointcloud::kernels): property tests assert that
//! the optimized operations return identical indices, distances, and
//! counters.
//!
//! Each function has the same signature and result type as its optimized
//! counterpart in [`fractalcloud_pointcloud::ops`].

// The seed's formulations are preserved verbatim — equivalence against them
// is the whole point — so style lints on the loop shapes are silenced. Only
// the parameter contracts are shared with the optimized operations.
#![allow(clippy::needless_range_loop)]

use fractalcloud_pointcloud::ops::{
    check_ball_query, check_fps, check_k, BallQueryResult, FpsResult, InterpolationResult,
    KnnResult, OpCounters,
};
use fractalcloud_pointcloud::{Error, Point3, PointCloud, Result};

/// Scalar global farthest point sampling; see
/// [`ops::farthest_point_sample`](fractalcloud_pointcloud::ops::farthest_point_sample).
///
/// # Errors
///
/// Same contract as the optimized operation.
pub fn farthest_point_sample(cloud: &PointCloud, m: usize, start: usize) -> Result<FpsResult> {
    let n = cloud.len();
    check_fps(n, m, start)?;

    let mut counters = OpCounters::new();
    let mut indices = Vec::with_capacity(m);
    if m == 0 {
        return Ok(FpsResult { indices, counters });
    }

    // dist[i] = squared distance from point i to the nearest sampled point.
    let mut dist = vec![f32::INFINITY; n];
    let mut current = start;
    indices.push(current);
    counters.writes += 1;

    for _ in 1..m {
        dist[current] = f32::NEG_INFINITY; // pinned: a sampled point never wins again
        let latest = cloud.point(current);
        let mut best = 0usize;
        let mut best_d = f32::NEG_INFINITY;
        for i in 0..n {
            // Global traversal: every point is read every iteration — the
            // O(n·m) memory traffic the paper attributes to original FPS.
            counters.coord_reads += 1;
            let d = cloud.point(i).distance_sq(latest);
            counters.distance_evals += 1;
            if d < dist[i] {
                dist[i] = d;
            }
            counters.comparisons += 1;
            if dist[i] > best_d {
                best_d = dist[i];
                best = i;
            }
            counters.comparisons += 1;
        }
        current = best;
        indices.push(current);
        counters.writes += 1;
    }

    Ok(FpsResult { indices, counters })
}

/// Scalar brute-force KNN; see
/// [`ops::k_nearest_neighbors`](fractalcloud_pointcloud::ops::k_nearest_neighbors).
///
/// # Errors
///
/// Same contract as the optimized operation.
pub fn k_nearest_neighbors(
    candidates: &PointCloud,
    centers: &[Point3],
    k: usize,
) -> Result<KnnResult> {
    check_k(candidates.len(), k)?;

    let mut counters = OpCounters::new();
    let mut indices = Vec::with_capacity(centers.len() * k);
    let mut distances = Vec::with_capacity(centers.len() * k);

    for &c in centers {
        // Sorted insertion buffer of (distance, index), ascending — the
        // hardware top-k unit with merge-sort selection.
        let mut best: Vec<(f32, usize)> = Vec::with_capacity(k + 1);
        for i in 0..candidates.len() {
            counters.coord_reads += 1;
            let d = candidates.point(i).distance_sq(c);
            counters.distance_evals += 1;
            counters.comparisons += 1;
            // A NaN distance is never selected.
            if d.is_nan() || (best.len() == k && d >= best[k - 1].0) {
                continue;
            }
            let pos = best.partition_point(|&(bd, _)| bd <= d);
            counters.comparisons += (best.len() as f64).log2().max(1.0) as u64;
            best.insert(pos, (d, i));
            if best.len() > k {
                best.pop();
            }
        }
        // A row left short by NaN distances repeats its last entry; an
        // empty one is candidate 0 at +inf.
        let last = best.last().copied().unwrap_or((f32::INFINITY, 0));
        best.resize(k, last);
        for &(d, i) in &best {
            indices.push(i);
            distances.push(d);
            counters.writes += 1;
        }
    }

    Ok(KnnResult { indices, distances_sq: distances, k, counters })
}

/// Scalar global ball query; see [`ops::ball_query`](fractalcloud_pointcloud::ops::ball_query).
///
/// # Errors
///
/// Same contract as the optimized operation.
pub fn ball_query(
    candidates: &PointCloud,
    centers: &[Point3],
    radius: f32,
    num: usize,
) -> Result<BallQueryResult> {
    check_ball_query(radius, num)?;

    let r_sq = radius * radius;
    let mut counters = OpCounters::new();
    let mut indices = Vec::with_capacity(centers.len() * num);
    let mut found = Vec::with_capacity(centers.len());

    for &c in centers {
        // Top-`num` nearest within the radius (sorted insertion buffer, the
        // hardware top-k structure), plus the overall-nearest fallback.
        let mut best: Vec<(f32, usize)> = Vec::with_capacity(num + 1);
        let mut nearest = (f32::INFINITY, usize::MAX);
        for i in 0..candidates.len() {
            counters.coord_reads += 1;
            let d = candidates.point(i).distance_sq(c);
            counters.distance_evals += 1;
            counters.comparisons += 1;
            if d < nearest.0 {
                nearest = (d, i);
            }
            if d <= r_sq && (best.len() < num || d < best[best.len() - 1].0) {
                let pos = best.partition_point(|&(bd, _)| bd <= d);
                best.insert(pos, (d, i));
                if best.len() > num {
                    best.pop();
                }
            }
        }
        found.push(best.len());
        let mut row: Vec<usize> = best.iter().map(|&(_, i)| i).collect();
        if row.is_empty() {
            // No candidate in radius: fall back to the globally nearest
            // candidate, or candidate 0 when none is at a finite distance, so
            // downstream gathers stay well-formed.
            row.push(if nearest.1 == usize::MAX && !candidates.is_empty() { 0 } else { nearest.1 });
        }
        let first = row[0];
        while row.len() < num {
            row.push(first);
        }
        counters.writes += num as u64;
        indices.extend_from_slice(&row);
    }

    Ok(BallQueryResult { indices, found, num, counters })
}

/// Scalar IDW interpolation (embedding the scalar KNN); see
/// [`ops::interpolate_features`](fractalcloud_pointcloud::ops::interpolate_features).
///
/// # Errors
///
/// Same contract as the optimized operation.
pub fn interpolate_features(
    sources: &PointCloud,
    targets: &[Point3],
    k: usize,
) -> Result<InterpolationResult> {
    if sources.channels() == 0 {
        return Err(Error::InvalidParameter {
            name: "sources",
            message: "source cloud must carry features to interpolate".into(),
        });
    }
    let knn = k_nearest_neighbors(sources, targets, k)?;
    let channels = sources.channels();
    let mut counters = knn.counters;
    let mut features = vec![0.0f32; targets.len() * channels];

    const EPS: f32 = 1e-10;
    for t in 0..targets.len() {
        let idx_row = knn.row(t);
        let d_row = knn.distance_row(t);
        // Exact hit: copy features directly.
        if d_row[0] <= EPS {
            counters.feature_reads += 1;
            features[t * channels..(t + 1) * channels].copy_from_slice(sources.feature(idx_row[0]));
            counters.writes += 1;
            continue;
        }
        let weights: Vec<f32> = d_row.iter().map(|&d| 1.0 / (d + EPS)).collect();
        let wsum: f32 = weights.iter().sum();
        let out = &mut features[t * channels..(t + 1) * channels];
        for (&i, &w) in idx_row.iter().zip(&weights) {
            counters.feature_reads += 1;
            let f = sources.feature(i);
            let wn = w / wsum;
            for (o, &fv) in out.iter_mut().zip(f) {
                *o += wn * fv;
            }
        }
        counters.writes += 1;
    }

    Ok(InterpolationResult { features, channels, counters })
}
