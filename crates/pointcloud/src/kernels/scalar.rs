//! Scalar kernel backend: straight per-point loops.
//!
//! The portable floor of the dispatch layer and the debugging target of
//! `FRACTALCLOUD_KERNEL=scalar`. Each function performs exactly the same
//! `f32` operations per candidate as the [`soa`](super::soa) and
//! [`avx2`](super::avx2) backends (same expression, same association, no
//! FMA contraction), so results are bit-identical; only the loop structure
//! differs.

use super::LINEAR_PANEL as PANEL;

/// Per-point squared distances; see [`kernels::distances_sq`](super::distances_sq).
pub fn distances_sq(xs: &[f32], ys: &[f32], zs: &[f32], q: [f32; 3], out: &mut [f32]) {
    for i in 0..xs.len() {
        let dx = xs[i] - q[0];
        let dy = ys[i] - q[1];
        let dz = zs[i] - q[2];
        out[i] = dx * dx + dy * dy + dz * dz;
    }
}

/// Fused tile of per-query distance rows + threshold prefilter masks over
/// one chunk; see the dispatching `knn_prefilter_tile` call site in
/// [`kernels`](super) for the contract (`out` rows strided by
/// [`CHUNK`](super::CHUNK); mask bit `j` set iff `!(row[j] >= threshold)`,
/// so a NaN threshold keeps every lane).
pub fn knn_prefilter_tile(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    queries: &[[f32; 3]],
    thresholds: &[f32],
    out: &mut [f32],
    masks: &mut [u64],
) {
    for (qi, q) in queries.iter().enumerate() {
        let thr = thresholds[qi];
        let row = &mut out[qi * super::CHUNK..qi * super::CHUNK + xs.len()];
        let mut mask = 0u64;
        for j in 0..xs.len() {
            let dx = xs[j] - q[0];
            let dy = ys[j] - q[1];
            let dz = zs[j] - q[2];
            let d = dx * dx + dy * dy + dz * dz;
            row[j] = d;
            // `!(d >= thr)` keeps NaN distances (and everything under a NaN
            // threshold) on the insert path, like the reference's `>=`-skip.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            {
                mask |= u64::from(!(d >= thr)) << j;
            }
        }
        masks[qi] = mask;
    }
}

/// Fused relax + argmax; see [`kernels::fps_relax_argmax`](super::fps_relax_argmax).
///
/// The running strict-`>` argmax keeps the first maximum, matching the
/// chunked backends' first-occurrence selection; the `min` select idiom
/// leaves `dist` unchanged for NaN candidate distances.
pub fn fps_relax_argmax(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    q: [f32; 3],
    dist: &mut [f32],
) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for i in 0..xs.len() {
        let dx = xs[i] - q[0];
        let dy = ys[i] - q[1];
        let dz = zs[i] - q[2];
        let nd = dx * dx + dy * dy + dz * dz;
        let cur = dist[i];
        let v = if nd < cur { nd } else { cur };
        dist[i] = v;
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Segmented max-aggregation over neighbor index lists; see
/// [`kernels::segmented_max_into`](super::segmented_max_into) for the
/// contract. Straight per-segment loops with the branchy `if v > acc`
/// update — bit-identical to the chunked backends' select idiom (NaN
/// feature values never overwrite the accumulator, `-0.0`/`0.0` ties keep
/// the accumulator).
pub fn segmented_max(
    features: &[f32],
    channels: usize,
    indices: &[usize],
    counts: &[usize],
    num: usize,
    out: &mut [f32],
) {
    for (c, &count) in counts.iter().enumerate() {
        let orow = &mut out[c * channels..c * channels + channels];
        orow.fill(f32::NEG_INFINITY);
        for &i in &indices[c * num..c * num + count] {
            let frow = &features[i * channels..i * channels + channels];
            for ch in 0..channels {
                let v = frow[ch];
                if v > orow[ch] {
                    orow[ch] = v;
                }
            }
        }
    }
}

/// Dense layer over packed weight panels; see
/// [`kernels::linear_into`](super::linear_into) for the contract. One output
/// element at a time, straight off the panel layout: the accumulator starts
/// at the bias and takes `w·x` in ascending `i` — the order contract every
/// other backend reproduces lane-wise.
pub fn linear(
    packed: &[f32],
    bias: &[f32],
    cin: usize,
    relu: bool,
    input: &[f32],
    out: &mut [f32],
) {
    let cout = bias.len();
    for (x, y) in input.chunks_exact(cin).zip(out.chunks_exact_mut(cout)) {
        for (o, yo) in y.iter_mut().enumerate() {
            let panel = &packed[(o / PANEL) * cin * PANEL..][..cin * PANEL];
            let mut acc = bias[o];
            for (w, xi) in panel.chunks_exact(PANEL).zip(x) {
                acc += w[o % PANEL] * xi;
            }
            *yo = if !relu || acc > 0.0 { acc } else { 0.0 };
        }
    }
}

/// Fused distance + radius-compare + acceptance-prefilter pass of one chunk
/// against every query of the tile (rows of `out` strided by
/// [`CHUNK`](super::CHUNK)), writing per-query hit masks and chunk minima.
/// See the dispatching `ball_prefilter_tile` call site in [`kernels`](super)
/// for the contract. Per-query `mins` hold the chunk's minimum distance
/// only; the caller locates the first-occurrence lane lazily (and only when
/// the chunk improves the running nearest) by rescanning the stored row.
#[allow(clippy::too_many_arguments)]
pub fn ball_prefilter_tile(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    queries: &[[f32; 3]],
    r_sq: f32,
    thresholds: &[f32],
    out: &mut [f32],
    masks: &mut [u64],
    mins: &mut [f32],
) {
    for (qi, q) in queries.iter().enumerate() {
        let thr = thresholds[qi];
        let row = &mut out[qi * super::CHUNK..qi * super::CHUNK + xs.len()];
        let mut mask = 0u64;
        let mut min = f32::INFINITY;
        for i in 0..xs.len() {
            let dx = xs[i] - q[0];
            let dy = ys[i] - q[1];
            let dz = zs[i] - q[2];
            let d = dx * dx + dy * dy + dz * dz;
            row[i] = d;
            // `!(d >= thr)` (not `d < thr`): the buffer-filling sentinel is
            // a NaN threshold, which must keep every in-radius lane —
            // including an overflow-to-+inf distance the reference accepts
            // as a hit.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            {
                mask |= u64::from(d <= r_sq && !(d >= thr)) << i;
            }
            if d < min {
                min = d;
            }
        }
        masks[qi] = mask;
        mins[qi] = min;
    }
}

/// One chunk's hit lanes into a query's key row, one
/// [`insert_key_pass`](super::insert_key_pass) per lane on the row in
/// memory; see [`kernels::ball_insert_hits`](super::ball_insert_hits).
pub fn ball_insert_hits<const W: usize>(row: &mut [u64; W], dists: &[f32], mask: u64, base: usize) {
    for l in super::mask_lanes(mask) {
        super::insert_key_pass(row, super::pack_hit(dists[l], base + l));
    }
}

/// Counts the coordinates `<= mid`; see [`kernels::count_le`](super::count_le).
/// The caller bounds the run by `u32::MAX`, so the 32-bit sum cannot wrap —
/// and 32-bit lanes count twice as many elements per vector as `usize`
/// ones once the compiler vectorizes the loop.
pub fn count_le(coords: &[f32], mid: f32) -> usize {
    coords.iter().map(|&c| u32::from(c <= mid)).sum::<u32>() as usize
}

/// Stable two-way scatter; see [`kernels::scatter_le`](super::scatter_le).
pub fn scatter_le(
    key: &[f32],
    mid: f32,
    l_len: usize,
    src: [&[f32]; 3],
    src_idx: &[u32],
    dst: [&mut [f32]; 3],
    dst_idx: &mut [u32],
) {
    scatter_le_from((0, 0, l_len), key, mid, src, src_idx, dst, dst_idx);
}

/// [`scatter_le`] resumed at source element `k` with the left and right
/// cursors at `l` and `r` — the whole scatter from `(0, 0, l_len)`, and the
/// tail the AVX2 backend hands over after its last full vector. Branch-free
/// per element: the destination slot is a select, the cursors advance by
/// the compare. Every slice is cut to one length up front, so one bounds
/// check covers an element's four stores.
pub(super) fn scatter_le_from(
    (k, mut l, mut r): (usize, usize, usize),
    key: &[f32],
    mid: f32,
    [sx, sy, sz]: [&[f32]; 3],
    src_idx: &[u32],
    [dx, dy, dz]: [&mut [f32]; 3],
    dst_idx: &mut [u32],
) {
    let n = key.len();
    let (sx, sy, sz, si) = (&sx[..n], &sy[..n], &sz[..n], &src_idx[..n]);
    let (dx, dy, dz, di) = (&mut dx[..n], &mut dy[..n], &mut dz[..n], &mut dst_idx[..n]);
    for k in k..n {
        let le = key[k] <= mid;
        let j = if le { l } else { r };
        (dx[j], dy[j], dz[j], di[j]) = (sx[k], sy[k], sz[k], si[k]);
        l += usize::from(le);
        r += usize::from(!le);
    }
}

/// `(min, max)` before the zero-tie rule; see
/// [`kernels::extrema`](super::extrema). The sequential fold from the first
/// element that the lane-wise backends reproduce.
pub fn extrema(v: &[f32]) -> (f32, f32) {
    v.iter().fold((v[0], v[0]), |(lo, hi), &c| (lo.min(c), hi.max(c)))
}
