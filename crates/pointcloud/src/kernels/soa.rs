//! SoA kernel backend: chunked, auto-vectorizable loops — the software
//! analogue of the RSPU distance units, and the portable fast path of the
//! dispatch layer (also the fallback wherever AVX2 is unavailable).
//!
//! Work proceeds in chunks of [`CHUNK`] lanes; within a chunk, distance
//! evaluation is a straight-line loop over the slices built from select
//! idioms (`if a < b { a } else { b }`) the compiler lowers to vector
//! min/max. Branchy selection consumes the chunk's results afterwards.
//! The partition count and scatter and the key-row insertion are already
//! branch-free straight-line loops, so they have no chunked form.

use super::{CHUNK, LINEAR_PANEL as PANEL, SEGMENT_STRIP as STRIP};

/// Chunked squared distances; see [`kernels::distances_sq`](super::distances_sq).
pub fn distances_sq(xs: &[f32], ys: &[f32], zs: &[f32], q: [f32; 3], out: &mut [f32]) {
    let n = xs.len();
    let mut base = 0;
    while base < n {
        let len = CHUNK.min(n - base);
        let (xs, ys, zs) = (&xs[base..base + len], &ys[base..base + len], &zs[base..base + len]);
        let out = &mut out[base..base + len];
        for j in 0..len {
            let dx = xs[j] - q[0];
            let dy = ys[j] - q[1];
            let dz = zs[j] - q[2];
            out[j] = dx * dx + dy * dy + dz * dz;
        }
        base += len;
    }
}

/// Fused tile of per-query distance rows + threshold prefilter masks over
/// one chunk; see the dispatching `knn_prefilter_tile` call site in
/// [`kernels`](super) for the contract (`out` rows strided by [`CHUNK`];
/// mask bit `j` set iff `!(row[j] >= threshold)`, so a NaN threshold keeps
/// every lane).
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
        let row = &mut out[qi * CHUNK..qi * CHUNK + xs.len()];
        distances_sq(xs, ys, zs, *q, row);
        // Branch-free mask build over the precomputed row; the `!(d >= thr)`
        // form keeps NaN distances (and everything under a NaN threshold)
        // on the insert path, like the oracle's `>=`-skip.
        let mut mask = 0u64;
        for (j, &d) in row.iter().enumerate() {
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            {
                mask |= u64::from(!(d >= thr)) << j;
            }
        }
        masks[qi] = mask;
    }
}

/// Fused chunked relax + argmax; see
/// [`kernels::fps_relax_argmax`](super::fps_relax_argmax).
///
/// Per chunk this computes squared distances branch-free, lowers `dist`
/// with `f32::min` (equivalent to the oracle's `if d < dist[i]` update,
/// including for NaN distances, which leave `dist` unchanged), then scans
/// the chunk for the running argmax.
pub fn fps_relax_argmax(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    q: [f32; 3],
    dist: &mut [f32],
) -> usize {
    let n = xs.len();

    // Fused chunked pass (branch-free, vectorizable): distances, the
    // min-relaxation, and per-chunk maxima in one stream over the data.
    // The select idioms `if nd < cur { nd } else { cur }` / `if v > m { v }
    // else { m }` compile to vector min/max; the min keeps the old value
    // for NaN distances, matching the oracle's `if d < dist[i]` update.
    // LANES independent running maxima break the floating-point dependency
    // chain a single running max would create, and the fixed-size lane
    // arrays (`chunks_exact` + `try_into`) eliminate bounds checks from
    // the inner loop.
    const LANES: usize = 8;
    let mut cmax = f32::NEG_INFINITY;
    let mut cmax_chunk_base = 0usize;
    let mut base = 0usize;
    while base < n {
        let end = (base + CHUNK).min(n);
        let (xb, yb, zb) = (&xs[base..end], &ys[base..end], &zs[base..end]);
        let db = &mut dist[base..end];
        let mut acc = [f32::NEG_INFINITY; LANES];
        let mut d_it = db.chunks_exact_mut(LANES);
        let mut x_it = xb.chunks_exact(LANES);
        let mut y_it = yb.chunks_exact(LANES);
        let mut z_it = zb.chunks_exact(LANES);
        for d8 in d_it.by_ref() {
            let d8: &mut [f32; LANES] = d8.try_into().expect("exact chunk");
            let x8: &[f32; LANES] = x_it.next().expect("same length").try_into().unwrap();
            let y8: &[f32; LANES] = y_it.next().expect("same length").try_into().unwrap();
            let z8: &[f32; LANES] = z_it.next().expect("same length").try_into().unwrap();
            for l in 0..LANES {
                let dx = x8[l] - q[0];
                let dy = y8[l] - q[1];
                let dz = z8[l] - q[2];
                let nd = dx * dx + dy * dy + dz * dz;
                let cur = d8[l];
                let v = if nd < cur { nd } else { cur };
                d8[l] = v;
                acc[l] = if v > acc[l] { v } else { acc[l] };
            }
        }
        let mut cm = f32::NEG_INFINITY;
        let tail = d_it.into_remainder();
        let (xt, yt, zt) = (x_it.remainder(), y_it.remainder(), z_it.remainder());
        for (l, cur) in tail.iter_mut().enumerate() {
            let dx = xt[l] - q[0];
            let dy = yt[l] - q[1];
            let dz = zt[l] - q[2];
            let nd = dx * dx + dy * dy + dz * dz;
            let v = if nd < *cur { nd } else { *cur };
            *cur = v;
            cm = if v > cm { v } else { cm };
        }
        for &m in &acc {
            cm = if m > cm { m } else { cm };
        }
        // Strict `>`: only a chunk that *improves* the global maximum is
        // recorded, so `cmax_chunk_base` ends on the first chunk attaining
        // it (later tying chunks don't displace it).
        if cm > cmax {
            cmax = cm;
            cmax_chunk_base = base;
        }
        base = end;
    }

    // Selection: the recorded chunk contains the first occurrence of the
    // global maximum (distances are never -0.0, so value equality is
    // exact); a short in-chunk scan finds it — the same winner as the
    // oracle's strict `>` running argmax (first maximum wins on ties).
    let mut best = cmax_chunk_base;
    while dist[best] != cmax {
        best += 1;
    }
    best
}

/// Segmented max-aggregation over neighbor index lists; see
/// [`kernels::segmented_max_into`](super::segmented_max_into) for the
/// contract and the loop nest. A strip's accumulators are a fixed-size
/// array of up to 64 channels (`SEGMENT_STRIP`), which the compiler keeps
/// in vector registers for the whole neighbor list; the remaining channels
/// take one strip each of 32, 16 and 8 (as they fit), then a short scalar
/// tail. The
/// update is the select idiom `if v > acc { v } else { acc }`, which the
/// compiler lowers to vector max (NaN feature values never overwrite the
/// accumulator, `-0.0`/`0.0` ties keep it: a strict-`>` update).
pub fn segmented_max(
    features: &[f32],
    channels: usize,
    indices: &[usize],
    counts: &[usize],
    num: usize,
    out: &mut [f32],
) {
    for (c, &count) in counts.iter().enumerate() {
        let seg = &indices[c * num..c * num + count];
        let orow = &mut out[c * channels..c * channels + channels];
        let mut ch = 0;
        while channels - ch >= STRIP {
            max_strip::<STRIP>(features, channels, seg, ch, orow);
            ch += STRIP;
        }
        if channels - ch >= STRIP / 2 {
            max_strip::<{ STRIP / 2 }>(features, channels, seg, ch, orow);
            ch += STRIP / 2;
        }
        if channels - ch >= STRIP / 4 {
            max_strip::<{ STRIP / 4 }>(features, channels, seg, ch, orow);
            ch += STRIP / 4;
        }
        if channels - ch >= STRIP / 8 {
            max_strip::<{ STRIP / 8 }>(features, channels, seg, ch, orow);
            ch += STRIP / 8;
        }
        let tail = &mut orow[ch..];
        tail.fill(f32::NEG_INFINITY);
        for &i in seg {
            let frow = &features[i * channels + ch..i * channels + channels];
            for (acc, &v) in tail.iter_mut().zip(frow) {
                *acc = if v > *acc { v } else { *acc };
            }
        }
    }
}

/// Channels `ch..ch + W` of one segment, accumulated in a `[f32; W]` the
/// compiler keeps in registers across the neighbor list.
#[inline(always)]
fn max_strip<const W: usize>(
    features: &[f32],
    channels: usize,
    seg: &[usize],
    ch: usize,
    orow: &mut [f32],
) {
    let mut acc = [f32::NEG_INFINITY; W];
    for &i in seg {
        let strip: &[f32; W] =
            features[i * channels + ch..][..W].try_into().expect("a strip is W channels");
        for (a, &v) in acc.iter_mut().zip(strip) {
            *a = if v > *a { v } else { *a };
        }
    }
    orow[ch..ch + W].copy_from_slice(&acc);
}

/// Dense layer over packed weight panels; see
/// [`kernels::linear_into`](super::linear_into) for the contract.
/// Panel-outer / row-tile-inner: each `cin × 16` panel is walked once per
/// tile of [`ROW_TILE`] input rows, the tile's accumulators (lanes across
/// the panel's 16 output columns) living in a fixed-size array the compiler
/// keeps in vector registers. Per lane this is the triple loop's
/// `bias + Σᵢ w·x` in ascending `i`, multiply and add kept separate.
pub fn linear(
    packed: &[f32],
    bias: &[f32],
    cin: usize,
    relu: bool,
    input: &[f32],
    out: &mut [f32],
) {
    let cout = bias.len();
    for (p, panel) in packed.chunks_exact(cin * PANEL).enumerate() {
        let o0 = p * PANEL;
        let width = PANEL.min(cout - o0);
        let mut b = [0.0; PANEL];
        b[..width].copy_from_slice(&bias[o0..o0 + width]);
        let mut xs = input.chunks_exact(ROW_TILE * cin);
        let mut ys = out.chunks_exact_mut(ROW_TILE * cout);
        for (x, y) in xs.by_ref().zip(ys.by_ref()) {
            linear_tile::<ROW_TILE>(panel, &b, relu, x, &mut y[o0..], cout, width);
        }
        let tail = xs.remainder().chunks_exact(cin).zip(ys.into_remainder().chunks_exact_mut(cout));
        for (x, y) in tail {
            linear_tile::<1>(panel, &b, relu, x, &mut y[o0..], cout, width);
        }
    }
}

/// Input rows sharing one pass over a weight panel in [`linear`].
const ROW_TILE: usize = 4;

/// `R` contiguous rows of `x` against one panel, written to the first
/// `width` columns of `R` rows of `y` (stride `cout`).
#[inline(always)]
fn linear_tile<const R: usize>(
    panel: &[f32],
    bias: &[f32; PANEL],
    relu: bool,
    x: &[f32],
    y: &mut [f32],
    cout: usize,
    width: usize,
) {
    let cin = x.len() / R;
    let mut acc = [*bias; R];
    for (i, w) in panel.chunks_exact(PANEL).enumerate() {
        for (r, a) in acc.iter_mut().enumerate() {
            let xi = x[r * cin + i];
            for (aj, &wj) in a.iter_mut().zip(w) {
                *aj += wj * xi;
            }
        }
    }
    for (r, a) in acc.iter_mut().enumerate() {
        if relu {
            for aj in a.iter_mut() {
                *aj = if *aj > 0.0 { *aj } else { 0.0 };
            }
        }
        y[r * cout..r * cout + width].copy_from_slice(&a[..width]);
    }
}

/// Fused distance + radius-compare + acceptance-prefilter pass of one chunk
/// against every query of the tile (rows of `out` strided by [`CHUNK`]),
/// writing per-query hit masks and chunk minima. See the dispatching
/// `ball_prefilter_tile` call site in [`kernels`](super) for the contract.
/// Per-query `mins` hold the chunk's minimum distance only; the caller
/// locates the first-occurrence lane lazily (and only when the chunk
/// improves the running nearest) by rescanning the stored row.
///
/// Distances are computed in the branch-free chunked form, the hit mask —
/// in-radius *and* strictly under the acceptance threshold — is
/// accumulated with a branch-free shift-or, and only the minimum tracking
/// carries a (well-predicted) branch.
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
        let row = &mut out[qi * CHUNK..qi * CHUNK + xs.len()];
        distances_sq(xs, ys, zs, *q, row);
        let mut mask = 0u64;
        let mut min = f32::INFINITY;
        for (j, &d) in row.iter().enumerate() {
            // `!(d >= thr)`: a NaN threshold (buffer still filling) keeps
            // every in-radius lane, +inf distances included.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            {
                mask |= u64::from(d <= r_sq && !(d >= thr)) << j;
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
/// memory — already straight-line compare/select code; see
/// [`kernels::ball_insert_hits`](super::ball_insert_hits).
pub fn ball_insert_hits<const W: usize>(row: &mut [u64; W], dists: &[f32], mask: u64, base: usize) {
    for l in super::mask_lanes(mask) {
        super::insert_key_pass(row, super::pack_hit(dists[l], base + l));
    }
}

/// Counts the coordinates `<= mid`; see [`kernels::count_le`](super::count_le).
/// A one-axis reduction the compiler vectorizes as written. The caller
/// bounds the run by `u32::MAX`, so the 32-bit sum cannot wrap — and 32-bit
/// lanes count twice as many elements per vector as `usize` ones.
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
/// [`kernels::extrema`](super::extrema). Sixteen independent lanes, every
/// one seeded with `v[0]` and folded with `f32::min`/`max`, so the
/// sequential fold's NaN rule (a NaN operand is dropped, a NaN first element replaced
/// by the next number) holds in each lane and in the fold across lanes.
pub fn extrema(v: &[f32]) -> (f32, f32) {
    const LANES: usize = 16;
    let mut lo = [v[0]; LANES];
    let mut hi = lo;
    let mut chunks = v.chunks_exact(LANES);
    for c in chunks.by_ref() {
        for k in 0..LANES {
            lo[k] = lo[k].min(c[k]);
            hi[k] = hi[k].max(c[k]);
        }
    }
    let tail = chunks.remainder().iter();
    let lo = lo.iter().chain(tail.clone()).fold(v[0], |m, &c| m.min(c));
    let hi = hi.iter().chain(tail).fold(v[0], |m, &c| m.max(c));
    (lo, hi)
}
