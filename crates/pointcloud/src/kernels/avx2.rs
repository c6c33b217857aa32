//! AVX2 kernel backend: explicit 8-lane `core::arch::x86_64` intrinsics.
//!
//! # Safety argument
//!
//! This is the **only** module in the workspace containing `unsafe` SIMD
//! code, and every `unsafe` block is confined to it behind safe wrappers:
//!
//! * Every public function first asserts `is_x86_feature_detected!("avx2")`
//!   (a cached atomic load), so the `#[target_feature(enable = "avx2")]`
//!   inner functions are only ever entered on CPUs that implement the
//!   instructions — the sole soundness requirement of `target_feature`.
//!   The dispatcher in [`kernels`](super) additionally never resolves
//!   [`Backend::Avx2`](super::Backend::Avx2) without runtime detection, so
//!   the assert is belt-and-braces and never fires in practice.
//! * All memory access is through `loadu`/`storeu` on `ptr.add(i)` with
//!   `i + 8 <= len` (unaligned full-vector access within the slice), or
//!   through `maskload`/`maskstore` for the tail, which architecturally
//!   never touch memory of masked-off lanes. No pointer ever leaves its
//!   slice's bounds.
//! * The dense-layer kernel ([`linear`]) reads inputs and bias through safe
//!   slices; its only raw accesses are whole 16-float rows — a packed-panel
//!   row handed out by `chunks_exact(16)`, or a destination whose length is
//!   checked to be 16 (a partial last panel goes through a stack row and a
//!   bounds-checked copy).
//! * The partition scatter ([`scatter_le`]) is the one kernel that stores
//!   through raw pointers at data-dependent offsets: a left store covers
//!   `[l, l + 8)` and a right store `[r, r + 8)`, and the vector body only
//!   runs while `l + 8 <= l_len` and `r + 8 <= len`, with `l_len <= len`
//!   and all eight slices of length `len` checked by the safe wrapper.
//! * The key-row insertion ([`ball_insert_hits`]) loads and stores the
//!   `W / 4` whole vectors of a `&mut [u64; W]`, with `W` 8 or 16 checked
//!   at compile time; distances are read through safe indexing.
//!
//! # Exactness argument
//!
//! Results are bit-identical to the SoA backend:
//!
//! * distances use `sub`/`mul`/`add` in the same association as
//!   `dx*dx + dy*dy + dz*dz` — intrinsics are never contracted to FMA;
//! * `_mm256_min_ps(nd, cur)` implements `if nd < cur { nd } else { cur }`
//!   per lane (returns the second operand on NaN), exactly the oracle's
//!   relax idiom; `_mm256_max_ps(v, acc)` likewise never lets NaN overwrite
//!   the accumulator;
//! * the dense layer keeps its lanes across output columns, so each element
//!   accumulates `bias + Σᵢ w·x` in ascending `i` through `mul` then `add`,
//!   exactly the scalar loop; its ReLU `_mm256_max_ps(acc, zero)` returns
//!   `zero` for NaN and `-0.0`, the scalar `if acc > 0.0 { acc } else { 0.0 }`;
//! * compares use `_CMP_LE_OQ` (ordered, non-signaling), so NaN distances
//!   never count as radius hits — same as the scalar `d <= r_sq`;
//! * the partition passes compare with the same `_CMP_LE_OQ` (a NaN key is
//!   never `<= mid`, as in the scalar loops); the scatter's left-pack
//!   permutations move lanes without touching their bits and keep source
//!   order on both sides; the extrema's `_mm256_min_ps(v, acc)` /
//!   `_mm256_max_ps(v, acc)` drop a NaN `v` like `f32::min`/`max`, and the
//!   accumulator is seeded with a number, never a NaN, because these return
//!   their second operand whenever either is NaN — a NaN seed would stick
//!   where `f32::min` replaces it;
//! * the key-row insertion compares keys as `i64` (AVX2 has no unsigned
//!   64-bit compare); hit keys and the empty-slot sentinel `i64::MAX` all
//!   have the top bit clear, where signed and unsigned order agree, and the
//!   slot left of slot 0 reads `i64::MIN`, below every key;
//! * argmax/argmin reductions record the first chunk that *strictly*
//!   improves the running extremum and then rescan that chunk for the first
//!   occurrence of the extremal value, which is exact because distances are
//!   never `-0.0` (they are sums of non-negative products).

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256, __m256i, _mm256_add_ps, _mm256_and_ps, _mm256_blend_epi32, _mm256_blendv_epi8,
    _mm256_blendv_ps, _mm256_castps_si256, _mm256_castsi256_ps, _mm256_cmp_ps, _mm256_cmpgt_epi32,
    _mm256_cmpgt_epi64, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_ps,
    _mm256_maskstore_ps, _mm256_max_ps, _mm256_min_ps, _mm256_movemask_ps, _mm256_mul_ps,
    _mm256_permute4x64_epi64, _mm256_permutevar8x32_epi32, _mm256_permutevar8x32_ps,
    _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps,
    _mm256_setzero_si256, _mm256_storeu_ps, _mm256_storeu_si256, _mm256_sub_epi32, _mm256_sub_ps,
    _CMP_LE_OQ, _CMP_NGE_UQ,
};

use super::{CHUNK, LINEAR_PANEL as PANEL, SEGMENT_STRIP as STRIP};

/// SIMD width: 8 `f32` lanes per 256-bit vector.
const LANES: usize = 8;

#[inline]
fn assert_avx2() {
    assert!(is_x86_feature_detected!("avx2"), "AVX2 kernel backend invoked on a CPU without AVX2");
}

/// Lane-enable mask for a partial group: lanes `0..rem` active.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[target_feature(enable = "avx2")]
unsafe fn tail_mask(rem: usize) -> __m256i {
    debug_assert!(rem < LANES);
    let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    _mm256_cmpgt_epi32(_mm256_set1_epi32(rem as i32), idx)
}

/// Eight squared distances from the vectors loaded at lane group `(x, y, z)`
/// to the splatted query `(qx, qy, qz)` — same association as the scalar
/// `dx*dx + dy*dy + dz*dz`.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[target_feature(enable = "avx2")]
unsafe fn dist8(x: __m256, y: __m256, z: __m256, qx: __m256, qy: __m256, qz: __m256) -> __m256 {
    let dx = _mm256_sub_ps(x, qx);
    let dy = _mm256_sub_ps(y, qy);
    let dz = _mm256_sub_ps(z, qz);
    _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
        _mm256_mul_ps(dz, dz),
    )
}

/// AVX2 squared distances; see [`kernels::distances_sq`](super::distances_sq).
pub fn distances_sq(xs: &[f32], ys: &[f32], zs: &[f32], q: [f32; 3], out: &mut [f32]) {
    assert_avx2();
    // SAFETY: AVX2 availability asserted above; all accesses stay in bounds
    // (full groups require `i + 8 <= n`, the tail uses masked load/store).
    unsafe { distances_sq_impl(xs, ys, zs, q, out) }
}

#[target_feature(enable = "avx2")]
unsafe fn distances_sq_impl(xs: &[f32], ys: &[f32], zs: &[f32], q: [f32; 3], out: &mut [f32]) {
    let n = xs.len();
    let qx = _mm256_set1_ps(q[0]);
    let qy = _mm256_set1_ps(q[1]);
    let qz = _mm256_set1_ps(q[2]);
    let mut i = 0;
    while i + LANES <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        let y = _mm256_loadu_ps(ys.as_ptr().add(i));
        let z = _mm256_loadu_ps(zs.as_ptr().add(i));
        let nd = dist8(x, y, z, qx, qy, qz);
        _mm256_storeu_ps(out.as_mut_ptr().add(i), nd);
        i += LANES;
    }
    let rem = n - i;
    if rem > 0 {
        let m = tail_mask(rem);
        let x = _mm256_maskload_ps(xs.as_ptr().add(i), m);
        let y = _mm256_maskload_ps(ys.as_ptr().add(i), m);
        let z = _mm256_maskload_ps(zs.as_ptr().add(i), m);
        let nd = dist8(x, y, z, qx, qy, qz);
        _mm256_maskstore_ps(out.as_mut_ptr().add(i), m, nd);
    }
}

/// Fused tile of per-query distance rows + threshold prefilter masks over
/// one chunk; see the dispatching `knn_prefilter_tile` call site in
/// [`kernels`](super) for the contract (`out` rows strided by [`CHUNK`];
/// mask bit `j` set iff `!(row[j] >= threshold)`, so a NaN threshold keeps
/// every lane).
///
/// This is where query batching pays at the register level: each 8-lane
/// coordinate group is loaded once and both scored *and* prefiltered
/// against every query of the tile before the next group is touched
/// (`_CMP_NGE_UQ` is unordered-true, matching the scalar `!(d >= thr)`).
pub fn knn_prefilter_tile(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    queries: &[[f32; 3]],
    thresholds: &[f32],
    out: &mut [f32],
    masks: &mut [u64],
) {
    assert_avx2();
    // SAFETY: AVX2 availability asserted above; all accesses stay in bounds
    // (row `qi` spans `qi * CHUNK .. qi * CHUNK + len` with `len <= CHUNK`
    // and `out.len() >= queries.len() * CHUNK`, checked below).
    unsafe { knn_prefilter_tile_impl(xs, ys, zs, queries, thresholds, out, masks) }
}

#[target_feature(enable = "avx2")]
unsafe fn knn_prefilter_tile_impl(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    queries: &[[f32; 3]],
    thresholds: &[f32],
    out: &mut [f32],
    masks: &mut [u64],
) {
    let len = xs.len();
    assert!(len <= CHUNK, "tile rows are strided by CHUNK");
    assert!(queries.is_empty() || out.len() >= queries.len() * CHUNK, "out too small");
    assert!(thresholds.len() >= queries.len() && masks.len() >= queries.len());
    masks[..queries.len()].fill(0);
    let mut i = 0;
    while i + LANES <= len {
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        let y = _mm256_loadu_ps(ys.as_ptr().add(i));
        let z = _mm256_loadu_ps(zs.as_ptr().add(i));
        for (qi, q) in queries.iter().enumerate() {
            let nd =
                dist8(x, y, z, _mm256_set1_ps(q[0]), _mm256_set1_ps(q[1]), _mm256_set1_ps(q[2]));
            _mm256_storeu_ps(out.as_mut_ptr().add(qi * CHUNK + i), nd);
            let keep = _mm256_cmp_ps::<_CMP_NGE_UQ>(nd, _mm256_set1_ps(thresholds[qi]));
            masks[qi] |= u64::from(_mm256_movemask_ps(keep) as u8) << i;
        }
        i += LANES;
    }
    let rem = len - i;
    if rem > 0 {
        let m = tail_mask(rem);
        let x = _mm256_maskload_ps(xs.as_ptr().add(i), m);
        let y = _mm256_maskload_ps(ys.as_ptr().add(i), m);
        let z = _mm256_maskload_ps(zs.as_ptr().add(i), m);
        for (qi, q) in queries.iter().enumerate() {
            let nd =
                dist8(x, y, z, _mm256_set1_ps(q[0]), _mm256_set1_ps(q[1]), _mm256_set1_ps(q[2]));
            _mm256_maskstore_ps(out.as_mut_ptr().add(qi * CHUNK + i), m, nd);
            let keep = _mm256_cmp_ps::<_CMP_NGE_UQ>(nd, _mm256_set1_ps(thresholds[qi]));
            // Inactive tail lanes hold distances of zeroed loads: strip them.
            let bits = (_mm256_movemask_ps(keep) as u32) & ((1u32 << rem) - 1);
            masks[qi] |= u64::from(bits) << i;
        }
    }
}

/// AVX2 fused relax + argmax; see
/// [`kernels::fps_relax_argmax`](super::fps_relax_argmax).
pub fn fps_relax_argmax(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    q: [f32; 3],
    dist: &mut [f32],
) -> usize {
    assert_avx2();
    // SAFETY: AVX2 availability asserted above; all accesses stay in bounds.
    unsafe { fps_relax_argmax_impl(xs, ys, zs, q, dist) }
}

/// Mirrors the SoA backend's chunk structure exactly: 8 independent lane
/// maxima per chunk (the vector accumulator), a scalar tail, the same
/// NaN-safe horizontal fold, and the same first-improving-chunk + rescan
/// argmax selection — so the returned index is bit-identical.
#[target_feature(enable = "avx2")]
unsafe fn fps_relax_argmax_impl(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    q: [f32; 3],
    dist: &mut [f32],
) -> usize {
    let n = xs.len();
    let qx = _mm256_set1_ps(q[0]);
    let qy = _mm256_set1_ps(q[1]);
    let qz = _mm256_set1_ps(q[2]);
    let mut cmax = f32::NEG_INFINITY;
    let mut cmax_chunk_base = 0usize;
    let mut base = 0usize;
    while base < n {
        let end = (base + CHUNK).min(n);
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut i = base;
        while i + LANES <= end {
            let x = _mm256_loadu_ps(xs.as_ptr().add(i));
            let y = _mm256_loadu_ps(ys.as_ptr().add(i));
            let z = _mm256_loadu_ps(zs.as_ptr().add(i));
            let nd = dist8(x, y, z, qx, qy, qz);
            let cur = _mm256_loadu_ps(dist.as_ptr().add(i));
            // min(nd, cur): keeps `cur` when `nd` is NaN — the relax idiom.
            let v = _mm256_min_ps(nd, cur);
            _mm256_storeu_ps(dist.as_mut_ptr().add(i), v);
            // max(v, acc): NaN `v` never overwrites the accumulator.
            acc = _mm256_max_ps(v, acc);
            i += LANES;
        }
        // Scalar tail (same code as the SoA backend's remainder loop).
        let mut cm = f32::NEG_INFINITY;
        for j in i..end {
            let dx = xs[j] - q[0];
            let dy = ys[j] - q[1];
            let dz = zs[j] - q[2];
            let nd = dx * dx + dy * dy + dz * dz;
            let cur = dist[j];
            let v = if nd < cur { nd } else { cur };
            dist[j] = v;
            cm = if v > cm { v } else { cm };
        }
        // Horizontal fold of the lane maxima (never NaN, see above).
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for &m in &lanes {
            cm = if m > cm { m } else { cm };
        }
        if cm > cmax {
            cmax = cm;
            cmax_chunk_base = base;
        }
        base = end;
    }
    let mut best = cmax_chunk_base;
    while dist[best] != cmax {
        best += 1;
    }
    best
}

/// AVX2 segmented max-aggregation over neighbor index lists; see
/// [`kernels::segmented_max_into`](super::segmented_max_into) for the
/// contract and the loop nest. A strip holds up to 64 channels
/// (`SEGMENT_STRIP`) in eight accumulator registers for the whole neighbor
/// list, so the eight `_mm256_max_ps(v, acc)` chains of one neighbor issue
/// back to back; the remaining channels take one strip each of 32, 16 and
/// 8 (as they fit) and one masked register. `_mm256_max_ps(v, acc)` returns `acc` when `v`
/// is NaN and on `±0.0` ties, exactly the SoA backend's strict-`>` update.
pub fn segmented_max(
    features: &[f32],
    channels: usize,
    indices: &[usize],
    counts: &[usize],
    num: usize,
    out: &mut [f32],
) {
    assert_avx2();
    // SAFETY: AVX2 availability asserted above; every strip of a feature
    // row is re-sliced through bounds-checked safe indexing before any
    // load, and the masked tail never touches memory of inactive lanes.
    unsafe { segmented_max_impl(features, channels, indices, counts, num, out) }
}

#[target_feature(enable = "avx2")]
unsafe fn segmented_max_impl(
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
            max_strip::<{ STRIP / LANES }>(features, channels, seg, ch, orow);
            ch += STRIP;
        }
        if channels - ch >= 4 * LANES {
            max_strip::<4>(features, channels, seg, ch, orow);
            ch += 4 * LANES;
        }
        if channels - ch >= 2 * LANES {
            max_strip::<2>(features, channels, seg, ch, orow);
            ch += 2 * LANES;
        }
        if channels - ch >= LANES {
            max_strip::<1>(features, channels, seg, ch, orow);
            ch += LANES;
        }
        if ch < channels {
            max_strip_masked(features, channels, seg, ch, orow);
        }
    }
}

/// Channels `ch..ch + 8·R` of one segment: `R` accumulators, each one
/// register for the whole neighbor list.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn max_strip<const R: usize>(
    features: &[f32],
    channels: usize,
    seg: &[usize],
    ch: usize,
    orow: &mut [f32],
) {
    let mut acc = [_mm256_set1_ps(f32::NEG_INFINITY); R];
    for &i in seg {
        let strip = &features[i * channels + ch..i * channels + ch + R * LANES];
        for (r, a) in acc.iter_mut().enumerate() {
            // max(v, acc): NaN `v` never overwrites the accumulator, and
            // ±0.0 ties keep the accumulator — the select idiom.
            *a = _mm256_max_ps(_mm256_loadu_ps(strip.as_ptr().add(r * LANES)), *a);
        }
    }
    let dst = &mut orow[ch..ch + R * LANES];
    for (r, a) in acc.iter().enumerate() {
        _mm256_storeu_ps(dst.as_mut_ptr().add(r * LANES), *a);
    }
}

/// The last `channels − ch < 8` channels of one segment in one masked
/// register.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn max_strip_masked(
    features: &[f32],
    channels: usize,
    seg: &[usize],
    ch: usize,
    orow: &mut [f32],
) {
    let m = tail_mask(channels - ch);
    let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
    for &i in seg {
        let strip = &features[i * channels + ch..i * channels + channels];
        // Inactive lanes load 0.0 and pollute only accumulator lanes the
        // masked store below never writes back.
        acc = _mm256_max_ps(_mm256_maskload_ps(strip.as_ptr(), m), acc);
    }
    _mm256_maskstore_ps(orow[ch..].as_mut_ptr(), m, acc);
}

/// AVX2 dense layer over packed weight panels; see
/// [`kernels::linear_into`](super::linear_into) for the contract.
/// Panel-outer / 4-row-tile-inner: a `cin × 16` panel stays cache-resident
/// while every input row streams past it, each tile holding its 4 rows ×
/// 2 × 8 lanes of accumulators in eight registers (initialised to the bias)
/// for the whole walk over `cin`, with a 1-row tail and ReLU fused into the
/// store. Lanes run across the panel's output columns, so per element this
/// is the triple loop's `bias + Σᵢ w·x` in ascending `i` with a separate
/// `mul` and `add` (never FMA); `_mm256_max_ps(acc, zero)` returns `zero`
/// for a NaN or `-0.0` accumulator — the scalar select idiom.
pub fn linear(
    packed: &[f32],
    bias: &[f32],
    cin: usize,
    relu: bool,
    input: &[f32],
    out: &mut [f32],
) {
    assert_avx2();
    // SAFETY: AVX2 availability asserted above. The packed buffer is
    // `panels · cin · 16` floats (checked by the dispatcher) and is only
    // ever re-sliced through `chunks_exact`, so each pair of full-width
    // weight loads reads one whole 16-float row of a (zero-padded) panel;
    // inputs and the bias are read through safe slices; full-width stores
    // go to a destination checked to be 16 floats long, and the partial
    // last panel is stored through a bounds-checked `copy_from_slice`.
    unsafe { linear_impl(packed, bias, cin, relu, input, out) }
}

#[target_feature(enable = "avx2")]
unsafe fn linear_impl(
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
        let mut b = [0.0f32; PANEL];
        b[..width].copy_from_slice(&bias[o0..o0 + width]);
        let (b0, b1) = load16(&b);

        let mut xs = input.chunks_exact(4 * cin);
        let mut ys = out.chunks_exact_mut(4 * cout);
        for (x, y) in xs.by_ref().zip(ys.by_ref()) {
            let (x0, x) = x.split_at(cin);
            let (x1, x) = x.split_at(cin);
            let (x2, x3) = x.split_at(cin);
            let mut acc = [(b0, b1); 4];
            let tile = x0.iter().zip(x1).zip(x2).zip(x3);
            for (w, (((&v0, &v1), &v2), &v3)) in panel.chunks_exact(PANEL).zip(tile) {
                let w = load16(w);
                for (a, v) in acc.iter_mut().zip([v0, v1, v2, v3]) {
                    *a = mul_then_add16(*a, w, v);
                }
            }
            for (a, y) in acc.into_iter().zip(y.chunks_exact_mut(cout)) {
                linear_store(a, relu, &mut y[o0..o0 + width]);
            }
        }
        let tail = xs.remainder().chunks_exact(cin).zip(ys.into_remainder().chunks_exact_mut(cout));
        for (x, y) in tail {
            let mut a = (b0, b1);
            for (w, &v) in panel.chunks_exact(PANEL).zip(x) {
                a = mul_then_add16(a, load16(w), v);
            }
            linear_store(a, relu, &mut y[o0..o0 + width]);
        }
    }
}

/// The two 8-lane halves of a 16-float row.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load16(row: &[f32]) -> (__m256, __m256) {
    assert_eq!(row.len(), PANEL);
    (_mm256_loadu_ps(row.as_ptr()), _mm256_loadu_ps(row.as_ptr().add(LANES)))
}

/// One step of the dense-layer accumulation for 16 output columns:
/// `acc + w · x` as a rounded multiply followed by a rounded add — never an
/// FMA, which would skip the product's rounding and move result bits.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn mul_then_add16(acc: (__m256, __m256), w: (__m256, __m256), x: f32) -> (__m256, __m256) {
    let x = _mm256_set1_ps(x);
    (_mm256_add_ps(acc.0, _mm256_mul_ps(w.0, x)), _mm256_add_ps(acc.1, _mm256_mul_ps(w.1, x)))
}

/// Epilogue of [`linear_impl`]: optional ReLU, then the 16 accumulator
/// lanes into `dst` — straight from the registers for a full panel, through
/// a stack copy (bounds-checked) for the partial last panel.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn linear_store((lo, hi): (__m256, __m256), relu: bool, dst: &mut [f32]) {
    // max(acc, zero): NaN and -0.0 accumulators yield the second operand.
    let zero = _mm256_setzero_ps();
    let (lo, hi) = if relu { (_mm256_max_ps(lo, zero), _mm256_max_ps(hi, zero)) } else { (lo, hi) };
    let mut tmp = [0.0f32; PANEL];
    let full = dst.len() == PANEL;
    let row = if full { dst.as_mut_ptr() } else { tmp.as_mut_ptr() };
    _mm256_storeu_ps(row, lo);
    _mm256_storeu_ps(row.add(LANES), hi);
    if !full {
        dst.copy_from_slice(&tmp[..dst.len()]);
    }
}

/// AVX2 tiled ball scan: each 8-lane coordinate group is loaded once and
/// scored against every query of the tile while it sits in registers —
/// the same batching that makes `knn_prefilter_tile` pay — with the fused
/// `<= r²` hit compare, the `< thr` acceptance prefilter, and the
/// per-query chunk-minimum tracking all in the same pass. See the
/// dispatching `ball_prefilter_tile` call site in [`kernels`](super) for
/// the contract.
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
    assert_avx2();
    // SAFETY: AVX2 availability asserted above; all accesses stay in bounds
    // (row `qi` spans `qi * CHUNK .. qi * CHUNK + len`, checked below).
    unsafe { ball_prefilter_tile_impl(xs, ys, zs, queries, r_sq, thresholds, out, masks, mins) }
}

/// Per query this computes what the SoA backend's per-lane loop computes
/// — the same distance expression, the same ordered `<= r²` and
/// unordered-true `!(d >= thr)` compares, a NaN-free vector minimum fold —
/// so results are bit-identical; only the loop nest differs (coordinates
/// loaded once per 8-lane group for the whole tile).
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn ball_prefilter_tile_impl(
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
    let len = xs.len();
    assert!(len <= CHUNK, "tile rows are strided by CHUNK");
    assert!(queries.is_empty() || out.len() >= (queries.len() - 1) * CHUNK + len, "out too small");
    assert!(thresholds.len() >= queries.len());
    assert!(masks.len() >= queries.len() && mins.len() >= queries.len());
    assert!(queries.len() <= super::QUERY_TILE, "tile wider than QUERY_TILE");
    let rv = _mm256_set1_ps(r_sq);
    let inf = _mm256_set1_ps(f32::INFINITY);
    masks[..queries.len()].fill(0);
    let mut vmins = [inf; super::QUERY_TILE];
    let mut i = 0;
    while i + LANES <= len {
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        let y = _mm256_loadu_ps(ys.as_ptr().add(i));
        let z = _mm256_loadu_ps(zs.as_ptr().add(i));
        for (qi, q) in queries.iter().enumerate() {
            let nd =
                dist8(x, y, z, _mm256_set1_ps(q[0]), _mm256_set1_ps(q[1]), _mm256_set1_ps(q[2]));
            _mm256_storeu_ps(out.as_mut_ptr().add(qi * CHUNK + i), nd);
            // Ordered, non-signaling compares: NaN lanes never hit.
            let le = _mm256_cmp_ps::<_CMP_LE_OQ>(nd, rv);
            // Unordered-true `!(d >= thr)`: the NaN filling sentinel keeps
            // every in-radius lane (+inf distances included), matching the
            // SoA backend bit for bit.
            let lt = _mm256_cmp_ps::<_CMP_NGE_UQ>(nd, _mm256_set1_ps(thresholds[qi]));
            let keep = _mm256_and_ps(le, lt);
            masks[qi] |= u64::from(_mm256_movemask_ps(keep) as u8) << i;
            vmins[qi] = _mm256_min_ps(nd, vmins[qi]);
        }
        i += LANES;
    }
    let rem = len - i;
    if rem > 0 {
        let m = tail_mask(rem);
        let x = _mm256_maskload_ps(xs.as_ptr().add(i), m);
        let y = _mm256_maskload_ps(ys.as_ptr().add(i), m);
        let z = _mm256_maskload_ps(zs.as_ptr().add(i), m);
        for (qi, q) in queries.iter().enumerate() {
            let nd =
                dist8(x, y, z, _mm256_set1_ps(q[0]), _mm256_set1_ps(q[1]), _mm256_set1_ps(q[2]));
            _mm256_maskstore_ps(out.as_mut_ptr().add(qi * CHUNK + i), m, nd);
            let le = _mm256_cmp_ps::<_CMP_LE_OQ>(nd, rv);
            let lt = _mm256_cmp_ps::<_CMP_NGE_UQ>(nd, _mm256_set1_ps(thresholds[qi]));
            let keep = _mm256_and_ps(le, lt);
            let bits = (_mm256_movemask_ps(keep) as u32) & ((1u32 << rem) - 1);
            masks[qi] |= u64::from(bits) << i;
            // Inactive lanes hold distances of zeroed loads; blend them to
            // +inf so they cannot influence the minimum.
            let ndm = _mm256_blendv_ps(inf, nd, _mm256_castsi256_ps(m));
            vmins[qi] = _mm256_min_ps(ndm, vmins[qi]);
        }
    }
    // NaN-free horizontal min per query (NaN lanes never entered `vmins`);
    // the first-occurrence lane is located lazily by the caller, and only
    // when the chunk actually improves the running nearest.
    for (qi, _) in queries.iter().enumerate() {
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), vmins[qi]);
        let mut min = f32::INFINITY;
        for &v in &lanes {
            if v < min {
                min = v;
            }
        }
        mins[qi] = min;
    }
}

/// AVX2 insertion of one chunk's hit lanes into a query's key row; see
/// [`kernels::ball_insert_hits`](super::ball_insert_hits). The row lives in
/// `W / 4` registers from the first lane to the last: per lane every slot
/// becomes `max(prev, min(row, key))`, where `prev` is the row shifted up
/// one slot (`permute4x64` rotates each register, `blend_epi32` carries
/// slot 3 of the register below into slot 0, and slot 0 of the row gets
/// `i64::MIN`), each min/max a `cmpgt_epi64` + `blendv_epi8`.
pub fn ball_insert_hits<const W: usize>(row: &mut [u64; W], dists: &[f32], mask: u64, base: usize) {
    assert_avx2();
    // SAFETY: AVX2 availability asserted above; the body's only raw
    // accesses are the `W / 4` whole-vector loads and stores of `row`, and
    // `W` is 8 or 16 (checked at compile time there), so each covers
    // `[4j, 4j + 4)` with `4j + 4 <= W`.
    unsafe { ball_insert_hits_impl(row, dists, mask, base) }
}

#[target_feature(enable = "avx2")]
unsafe fn ball_insert_hits_impl<const W: usize>(
    row: &mut [u64; W],
    dists: &[f32],
    mask: u64,
    base: usize,
) {
    const { assert!(W == 8 || W == 16, "key rows are 8 or 16 keys wide") };
    let mut r = [_mm256_setzero_si256(); 4];
    for (j, v) in r.iter_mut().take(W / 4).enumerate() {
        *v = _mm256_loadu_si256(row.as_ptr().add(4 * j).cast());
    }
    let below = _mm256_set1_epi64x(i64::MIN);
    for l in super::mask_lanes(mask) {
        let key = _mm256_set1_epi64x(super::pack_hit(dists[l], base + l) as i64);
        let mut carry = below;
        for v in r.iter_mut().take(W / 4) {
            let rot = _mm256_permute4x64_epi64::<0x93>(*v);
            let prev = _mm256_blend_epi32::<0b11>(rot, carry);
            carry = rot;
            let min = _mm256_blendv_epi8(*v, key, _mm256_cmpgt_epi64(*v, key));
            *v = _mm256_blendv_epi8(min, prev, _mm256_cmpgt_epi64(prev, min));
        }
    }
    for (j, v) in r.iter().take(W / 4).enumerate() {
        _mm256_storeu_si256(row.as_mut_ptr().add(4 * j).cast(), *v);
    }
}

/// AVX2 count of the coordinates `<= mid`; see
/// [`kernels::count_le`](super::count_le). Each compare leaves `-1` in the
/// lanes that count, subtracted into eight 32-bit counters (the caller
/// bounds the run by `u32::MAX`, so no lane wraps).
pub fn count_le(coords: &[f32], mid: f32) -> usize {
    assert_avx2();
    // SAFETY: AVX2 availability asserted above; every load is a full group
    // at `i + 8 <= coords.len()`.
    unsafe { count_le_impl(coords, mid) }
}

#[target_feature(enable = "avx2")]
unsafe fn count_le_impl(coords: &[f32], mid: f32) -> usize {
    let m = _mm256_set1_ps(mid);
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + LANES <= coords.len() {
        let le = _mm256_cmp_ps::<_CMP_LE_OQ>(_mm256_loadu_ps(coords.as_ptr().add(i)), m);
        acc = _mm256_sub_epi32(acc, _mm256_castps_si256(le));
        i += LANES;
    }
    let mut lanes = [0u32; LANES];
    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
    lanes.iter().sum::<u32>() as usize + super::soa::count_le(&coords[i..], mid)
}

/// Left-pack permutations: entry `m` lists the set bits of `m` in ascending
/// order — the `_mm256_permutevar8x32` control that moves the lanes selected
/// by compare mask `m` to the front of a vector, in source order. The
/// trailing entries (zero) select lanes the scatter overwrites later.
static LEFT_PACK: [[u32; LANES]; 256] = {
    let mut table = [[0u32; LANES]; 256];
    let mut m = 0;
    while m < 256 {
        let (mut bit, mut at) = (0, 0);
        while bit < LANES {
            if m >> bit & 1 == 1 {
                table[m][at] = bit as u32;
                at += 1;
            }
            bit += 1;
        }
        m += 1;
    }
    table
};

/// AVX2 stable two-way scatter; see
/// [`kernels::scatter_le`](super::scatter_le). Eight elements per step: one
/// compare mask, its left-pack permutation and that of its complement, and
/// per array one load, two permutes and two unaligned stores — the `<= mid`
/// lanes packed at the left cursor, the rest at the right one. Each store
/// writes all eight lanes; the lanes past the packed ones hold leftovers
/// that the same side's later stores overwrite, which is why the vector
/// body stops as soon as either side has fewer than eight slots left and
/// the scalar loop finishes the run.
pub fn scatter_le(
    key: &[f32],
    mid: f32,
    l_len: usize,
    src: [&[f32]; 3],
    src_idx: &[u32],
    dst: [&mut [f32]; 3],
    dst_idx: &mut [u32],
) {
    assert_avx2();
    let n = key.len();
    let same_len = src.iter().all(|s| s.len() == n) && dst.iter().all(|d| d.len() == n);
    assert!(same_len && src_idx.len() == n && dst_idx.len() == n && l_len <= n);
    // SAFETY: AVX2 availability asserted above; all nine slices have length
    // `n` and `l_len <= n` (asserted above), which is what the body's
    // bounds argument needs.
    unsafe { scatter_le_impl(key, mid, l_len, src, src_idx, dst, dst_idx) }
}

/// # Safety
///
/// AVX2 must be available, every slice must have `key.len()` elements and
/// `l_len` must not exceed it. Loads read `[k, k + 8)` of the sources with
/// `k + 8 <= len`; stores write `[l, l + 8)` with `l + 8 <= l_len <= len`
/// and `[r, r + 8)` with `r + 8 <= len`, all checked by the loop condition
/// before each step.
#[target_feature(enable = "avx2")]
unsafe fn scatter_le_impl(
    key: &[f32],
    mid: f32,
    l_len: usize,
    [sx, sy, sz]: [&[f32]; 3],
    src_idx: &[u32],
    [dx, dy, dz]: [&mut [f32]; 3],
    dst_idx: &mut [u32],
) {
    let len = key.len();
    let m = _mm256_set1_ps(mid);
    let (mut k, mut l, mut r) = (0, 0, l_len);
    while k + LANES <= len && l + LANES <= l_len && r + LANES <= len {
        let le = _mm256_cmp_ps::<_CMP_LE_OQ>(_mm256_loadu_ps(key.as_ptr().add(k)), m);
        let mask = _mm256_movemask_ps(le) as usize;
        let left = _mm256_loadu_si256(LEFT_PACK[mask].as_ptr().cast());
        let right = _mm256_loadu_si256(LEFT_PACK[!mask & 0xFF].as_ptr().cast());
        for (s, d) in [(sx, &mut *dx), (sy, &mut *dy), (sz, &mut *dz)] {
            let v = _mm256_loadu_ps(s.as_ptr().add(k));
            _mm256_storeu_ps(d.as_mut_ptr().add(l), _mm256_permutevar8x32_ps(v, left));
            _mm256_storeu_ps(d.as_mut_ptr().add(r), _mm256_permutevar8x32_ps(v, right));
        }
        let v = _mm256_loadu_si256(src_idx.as_ptr().add(k).cast());
        let d = dst_idx.as_mut_ptr();
        _mm256_storeu_si256(d.add(l).cast(), _mm256_permutevar8x32_epi32(v, left));
        _mm256_storeu_si256(d.add(r).cast(), _mm256_permutevar8x32_epi32(v, right));
        let lefts = mask.count_ones() as usize;
        l += lefts;
        r += LANES - lefts;
        k += LANES;
    }
    super::soa::scatter_le_from((k, l, r), key, mid, [sx, sy, sz], src_idx, [dx, dy, dz], dst_idx);
}

/// AVX2 `(min, max)` before the zero-tie rule; see
/// [`kernels::extrema`](super::extrema). The accumulators are seeded with
/// the run's first number (not its first element — see the module's
/// exactness argument); an all-NaN run returns its first element.
pub fn extrema(v: &[f32]) -> (f32, f32) {
    assert_avx2();
    let Some(&seed) = v.iter().find(|c| !c.is_nan()) else {
        return (v[0], v[0]);
    };
    // SAFETY: AVX2 availability asserted above; every load is a full group
    // at `i + 8 <= v.len()`.
    unsafe { extrema_impl(v, seed) }
}

#[target_feature(enable = "avx2")]
unsafe fn extrema_impl(v: &[f32], seed: f32) -> (f32, f32) {
    let mut lo = _mm256_set1_ps(seed);
    let mut hi = lo;
    let mut i = 0;
    while i + LANES <= v.len() {
        let c = _mm256_loadu_ps(v.as_ptr().add(i));
        lo = _mm256_min_ps(c, lo);
        hi = _mm256_max_ps(c, hi);
        i += LANES;
    }
    let (mut los, mut his) = ([0f32; LANES], [0f32; LANES]);
    _mm256_storeu_ps(los.as_mut_ptr(), lo);
    _mm256_storeu_ps(his.as_mut_ptr(), hi);
    let tail = v[i..].iter();
    let lo = los.iter().chain(tail.clone()).fold(seed, |m, &c| m.min(c));
    let hi = his.iter().chain(tail).fold(seed, |m, &c| m.max(c));
    (lo, hi)
}
