//! Runtime-dispatched kernel backends for the point-operation hot paths.
//!
//! # Why this module exists
//!
//! The paper's thesis is that point operations (FPS, KNN, ball query,
//! aggregation) are *memory-bound* and benefit from streaming one axis at a
//! time over blocked data. The seed's per-point operations (kept as test
//! oracles in `fractalcloud_oracle::ops`) negate that on real CPUs: they
//! materialize a [`Point3`](crate::Point3) per candidate and bump
//! [`OpCounters`](crate::ops::OpCounters) fields inside every inner loop,
//! which defeats auto-vectorization and triples the instruction count of
//! the hot path. The kernels here restore the intended dataflow in
//! software: they operate directly on the structure-of-arrays `xs`/`ys`/`zs`
//! slices of a [`PointCloud`](crate::PointCloud), and leave *all* counter
//! accounting to the caller (accumulated per scan, analytically — the
//! counters model hardware work and are a pure function of the scan sizes).
//!
//! # Backends
//!
//! Every kernel exists in two interchangeable implementations, selected
//! once per process (and overridable per call via the `*_with` variants or
//! the `backend` argument of the `*_into` drivers):
//!
//! * [`Backend::Soa`] — chunked, auto-vectorizable loops (module `soa`) built
//!   from select idioms the compiler lowers to vector min/max; the portable
//!   path, and the fallback on every host without AVX2.
//!   The per-point oracle is not a backend: it is
//!   `fractalcloud_oracle::ops`, a dev-dependency.
//! * [`Backend::Avx2`] — explicit 8-lane `core::arch::x86_64` intrinsics
//!   (module `avx2`), used when `is_x86_feature_detected!("avx2")` holds. All
//!   SIMD `unsafe` is confined to that one module behind safe wrappers.
//!
//! The active backend is chosen on first use: the `FRACTALCLOUD_KERNEL`
//! environment variable (`soa` | `avx2`) wins when it names an
//! available backend, otherwise the best available backend is used (AVX2 on
//! capable x86-64 hosts, SoA elsewhere). [`with_backend`] installs a
//! thread-local override for tests and benchmarks.
//!
//! # Exact equivalence
//!
//! All backends are bit-for-bit equivalent: the same `f32` operations in the
//! same order per candidate (no FMA contraction), ties resolve identically
//! (first extremum wins, insertion order preserved), and NaN coordinates
//! degrade the same way (vector `min`/`max` operand order matches the
//! oracle's `if d < dist` select idiom). Property tests in
//! `tests/backend_equivalence.rs` assert equality of indices, distances,
//! *and* counters across both backends and against the per-point oracles.
//!
//! # The SoA chunking contract
//!
//! Every kernel follows the same structure:
//!
//! 1. the candidate set is presented as three equal-length coordinate
//!    slices (`xs`, `ys`, `zs`) — never as an array of structs;
//! 2. work proceeds in chunks of [`CHUNK`] lanes; within a chunk, distance
//!    evaluation is a straight-line loop over the slices with **no
//!    branches, no counter updates, and no per-point struct construction**;
//! 3. selection logic (argmax, top-k insertion, radius tests) consumes the
//!    chunk's distance buffer *after* it is computed, keeping its branches
//!    out of the arithmetic loop.
//!
//! # Batched-query selection
//!
//! The KNN/ball-query selection scans are dominated by re-streaming the
//! candidate coordinates once per query. [`knn_select_batch_into`] and
//! [`ball_select_batch_into`] instead process a tile of [`QUERY_TILE`] queries
//! per pass: each [`CHUNK`]-sized candidate chunk is loaded once and scored
//! against every query of the tile while it is hot in L1 (the software
//! analogue of the RSPU's intra-block candidate reuse, §V-C). KNN selection
//! per query still consumes chunks in ascending scan order, so its results
//! (and insertion accounting) are identical to the one-query-at-a-time
//! formulation; ball selection may start at any chunk, see below.
//!
//! The two drivers select differently. KNN keeps a [`TopK`] per query: every
//! candidate competes, accepted ones are rare once the buffer has converged,
//! and each is a binary search plus `Vec::insert`. A ball query's hits are
//! dense (on indoor scenes nearly half of a block is inside the radius), so
//! its driver keeps no `(f32, usize)` list at all: a hit becomes one `u64`
//! key, `distance bits << 32 | candidate slot`. A hit's distance satisfies
//! `+0.0 <= d <= r_sq` — never NaN, never `-0.0` — and on that range `f32`
//! bit patterns order like the values, so integer order on keys *is* the
//! canonical `(distance, slot)` order. Each query owns one row of keys, and
//! `num` fixes how it is built. For `num <= 16` the row is ascending and 8
//! or 16 keys wide, a compile-time constant, empty slots holding the
//! sentinel `i64::MAX as u64`, whose distance half `0x7FFF_FFFF` is a NaN —
//! above every hit distance (`<= 0x7F80_0000`), so the sentinel orders last
//! as `u64` and as `i64`, and read as a prefilter threshold it keeps
//! everything. There is no filling phase: the hit count is the number of
//! non-sentinel keys among the first `num`. A hit is inserted by rewriting
//! every slot as `max(row[i - 1], min(row[i], key))` — no data-dependent
//! branch. One chunk's surviving lanes go in through a dispatched kernel,
//! [`ball_insert_hits`]: the portable form rewrites the row in memory per
//! lane, the AVX2 form holds it in two or four registers for the whole
//! chunk (signed 64-bit compares, hence the sentinel) and stores it once.
//! Above 16 the row is an unordered buffer of `2·num + CHUNK` keys, the
//! same on every backend: each chunk's surviving lanes are appended, and
//! once it holds more than `2·num` keys one `select_nth_unstable` keeps the
//! `num` smallest, the largest of them in slot `num - 1`; the row is sorted
//! once, when it is emitted. Slot `num - 1` after a select is the row's
//! prefilter bar. Before the first select the row has none, and between
//! selects its bar lags the `num` smallest keys: both only let more lanes
//! through, and keys are unique, so both forms emit the same rows.
//!
//! The candidates are scanned as a list of runs
//! ([`ball_select_runs_into`], the one driver body; [`CandidateRun`]): each
//! run is a stretch of consecutive slots with a box that holds every
//! candidate of the run. The global form passes one
//! unbounded run ([`ball_select_batch_into`]); a rotated scan passes two
//! ([`ball_select_rotated_into`]); block grouping passes one run per block
//! of the search space, its centres' own block first, whose near hits
//! tighten the prefilter early. The scan order never changes the result,
//! because slots keep numbering candidates in the caller's order: the
//! selection is the `num` smallest of unique, totally ordered keys — the
//! prefilter admits a tie with the worst distance, since a tying candidate
//! scanned later may have the lower slot and win — and the empty-ball
//! fallback is the least `(distance, slot)` pair below `+∞`.
//!
//! A run is skipped for a whole tile when, for every query of the tile, the
//! box's lower bound is strictly above the query's bar — the largest
//! distance a candidate could have and still change the query's row or its
//! nearest (a bar only falls as the scan goes on, so a run out of reach
//! once stays so):
//!
//! * the distance of the row's bar once it has one: the worst hit of a
//!   full narrow row, slot `num - 1` of a wide row after its latest select
//!   (a tie may still win on slot, hence *strictly* above);
//! * `r_sq` while the row holds a hit but no bar (its nearest is already a
//!   hit, at most `r_sq` away);
//! * `max(r_sq, nearest so far)` while the row is empty, because then the
//!   nearest candidate is the fallback.
//!
//! The bound is `(dx·dx + dy·dy) + dz·dz` over the per-axis gaps between
//! the query and the box, with the kernels' own separate multiply and add.
//! Every step of the kernels' distance — the difference, the square, the
//! two sums — is a correctly rounded operation that is monotone in its
//! operands, and each gap is at most the candidate's difference on that
//! axis, so the bound is at most every distance the kernels compute for a
//! candidate in the box; NaN gaps count as 0. A skipped run therefore holds
//! no candidate that could have entered a row or replaced the nearest: rows,
//! hit counts and fallbacks are the unpruned ones, bit for bit, on every
//! backend. A fused multiply-add would round the bound once instead of
//! twice and could land above the kernels' own distance.
//!
//! The kernels read contiguous SoA slices. Block sampling and grouping pass
//! runs of a block-order copy of the cloud, laid out once per frame; a
//! caller whose subset is scattered (block interpolation's sources) first
//! gathers it into local SoA buffers with [`gather_coords`]. Either way a
//! block is loaded once and reused for every query — the software analogue
//! of §V-C's intra-block reuse.
//!
//! # Dense layers
//!
//! [`linear_into`] is the one dense-layer kernel (`y = [relu](W·x + b)` over
//! a row-major `rows × cin` matrix), a register-tiled GEMM over weights
//! packed once by [`pack_linear_weights`] into [`LINEAR_PANEL`]-column
//! panels (`cin × 16` contiguous, the last panel zero-padded). The loop nest
//! is panel-outer / row-tile-inner, so a panel stays cache-resident while
//! every input row streams past it.
//!
//! The order contract: **SIMD lanes run across `cout`, never across `cin`**.
//! Every output element is still `bias[o] + Σᵢ w[o][i]·x[i]` accumulated in
//! ascending `i` with a separate multiply and add (no FMA, no partial sums,
//! no reduction tree) — the per-element operation order of the plain
//! `row × cout × cin` triple loop, which therefore serves as the test oracle
//! (`tests/backend_equivalence.rs`) and keeps results bit-identical on every
//! backend. The fused ReLU is the select idiom `if acc > 0.0 { acc } else
//! { 0.0 }` (`_mm256_max_ps(acc, zero)`): `f32::max(acc, 0.0)` with NaN →
//! `0.0`, and the signed-zero tie `f32::max` leaves unspecified resolved to
//! `+0.0`.
//!
//! # Partition passes
//!
//! [`count_le`], [`scatter_le`] and [`extrema`] are the three passes the
//! Fractal build makes over a node's contiguous runs (Alg. 1, Fig. 9(c)):
//! count the points on the near side of the split plane, scatter the run
//! into its two children (stable, so a child keeps source order), take each
//! child's extrema per axis for the next plane. They carry no counters and
//! no scratch. The backends agree bit for bit, NaN coordinates and signed
//! zeros included; the one tie `f32::min`/`max` leave open is settled in
//! [`extrema`] itself, outside the backends.
//!
//! # Caller-provided scratch
//!
//! No kernel allocates for itself: [`distances_sq`] takes its output slice,
//! [`gather_coords`] reuses the caller's SoA vectors, and the batched
//! selection drivers [`knn_select_batch_into`] / [`ball_select_batch_into`]
//! keep their top-k heaps, distance tiles and key rows inside a caller-owned
//! [`SelectScratch`]. A warmed scratch makes the drivers allocation-free,
//! and a dirty one gives the same results as a fresh one.

#[cfg(target_arch = "x86_64")]
mod avx2;
mod soa;

use std::cell::Cell;
use std::sync::OnceLock;

/// Number of lanes processed per chunk.
///
/// 64 `f32` lanes = 256 bytes per coordinate stream — a full cache line per
/// axis on common 64-byte-line machines, and wide enough for 4–16-lane SIMD
/// units to unroll cleanly. Also the width of the fused ball-scan hit mask
/// (`u64`).
pub const CHUNK: usize = 64;

/// Queries scored per candidate pass by the batched selection kernels.
///
/// Eight queries share every [`CHUNK`]-sized coordinate load; the per-tile
/// distance scratch (8 × 64 lanes) stays within a few KiB of L1.
pub const QUERY_TILE: usize = 8;

/// Output columns per packed weight panel of the dense-layer kernel
/// ([`linear_into`]): two 8-lane vectors, so a 4-row tile holds its 4 × 16
/// accumulators in eight 256-bit registers.
pub const LINEAR_PANEL: usize = 16;

/// Channels one register strip of [`segmented_max_into`] accumulates across
/// a whole neighbor list: eight 8-lane vectors, half the sixteen 256-bit
/// registers.
pub(crate) const SEGMENT_STRIP: usize = 64;

/// A kernel implementation, selectable at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Chunked auto-vectorizable SoA loops (portable fast path).
    Soa,
    /// Explicit AVX2 intrinsics (x86-64 with runtime feature detection).
    Avx2,
}

impl Backend {
    /// All backends, in increasing order of specialization.
    pub const ALL: [Backend; 2] = [Backend::Soa, Backend::Avx2];

    /// The backend's `FRACTALCLOUD_KERNEL` name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Soa => "soa",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parses a `FRACTALCLOUD_KERNEL` value (case-insensitive).
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "soa" => Some(Backend::Soa),
            "avx2" => Some(Backend::Avx2),
            _ => None,
        }
    }

    /// Whether this backend can run on the current host.
    ///
    /// `Soa` is always available; `Avx2` requires an x86-64
    /// host whose CPU reports AVX2 support at runtime.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Soa => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => false,
        }
    }
}

/// Replaces an unavailable backend with the portable SoA path.
fn resolve(backend: Backend) -> Backend {
    if backend.is_available() {
        backend
    } else {
        Backend::Soa
    }
}

/// The fastest backend available on this host.
fn best_available() -> Backend {
    if Backend::Avx2.is_available() {
        Backend::Avx2
    } else {
        Backend::Soa
    }
}

/// One-time startup selection: `FRACTALCLOUD_KERNEL` when it names an
/// available backend, otherwise the best available backend.
fn detect() -> Backend {
    if let Ok(v) = std::env::var("FRACTALCLOUD_KERNEL") {
        if let Some(b) = Backend::from_name(&v) {
            return resolve(b);
        }
    }
    best_available()
}

thread_local! {
    static OVERRIDE: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// The backend all dispatched kernels run on.
///
/// Selected once per process (see [module docs](self)); a thread-local
/// [`with_backend`] override takes precedence. The returned backend is
/// always available on this host.
pub fn active_backend() -> Backend {
    if let Some(b) = OVERRIDE.with(|o| o.get()) {
        return resolve(b);
    }
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(detect)
}

/// Runs `f` with `backend` as the active backend on this thread.
///
/// The override is thread-local: work dispatched to other threads (e.g.
/// parallel block scheduling) keeps the process-wide selection. Unavailable
/// backends fall back to [`Backend::Soa`], so equivalence tests stay
/// portable. The previous override is restored even if `f` panics.
pub fn with_backend<T>(backend: Backend, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(backend))));
    f()
}

/// Dispatches `$name(args…)` to the resolved backend module.
macro_rules! dispatch {
    ($backend:expr, $name:ident($($arg:expr),* $(,)?)) => {
        match resolve($backend) {
            Backend::Soa => soa::$name($($arg),*),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => avx2::$name($($arg),*),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => unreachable!("AVX2 backend never resolves on non-x86-64 hosts"),
        }
    };
}

fn assert_soa(xs: &[f32], ys: &[f32], zs: &[f32]) {
    assert_eq!(ys.len(), xs.len(), "ys length mismatch");
    assert_eq!(zs.len(), xs.len(), "zs length mismatch");
}

/// Writes the squared Euclidean distance from `q` to every point of the SoA
/// slices into `out`, on the active backend.
///
/// This is the core shared by KNN, ball query and interpolation: one pass,
/// no branches, no struct materialization.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn distances_sq(xs: &[f32], ys: &[f32], zs: &[f32], q: [f32; 3], out: &mut [f32]) {
    assert_soa(xs, ys, zs);
    assert_eq!(out.len(), xs.len(), "out length mismatch");
    dispatch!(active_backend(), distances_sq(xs, ys, zs, q, out));
}

/// One FPS iteration, fused: relaxes the running nearest-sample distances
/// `dist` against the newest sample `q` and returns the index of the new
/// farthest point (first maximum wins on ties), on the active backend.
///
/// Per candidate this computes the squared distance branch-free, lowers
/// `dist` with the `min` select idiom (equivalent to the oracle's
/// `if d < dist[i]` update, including for NaN distances, which leave `dist`
/// unchanged), then reduces to the running argmax. Entries already selected
/// can be pinned to `f32::NEG_INFINITY` by the caller; the strict `>`
/// comparison then keeps them from ever winning again.
///
/// # Panics
///
/// Panics if the slice lengths differ, `dist.len() != xs.len()`, or the
/// candidate set is empty (an empty set has no argmax).
pub fn fps_relax_argmax(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    q: [f32; 3],
    dist: &mut [f32],
) -> usize {
    fps_relax_argmax_with(active_backend(), xs, ys, zs, q, dist)
}

/// [`fps_relax_argmax`] on an explicit backend (unavailable backends fall
/// back to [`Backend::Soa`]).
///
/// # Panics
///
/// Panics if the slice lengths differ, `dist.len() != xs.len()`, or the
/// candidate set is empty (an empty set has no argmax).
pub fn fps_relax_argmax_with(
    backend: Backend,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    q: [f32; 3],
    dist: &mut [f32],
) -> usize {
    assert_soa(xs, ys, zs);
    assert_eq!(dist.len(), xs.len(), "dist length mismatch");
    // Checked here so every backend fails identically: an empty set has
    // no argmax, and the chunked paths would index out of bounds.
    assert!(!xs.is_empty(), "fps_relax_argmax needs at least one candidate");
    dispatch!(backend, fps_relax_argmax(xs, ys, zs, q, dist))
}

/// Segmented max-aggregation over neighbor index lists, on the active
/// backend — the delayed-aggregation (Mesorasi) primitive: instead of
/// materializing a duplicated `segments × num × channels` grouped feature
/// matrix and pooling it, each output row is the channel-wise maximum of
/// the *unique* feature rows its index list names.
///
/// `features` holds `n` unique rows of `channels` values (row-major);
/// `indices` holds one `num`-slot row per segment (row `c` spans
/// `c * num .. c * num + num`), of which the first `counts[c]` entries are
/// aggregated; `out` receives `counts.len()` rows of `channels` values. A
/// segment with `counts[c] == 0` yields a row of `f32::NEG_INFINITY` — the
/// pooling identity, matching an eager max-pool over zero rows.
///
/// The loop nest is segment-outer, strip-middle, neighbor-inner: for each
/// segment, a strip of up to 64 channels keeps its accumulators in vector
/// registers while the whole index list streams past, is stored once, and
/// the next strip walks the list again (channels beyond the last whole
/// strip take narrower strips and a short tail). Each output element still
/// folds its neighbors in list order starting from `f32::NEG_INFINITY`, so
/// the strip width changes only speed.
///
/// All backends use the same strict-`>` select idiom, so results are
/// bit-identical: NaN feature values never overwrite the accumulator, and
/// `±0.0` ties keep the accumulator. Aggregation is a pure reduction —
/// duplicate indices (ball-query padding, `k ≥ n` repeats) cannot change
/// the maximum, so the result equals an eager max-pool over the padded
/// grouped matrix whenever every padded slot repeats a listed neighbor.
///
/// That is the hits rule: a ball-query row pads its `found` in-radius hits
/// by repeating slot 0 (a row with no hit holds one fallback entry), so
/// pooling its first `found.clamp(1, num)` slots returns the same bits as
/// pooling all `num` — a segment's count is its hits, not its slots.
///
/// Counter accounting is the caller's job, like every kernel here:
/// `counts[c]` feature-row reads and one row write per segment.
///
/// # Panics
///
/// Panics if `features.len()` is not a multiple of `channels` (when
/// `channels > 0`), some `counts[c] > num`, `indices` is shorter than
/// `counts.len() * num`, `out.len() != counts.len() * channels`, or an
/// index names a row outside `features`.
pub fn segmented_max_into(
    features: &[f32],
    channels: usize,
    indices: &[usize],
    counts: &[usize],
    num: usize,
    out: &mut [f32],
) {
    segmented_max_into_with(active_backend(), features, channels, indices, counts, num, out);
}

/// [`segmented_max_into`] on an explicit backend (unavailable backends fall
/// back to [`Backend::Soa`]).
///
/// # Panics
///
/// As [`segmented_max_into`].
pub fn segmented_max_into_with(
    backend: Backend,
    features: &[f32],
    channels: usize,
    indices: &[usize],
    counts: &[usize],
    num: usize,
    out: &mut [f32],
) {
    if channels > 0 {
        assert_eq!(features.len() % channels, 0, "features is not whole rows");
    }
    assert!(counts.iter().all(|&c| c <= num), "a segment count exceeds the row stride");
    assert!(indices.len() >= counts.len() * num, "indices shorter than counts.len() * num");
    assert_eq!(out.len(), counts.len() * channels, "out length mismatch");
    dispatch!(backend, segmented_max(features, channels, indices, counts, num, out));
}

/// Packs a `cout × cin` weight matrix, streamed in row-major order, into the
/// panel layout [`linear_into`] consumes: `ceil(cout / 16)` panels of
/// [`LINEAR_PANEL`] output columns, each `cin × 16` contiguous
/// (`panel[i * 16 + j]` is `w[16·p + j][i]`), the last panel zero-padded —
/// at most 15 padding columns per layer. Taking a stream lets a caller that
/// generates its weights write them straight into the packed form, with no
/// row-major copy ever resident.
///
/// # Panics
///
/// Panics if `weights` does not yield exactly `cout * cin` values.
pub fn pack_linear_weights(
    weights: impl IntoIterator<Item = f32>,
    cin: usize,
    cout: usize,
) -> Vec<f32> {
    let mut weights = weights.into_iter();
    let mut packed = vec![0.0; cout.div_ceil(LINEAR_PANEL) * cin * LINEAR_PANEL];
    for o in 0..cout {
        let column = (o / LINEAR_PANEL) * cin * LINEAR_PANEL + o % LINEAR_PANEL;
        for w in packed[column..].iter_mut().step_by(LINEAR_PANEL).take(cin) {
            *w = weights.next().expect("weights shorter than cout × cin");
        }
    }
    assert!(weights.next().is_none(), "weights longer than cout × cin");
    packed
}

/// The dense-layer kernel: `out = [relu](W·input + bias)` for a row-major
/// `rows × cin` input and `rows × bias.len()` output, over weights packed by
/// [`pack_linear_weights`], on an explicit backend (unavailable backends
/// fall back to [`Backend::Soa`]). See the [module docs](self#dense-layers)
/// for the loop nest and the per-element order contract that keeps every
/// backend bit-identical to the plain triple loop.
///
/// # Panics
///
/// Panics if `cin == 0`, `packed` is not the packed form of a
/// `bias.len() × cin` matrix, `input` is not whole rows, or `out` is not
/// `rows × bias.len()`.
pub fn linear_into(
    backend: Backend,
    packed: &[f32],
    bias: &[f32],
    cin: usize,
    relu: bool,
    input: &[f32],
    out: &mut [f32],
) {
    assert!(cin > 0, "dense layer needs at least one input channel");
    let cout = bias.len();
    assert_eq!(
        packed.len(),
        cout.div_ceil(LINEAR_PANEL) * cin * LINEAR_PANEL,
        "packed weights do not match cout × cin"
    );
    assert_eq!(input.len() % cin, 0, "input width mismatch");
    assert_eq!(out.len(), input.len() / cin * cout, "out length mismatch");
    if out.is_empty() {
        return;
    }
    dispatch!(backend, linear(packed, bias, cin, relu, input, out));
}

/// Pass 1 of a fractal split: how many coordinates of a run are `<= mid`,
/// on the active backend. A NaN coordinate — or a NaN `mid` — never counts.
///
/// # Panics
///
/// Panics if the run holds more than `u32::MAX` elements (the backends
/// count in 32-bit lanes).
pub fn count_le(coords: &[f32], mid: f32) -> usize {
    assert!(u32::try_from(coords.len()).is_ok(), "run too long for 32-bit lane counters");
    dispatch!(active_backend(), count_le(coords, mid))
}

/// Pass 2 of a fractal split: the stable two-way scatter of a node's four
/// parallel runs (three coordinate arrays and the points' original
/// indices), on the active backend. The elements whose `key` is `<= mid`
/// go to `dst[..l_len]`, the rest — NaN keys among them — to
/// `dst[l_len..]`, both sides in source order. `key` is the run the split
/// plane cuts (one of `src`, usually) and `l_len` must be
/// [`count_le`]`(key, mid)`: with any other `l_len <= len` the call stays
/// memory-safe but may panic, and leaves `dst` unspecified.
///
/// # Panics
///
/// Panics if the nine slices differ in length or `l_len` exceeds it.
pub fn scatter_le(
    key: &[f32],
    mid: f32,
    l_len: usize,
    src: [&[f32]; 3],
    src_idx: &[u32],
    dst: [&mut [f32]; 3],
    dst_idx: &mut [u32],
) {
    let n = key.len();
    assert!(src.iter().all(|s| s.len() == n) && src_idx.len() == n, "source length mismatch");
    assert!(dst.iter().all(|d| d.len() == n) && dst_idx.len() == n, "destination length mismatch");
    assert!(l_len <= n, "left population exceeds the run");
    dispatch!(active_backend(), scatter_le(key, mid, l_len, src, src_idx, dst, dst_idx));
}

/// Pass 3 of a fractal split: `(min, max)` of a non-empty run, on the
/// active backend — what folding `f32::min` / `f32::max` over the run from
/// its first element gives, computed lane-wise, with the one thing that
/// fold leaves open pinned down:
///
/// * a NaN is skipped; only a run of nothing but NaNs has NaN extrema
///   (which of its NaNs is unspecified);
/// * `f32::min`/`max` may return either zero of a `-0.0`/`+0.0` tie, so the
///   sign of a zero extremum would depend on the fold order. It is defined
///   instead, as `-0.0 < +0.0`: a zero minimum is `-0.0` if the run holds
///   one, a zero maximum `+0.0` if the run holds one. The rule is applied
///   here, after the backend's fold, so it cannot differ between backends.
///
/// # Panics
///
/// Panics if the run is empty.
pub fn extrema(v: &[f32]) -> (f32, f32) {
    assert!(!v.is_empty(), "extrema of an empty run");
    let (lo, hi) = dispatch!(active_backend(), extrema(v));
    let holds = |zero: f32| v.iter().fold(false, |s, c| s | (c.to_bits() == zero.to_bits()));
    let lo = if lo == 0.0 { [0.0, -0.0][usize::from(holds(-0.0))] } else { lo };
    let hi = if hi == 0.0 { [-0.0, 0.0][usize::from(holds(0.0))] } else { hi };
    (lo, hi)
}

/// Gathers the coordinates at `indices` into local SoA buffers (cleared
/// first) — loading a block into on-chip memory, in software.
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn gather_coords(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    indices: &[usize],
    out_xs: &mut Vec<f32>,
    out_ys: &mut Vec<f32>,
    out_zs: &mut Vec<f32>,
) {
    out_xs.clear();
    out_ys.clear();
    out_zs.clear();
    out_xs.reserve(indices.len());
    out_ys.reserve(indices.len());
    out_zs.reserve(indices.len());
    for &i in indices {
        out_xs.push(xs[i]);
        out_ys.push(ys[i]);
        out_zs.push(zs[i]);
    }
}

/// Ascending top-`k` insertion buffer over a precomputed distance stream —
/// the software form of the RSPU's merge-sort top-k unit.
///
/// `select` scans `(distance, payload)` pairs in order, maintaining the `k`
/// smallest in ascending order with the oracle's exact semantics:
/// candidates tying the current worst are rejected (`>=`), equal distances
/// keep scan order, a NaN distance is never selected (ball selection's
/// rule: it has no place in an ascending row), and `on_insert(len_before)`
/// is invoked for every accepted candidate so callers can replicate the
/// oracle's insertion-cost accounting.
///
/// Internally the scan is two-phase: once the buffer holds `k` entries, a
/// branch-reduced prefilter compacts the lanes that can still be accepted
/// (`d < worst`, a single vectorizable compare per lane) and only the
/// survivors reach the branchy sorted insertion. The threshold only
/// tightens as survivors insert, and every survivor is re-checked against
/// the current worst, so the accepted set — and therefore the `on_insert`
/// sequence — is identical to the one-candidate-at-a-time formulation.
#[derive(Debug, Clone)]
pub struct TopK {
    buf: Vec<(f32, usize)>,
    k: usize,
}

/// Prefilter sub-chunk width of [`TopK::select_offset`]'s second phase.
const PREFILTER: usize = 64;

impl TopK {
    /// A buffer selecting the `k` smallest distances.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> TopK {
        assert!(k > 0, "k must be at least 1");
        TopK { buf: Vec::with_capacity(k + 1), k }
    }

    /// Clears the buffer for reuse with the next query.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Clears the buffer *and* retargets it to select `k` smallest — the
    /// reuse form of [`TopK::new`] for pooled scratch, reallocating only
    /// when `k` grows past the retained capacity.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "k must be at least 1");
        self.buf.clear();
        // `reserve` is relative to the (now zero) length, so this asks for
        // the full k + 1 slots, not the shortfall past the old capacity.
        self.buf.reserve(k + 1);
        self.k = k;
    }

    /// Scans `distances`, keeping the `k` nearest `(distance, index)` pairs;
    /// indices are the scan positions. Calls `on_insert(len_before)` per
    /// accepted candidate.
    pub fn select(&mut self, distances: &[f32], on_insert: impl FnMut(usize)) {
        self.select_offset(distances, 0, on_insert);
    }

    /// [`select`](TopK::select) over one chunk of a larger scan: stored
    /// payload indices are offset by `base`, and repeated calls with
    /// ascending `base` are equivalent to one `select` over the
    /// concatenated stream. This is the portable incremental form; the
    /// batched drivers instead prefilter each chunk with the fused
    /// distance + compare kernels and feed the surviving mask lanes to the
    /// buffer directly.
    pub fn select_offset(
        &mut self,
        distances: &[f32],
        base: usize,
        mut on_insert: impl FnMut(usize),
    ) {
        // Phase 1: sorted insertion of every number until the buffer holds k.
        let mut i = 0;
        while self.buf.len() < self.k && i < distances.len() {
            self.insert(distances[i], base + i, &mut on_insert);
            i += 1;
        }
        // Phase 2: branch-reduced threshold prefilter, then insert only the
        // survivors. The worst is a number (NaN is never inserted), so
        // `d < worst` rejects NaN candidates too.
        let mut lanes = [0u8; PREFILTER];
        while i < distances.len() {
            let len = PREFILTER.min(distances.len() - i);
            let sub = &distances[i..i + len];
            let worst = self.buf[self.k - 1].0;
            // Whole-chunk reject test first: a branch-free 0/1 sum the
            // compiler vectorizes. Once the buffer has converged, almost
            // every chunk is fully rejected here and never reaches the
            // serial compaction (a NaN lane keeps its chunk alive, and the
            // compaction then drops it).
            let mut rejects = 0usize;
            for &d in sub {
                rejects += usize::from(d >= worst);
            }
            if rejects == len {
                i += len;
                continue;
            }
            let mut m = 0usize;
            for (j, &d) in sub.iter().enumerate() {
                lanes[m] = j as u8;
                m += usize::from(d < worst);
            }
            for &l in &lanes[..m] {
                // `insert` re-checks against the *current* worst: it only
                // tightens, so lanes dropped by the prefilter could never be
                // accepted.
                self.insert(sub[l as usize], base + i + l as usize, &mut on_insert);
            }
            i += len;
        }
    }

    /// The selected `(distance, index)` pairs, ascending.
    pub fn as_slice(&self) -> &[(f32, usize)] {
        &self.buf
    }

    /// Inserts `(d, index)` in ascending place if the buffer accepts it:
    /// any number while it is filling, one strictly below the worst once it
    /// is full, never a NaN.
    #[inline]
    fn insert(&mut self, d: f32, index: usize, on_insert: &mut impl FnMut(usize)) {
        let accept = if self.buf.len() < self.k { !d.is_nan() } else { d < self.buf[self.k - 1].0 };
        if !accept {
            return;
        }
        let pos = self.buf.partition_point(|&(bd, _)| bd <= d);
        on_insert(self.buf.len());
        self.buf.insert(pos, (d, index));
        if self.buf.len() > self.k {
            self.buf.pop();
        }
    }

    /// The selection as a row of exactly `len` pairs (`len` at least the
    /// selected count, at most `k`): a row short of it — its NaN candidates
    /// were never selected — repeats its last pair, and an empty one is
    /// candidate 0 at `+∞`.
    fn padded(&mut self, len: usize) -> &[(f32, usize)] {
        let last = self.buf.last().copied().unwrap_or((f32::INFINITY, 0));
        self.buf.resize(len, last);
        &self.buf
    }

    /// The fused-prefilter threshold: the current worst distance when the
    /// buffer is full, else NaN. `!(d >= NaN)` is true for every `d`, so a
    /// NaN threshold makes the prefilter keep all lanes — exactly the
    /// oracle's behavior while the buffer is still filling.
    fn prefilter_threshold(&self) -> f32 {
        if self.buf.len() == self.k {
            self.buf[self.k - 1].0
        } else {
            f32::NAN
        }
    }

    /// Inserts the lanes of `mask` (ascending scan order) from a distance
    /// row whose prefilter used [`prefilter_threshold`](Self::prefilter_threshold):
    /// every masked lane runs the full reference acceptance check, so the
    /// result is identical to scanning the whole row — lanes the prefilter
    /// dropped had `d >= worst` at chunk start, and the worst only tightens.
    fn insert_masked(
        &mut self,
        distances: &[f32],
        mask: u64,
        base: usize,
        mut on_insert: impl FnMut(usize),
    ) {
        for l in mask_lanes(mask) {
            self.insert(distances[l], base + l, &mut on_insert);
        }
    }
}

/// Reusable scratch for the batched selection drivers: per-tile top-k
/// heaps, the tile's distance rows, and the ball driver's packed-key rows.
///
/// One warmed `SelectScratch` makes [`knn_select_batch_into`] and
/// [`ball_select_batch_into`] allocation-free in steady state (buffers only
/// grow when `k`/`num`/the tile width grow past anything seen before). A
/// scratch carries no results between calls — every driver fully resets the
/// portions it uses — so reusing a "dirty" scratch is bit-identical to a
/// fresh one, and the same scratch can serve KNN and ball queries
/// interchangeably.
#[derive(Debug, Default)]
pub struct SelectScratch {
    topks: Vec<TopK>,
    dbuf: Vec<f32>,
    /// One row of packed hit keys per tile query (ball driver): sorted up
    /// to `num` 16, a selection buffer above.
    keys: Vec<u64>,
    /// The row handed to the ball driver's `emit`, unpacked from `keys`.
    hits: Vec<(f32, usize)>,
    nearests: Vec<(f32, usize)>,
}

impl SelectScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> SelectScratch {
        SelectScratch::default()
    }
}

/// Batched KNN selection: the `k` nearest candidates for every query, with
/// tiles of [`QUERY_TILE`] queries sharing each pass over the candidate
/// chunks.
///
/// `emit(query, pairs)` is called once per query, in query order, with the
/// ascending `(distance_sq, candidate_index)` pairs, `min(k, n)` of them. A
/// NaN distance is never selected: a row it leaves short repeats its last
/// pair, and a row with none selected is candidate 0 at `+∞` (a NaN query,
/// an all-NaN candidate set). `on_insert(len_before)` is forwarded
/// from the per-query [`TopK`] buffers for insertion-cost accounting; the
/// per-query call sequences are identical to unbatched scans (tiling only
/// interleaves them between queries).
///
/// The per-tile [`TopK`] heaps and the tile distance rows live in the
/// caller-owned [`SelectScratch`] and are reused across calls (and across
/// queries of any batch size), so a warmed scratch performs no heap
/// allocation; a dirty scratch gives the same results as a fresh one.
///
/// # Panics
///
/// Panics if the slice lengths differ or `k` is zero.
#[allow(clippy::too_many_arguments)]
pub fn knn_select_batch_into(
    backend: Backend,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    queries: &[[f32; 3]],
    k: usize,
    scratch: &mut SelectScratch,
    mut emit: impl FnMut(usize, &[(f32, usize)]),
    mut on_insert: impl FnMut(usize),
) {
    assert_soa(xs, ys, zs);
    let n = xs.len();
    let tile_cap = QUERY_TILE.min(queries.len().max(1));
    while scratch.topks.len() < tile_cap {
        scratch.topks.push(TopK::new(k));
    }
    let topks = &mut scratch.topks[..tile_cap];
    for t in topks.iter_mut() {
        t.reset(k);
    }
    if scratch.dbuf.len() < tile_cap * CHUNK {
        scratch.dbuf.resize(tile_cap * CHUNK, 0.0);
    }
    let dbuf = &mut scratch.dbuf[..];
    for (tile_idx, tile) in queries.chunks(QUERY_TILE).enumerate() {
        for t in topks[..tile.len()].iter_mut() {
            t.clear();
        }
        let mut thresholds = [0.0f32; QUERY_TILE];
        let mut masks = [0u64; QUERY_TILE];
        let mut base = 0;
        while base < n {
            let len = CHUNK.min(n - base);
            let (xc, yc, zc) =
                (&xs[base..base + len], &ys[base..base + len], &zs[base..base + len]);
            for (qi, topk) in topks[..tile.len()].iter().enumerate() {
                thresholds[qi] = topk.prefilter_threshold();
            }
            // One fused dispatched call scores the whole tile against this
            // chunk and prefilters each row against its query's threshold
            // (the AVX2 path keeps the coordinate vectors in registers
            // across all tile queries); selection then touches only the
            // surviving mask lanes.
            dispatch!(
                backend,
                knn_prefilter_tile(
                    xc,
                    yc,
                    zc,
                    tile,
                    &thresholds[..tile.len()],
                    &mut *dbuf,
                    &mut masks,
                )
            );
            for (qi, topk) in topks[..tile.len()].iter_mut().enumerate() {
                topk.insert_masked(
                    &dbuf[qi * CHUNK..qi * CHUNK + len],
                    masks[qi],
                    base,
                    &mut on_insert,
                );
            }
            base += len;
        }
        for (qi, topk) in topks[..tile.len()].iter_mut().enumerate() {
            emit(tile_idx * QUERY_TILE + qi, topk.padded(k.min(n)));
        }
    }
}

/// Batched ball-query selection: the `num` nearest candidates within
/// `sqrt(r_sq)` for every query, with tiles of [`QUERY_TILE`] queries
/// sharing each pass over the candidate chunks.
///
/// Per chunk the fused distance + compare kernel produces a hit bitmask
/// (`d <= r_sq`, and at most the distance of the query's bar once it has
/// one) and the chunk's minimum. Each hit lane is packed into a `u64` key
/// — distance bits above the candidate slot, whose integer order is the
/// canonical `(distance, scan order)` order — and added to the query's key
/// row: inserted branch-free into an ascending row up to `num` 16, appended
/// to a buffer that keeps its `num` smallest by selection above; see the
/// [module docs](self#batched-query-selection) for why that order holds and
/// how the row follows `num`. The result is the canonical
/// nearest-`num`-within-radius set: equal distances keep scan order, and a
/// hit tying the current worst is rejected.
///
/// `emit(query, pairs, nearest)` is called once per query, in query order,
/// with the ascending `(distance_sq, candidate_index)` hits and the
/// overall-nearest candidate (`(f32::INFINITY, usize::MAX)` when no
/// distance was strictly below `+∞`, e.g. for an empty candidate set) for
/// the empty-ball fallback.
///
/// The per-tile key rows, the unpacked hit row and the nearest-candidate
/// trackers live in the caller-owned [`SelectScratch`] and are reused
/// across calls, so a warmed scratch performs no heap allocation; a dirty
/// scratch gives the same results as a fresh one.
///
/// # Panics
///
/// Panics if the slice lengths differ, `num` is zero, or there are more
/// than `u32::MAX` candidates (a hit's slot is the low half of its key).
#[allow(clippy::too_many_arguments)]
pub fn ball_select_batch_into(
    backend: Backend,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    queries: &[[f32; 3]],
    r_sq: f32,
    num: usize,
    scratch: &mut SelectScratch,
    emit: impl FnMut(usize, &[(f32, usize)], (f32, usize)),
) {
    let all = [CandidateRun::unbounded(0, xs.len())];
    ball_select_runs_into(backend, xs, ys, zs, queries, r_sq, num, &all, scratch, emit);
}

/// A stretch of consecutive candidate slots, `start..end`, that
/// [`ball_select_runs_into`] scans as one unit, with a box `lo..=hi` that
/// holds every candidate of the run on every axis (a NaN coordinate
/// aside): a block of the search space and its tight box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateRun {
    /// The run's first slot.
    pub start: usize,
    /// One past the run's last slot.
    pub end: usize,
    /// The box's least corner.
    pub lo: [f32; 3],
    /// The box's greatest corner.
    pub hi: [f32; 3],
}

impl CandidateRun {
    /// Slots `start..end` in an unbounded box: never skipped.
    pub fn unbounded(start: usize, end: usize) -> CandidateRun {
        CandidateRun { start, end, lo: [f32::NEG_INFINITY; 3], hi: [f32::INFINITY; 3] }
    }

    /// A lower bound of every squared distance the selection kernels
    /// compute from `q` to a candidate in the box: the per-axis gaps (0
    /// inside the box's slab, and for a NaN gap) squared and summed in the
    /// kernels' order with separate multiplies and adds; see the
    /// [module docs](self#batched-query-selection) for why it is exact. `0`
    /// for an unbounded run.
    #[inline]
    fn lower_bound(&self, q: [f32; 3]) -> f32 {
        let gap = |k: usize| (self.lo[k] - q[k]).max(q[k] - self.hi[k]).max(0.0);
        let (dx, dy, dz) = (gap(0), gap(1), gap(2));
        dx * dx + dy * dy + dz * dz
    }
}

/// Inserts the hit lanes `mask` of one chunk's distance row `dists` (lane
/// `l` is candidate slot `base + l`) into one query's ascending key row —
/// packed hit keys, then `i64::MAX as u64` sentinels — on `backend`: ball
/// selection's per-(query, chunk) step for `num <= 16` (see the
/// [module docs](self#batched-query-selection)). Every backend leaves the
/// same row.
///
/// # Panics
///
/// Panics if `row` is not 8 or 16 keys wide or a lane of `mask` is not
/// below `dists.len()`.
pub fn ball_insert_hits(backend: Backend, row: &mut [u64], dists: &[f32], mask: u64, base: usize) {
    if let Ok(row) = <&mut [u64; 8]>::try_from(&mut *row) {
        dispatch!(backend, ball_insert_hits(row, dists, mask, base))
    } else {
        let row: &mut [u64; 16] = row.try_into().expect("key rows are 8 or 16 keys wide");
        dispatch!(backend, ball_insert_hits(row, dists, mask, base))
    }
}

/// Key of an unoccupied selection slot: it orders after every hit key as
/// `u64` and as `i64` (the AVX2 row compares are signed), and its distance
/// half is a NaN; see the [module docs](self#batched-query-selection).
const EMPTY_KEY: u64 = i64::MAX as u64;

/// Packs a hit into its selection key: squared-distance bits above the
/// candidate slot. A hit satisfies `+0.0 <= d <= r_sq` — a sum of squares is
/// never `-0.0`, and the ordered radius compare rejects NaN — and on that
/// range `f32` bit patterns order like the values (`+∞` included), so `u64`
/// order on keys is `(distance, slot)` order.
#[inline]
fn pack_hit(d: f32, slot: usize) -> u64 {
    (u64::from(d.to_bits()) << 32) | slot as u64
}

/// The `(distance, slot)` pair [`pack_hit`] packed.
#[inline]
fn unpack_hit(key: u64) -> (f32, usize) {
    (f32::from_bits((key >> 32) as u32), key as u32 as usize)
}

/// The prefilter threshold (a lane survives iff `!(d >= thr)`) a row's
/// worst key implies: the next `f32` above its distance, so a tie — which
/// a lower slot wins after the scan wraps — survives; NaN, which keeps
/// every lane, for [`EMPTY_KEY`] and a `+∞` worst.
#[inline]
fn key_threshold(key: u64) -> f32 {
    let bits = (key >> 32) as u32;
    if bits < f32::INFINITY.to_bits() {
        f32::from_bits(bits + 1)
    } else {
        f32::NAN
    }
}

/// The set bits of `mask`, ascending.
#[inline]
fn mask_lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let l = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (l < 64).then_some(l)
    })
}

/// Inserts `key` into the ascending row `a`, dropping the largest: every
/// slot becomes `max(a[i - 1], min(a[i], key))` — `a[i]` where it is below
/// the key, the key where it lands, the left neighbour after it. No compare
/// feeds a branch and no slot depends on another's new value.
#[inline]
fn insert_key_pass<const W: usize>(a: &mut [u64; W], key: u64) {
    for i in (1..W).rev() {
        a[i] = a[i - 1].max(a[i].min(key));
    }
    a[0] = a[0].min(key);
}

/// [`ball_select_batch_into`] with the scan of every query starting at the
/// chunk that holds candidate slot `first` and wrapping around (from chunk
/// 0 when `first` is past the candidates): two unbounded runs through
/// [`ball_select_runs_into`]. Slots still number the candidates in slice
/// order, and every emitted row and nearest candidate equals the
/// `first = 0` result: see the [module docs](self#batched-query-selection).
///
/// # Panics
///
/// As [`ball_select_batch_into`].
#[allow(clippy::too_many_arguments)]
pub fn ball_select_rotated_into(
    backend: Backend,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    queries: &[[f32; 3]],
    r_sq: f32,
    num: usize,
    first: usize,
    scratch: &mut SelectScratch,
    emit: impl FnMut(usize, &[(f32, usize)], (f32, usize)),
) {
    let n = xs.len();
    let start = if first < n { first - first % CHUNK } else { 0 };
    let runs = [CandidateRun::unbounded(start, n), CandidateRun::unbounded(0, start)];
    ball_select_runs_into(backend, xs, ys, zs, queries, r_sq, num, &runs, scratch, emit);
}

/// The ball-selection driver: [`ball_select_batch_into`]'s rows over the
/// candidates of `runs`, scanned run by run in list order, each run in
/// [`CHUNK`]s from its own start (a chunk that would end short at a run's
/// end runs on into the next run when that run starts there and is not
/// skipped). A run is skipped for a whole tile of
/// queries when its box cannot hold a candidate that would change any of
/// the tile's rows or nearest candidates, so every emitted row and nearest
/// candidate equals the one an unpruned scan of the same slots gives; see
/// the [module docs](self#batched-query-selection). Block grouping passes
/// one run per block of its search space, its queries' own block first,
/// and stages each block's queries so that a tile's queries lie close
/// together.
///
/// # Panics
///
/// As [`ball_select_batch_into`], and if a run reaches past the
/// candidates. Runs must not overlap: a slot in two runs would be
/// inserted twice.
#[allow(clippy::too_many_arguments)]
pub fn ball_select_runs_into(
    backend: Backend,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    queries: &[[f32; 3]],
    r_sq: f32,
    num: usize,
    runs: &[CandidateRun],
    scratch: &mut SelectScratch,
    mut emit: impl FnMut(usize, &[(f32, usize)], (f32, usize)),
) {
    assert_soa(xs, ys, zs);
    assert!(num > 0, "num must be at least 1");
    assert!(xs.len() <= u32::MAX as usize, "candidate slots must fit the key's low 32 bits");
    let stride = KeyRows::stride(num);
    let tile_cap = QUERY_TILE.min(queries.len().max(1));
    if scratch.keys.len() < tile_cap * stride {
        scratch.keys.resize(tile_cap * stride, EMPTY_KEY);
    }
    if scratch.nearests.len() < tile_cap {
        scratch.nearests.resize(tile_cap, (f32::INFINITY, usize::MAX));
    }
    if scratch.dbuf.len() < tile_cap * CHUNK {
        scratch.dbuf.resize(tile_cap * CHUNK, 0.0);
    }
    let mut rows = KeyRows::new(&mut scratch.keys[..tile_cap * stride], num);
    let nearests = &mut scratch.nearests[..tile_cap];
    let dbuf = &mut scratch.dbuf[..];
    let hits = &mut scratch.hits;
    for (tile_idx, tile) in queries.chunks(QUERY_TILE).enumerate() {
        rows.clear();
        nearests.fill((f32::INFINITY, usize::MAX));
        let mut thresholds = [0.0f32; QUERY_TILE];
        let mut masks = [0u64; QUERY_TILE];
        let mut mins = [f32::INFINITY; QUERY_TILE];
        let mut next = 0;
        while let Some(run) = runs.get(next) {
            next += 1;
            if out_of_reach(run, tile, &rows, nearests, r_sq) {
                continue;
            }
            let (mut base, mut end) = (run.start, run.end);
            while base < end {
                // A chunk that would stop short at the run's end runs on
                // into the next run instead, when that run starts right
                // there and the bars as they stand now cannot skip it (they
                // only tighten, so a run out of reach stays so).
                if end - base < CHUNK {
                    if let Some(after) = runs.get(next).filter(|after| after.start == end) {
                        if !out_of_reach(after, tile, &rows, nearests, r_sq) {
                            end = after.end;
                            next += 1;
                            continue;
                        }
                    }
                }
                let len = CHUNK.min(end - base);
                let (xc, yc, zc) =
                    (&xs[base..base + len], &ys[base..base + len], &zs[base..base + len]);
                // Acceptance prefilter thresholds: once a query's bar is a
                // hit, only hits at or below its distance can be accepted —
                // the fused tile kernel drops the rest before selection ever
                // sees them (bit-identical results; the threshold only
                // tightens within the chunk). While the bar is empty the
                // threshold is NaN, and `!(d >= NaN)` keeps every in-radius
                // lane (+inf distances included), exactly like the knn
                // prefilter's filling sentinel.
                for (qi, thr) in thresholds.iter_mut().enumerate().take(tile.len()) {
                    *thr = key_threshold(rows.bar(qi));
                }
                // One fused dispatched call scores the whole tile against this
                // chunk (the AVX2 path keeps the coordinate vectors in
                // registers across all tile queries), producing per-query hit
                // masks and chunk minima.
                dispatch!(
                    backend,
                    ball_prefilter_tile(
                        xc,
                        yc,
                        zc,
                        tile,
                        r_sq,
                        &thresholds[..tile.len()],
                        &mut *dbuf,
                        &mut masks,
                        &mut mins,
                    )
                );
                for qi in 0..tile.len() {
                    let row = &dbuf[qi * CHUNK..qi * CHUNK + len];
                    let cmin = mins[qi];
                    let (near, near_slot) = nearests[qi];
                    // The running nearest is the least `(distance, slot)` seen
                    // so far. A chunk improves it with a smaller minimum, or with
                    // an equal finite one at lower slots (runs are disjoint, so
                    // the whole chunk lies below the slot). `+∞` never rescans: an all-NaN chunk's minimum is `+∞` with no
                    // lane holding it.
                    if cmin < near || (cmin == near && cmin < f32::INFINITY && base < near_slot) {
                        // Lazy first-occurrence rescan: only chunks that improve
                        // the running nearest pay it (the first chunk or two of
                        // a scan), and the stored row makes it backend-neutral —
                        // the same (value, earliest-lane) pair every backend's
                        // eager tracking produced.
                        let mut l = 0;
                        while row[l] != cmin {
                            l += 1;
                        }
                        nearests[qi] = (cmin, base + l);
                    }
                    // Every surviving lane goes into the row unconditionally:
                    // one that the tightened threshold would now reject is
                    // never among the `num` emitted.
                    if masks[qi] != 0 {
                        rows.insert(backend, qi, row, masks[qi], base);
                    }
                }
                base += len;
            }
        }
        for (qi, &nearest) in nearests.iter().enumerate().take(tile.len()) {
            hits.clear();
            hits.extend(rows.finish(qi).iter().map(|&k| unpack_hit(k)));
            emit(tile_idx * QUERY_TILE + qi, hits, nearest);
        }
    }
}

/// One tile's key rows in [`ball_select_runs_into`], [`KeyRows::stride`]
/// keys per query, built one of two ways fixed by `num`.
///
/// A narrow row (`num <= 16`) is 8 or 16 ascending keys, sentinels after the
/// hits, and takes each chunk's hits through [`ball_insert_hits`]. A wide
/// row is an unordered buffer of `2·num + CHUNK` keys: each chunk's hits are
/// appended, and once it holds more than `2·num` keys one
/// `select_nth_unstable` keeps the `num` smallest, the largest of them in
/// slot `num - 1`. It is sorted once, when emitted. Keys are unique, so
/// both forms emit the same `num` smallest keys in the same order.
struct KeyRows<'a> {
    keys: &'a mut [u64],
    num: usize,
    stride: usize,
    wide: bool,
    /// Keys each wide row holds.
    lens: [usize; QUERY_TILE],
    /// Each wide row's bar key: slot `num - 1` after its latest select,
    /// [`EMPTY_KEY`] before its first.
    bars: [u64; QUERY_TILE],
}

impl<'a> KeyRows<'a> {
    /// Keys per row for `num`. The full-pass update of a narrow row needs
    /// its width at compile time (it unrolls into straight-line
    /// compare/select code) and costs O(width) per hit. Past 16 keys,
    /// appending and selecting costs less per hit than a count-and-shift
    /// insertion: PointNet++ (c)'s grouping of a 1k object (`num` 32 and
    /// 64) took ≈ 261 µs against ≈ 526 µs, sequential on 2 vCPUs. Selecting
    /// a narrow row's first chunk measured no gain on a 64k scene.
    fn stride(num: usize) -> usize {
        match num {
            ..=8 => 8,
            9..=16 => 16,
            _ => 2 * num + CHUNK,
        }
    }

    fn new(keys: &'a mut [u64], num: usize) -> KeyRows<'a> {
        let stride = KeyRows::stride(num);
        let wide = stride > 16;
        KeyRows { keys, num, stride, wide, lens: [0; QUERY_TILE], bars: [EMPTY_KEY; QUERY_TILE] }
    }

    /// Empties every row.
    fn clear(&mut self) {
        if self.wide {
            self.lens = [0; QUERY_TILE];
            self.bars = [EMPTY_KEY; QUERY_TILE];
        } else {
            self.keys.fill(EMPTY_KEY);
        }
    }

    /// Query `qi`'s bar key: at or above its `num`-th smallest hit so far,
    /// or [`EMPTY_KEY`] while it is not known to hold `num` hits. A wide
    /// row's bar lags until its buffer is selected, which only admits more.
    #[inline]
    fn bar(&self, qi: usize) -> u64 {
        if self.wide {
            self.bars[qi]
        } else {
            self.keys[qi * self.stride + self.num - 1]
        }
    }

    /// Whether query `qi`'s row holds a hit.
    #[inline]
    fn holds_hit(&self, qi: usize) -> bool {
        if self.wide {
            self.lens[qi] > 0
        } else {
            self.keys[qi * self.stride] != EMPTY_KEY
        }
    }

    /// Adds the hit lanes `mask` of one chunk's distance row `dists` (lane
    /// `l` is candidate slot `base + l`) to query `qi`'s row.
    #[inline]
    fn insert(&mut self, backend: Backend, qi: usize, dists: &[f32], mask: u64, base: usize) {
        let row = &mut self.keys[qi * self.stride..(qi + 1) * self.stride];
        if !self.wide {
            ball_insert_hits(backend, row, dists, mask, base);
            return;
        }
        let len = &mut self.lens[qi];
        for l in mask_lanes(mask) {
            row[*len] = pack_hit(dists[l], base + l);
            *len += 1;
        }
        if *len > 2 * self.num {
            row[..*len].select_nth_unstable(self.num - 1);
            *len = self.num;
            self.bars[qi] = row[self.num - 1];
        }
    }

    /// Query `qi`'s hits: its `num` smallest keys, ascending.
    fn finish(&mut self, qi: usize) -> &[u64] {
        let (num, row) = (self.num, &mut self.keys[qi * self.stride..(qi + 1) * self.stride]);
        if !self.wide {
            let held = row[..num].iter().take_while(|&&k| k != EMPTY_KEY).count();
            return &row[..held];
        }
        let len = self.lens[qi];
        if len > num {
            row[..len].select_nth_unstable(num - 1);
        }
        let row = &mut row[..len.min(num)];
        row.sort_unstable();
        row
    }
}

/// Whether no candidate in `run`'s box can change the row or the nearest
/// candidate of any query of `tile`: the box's lower bound is strictly above
/// every query's bar — its bar key's distance once it has one, `r_sq` while
/// it holds a hit, `max(r_sq, nearest so far)` while it is empty (see the
/// [module docs](self#batched-query-selection)). A NaN bound or bar never
/// skips.
#[inline]
fn out_of_reach(
    run: &CandidateRun,
    tile: &[[f32; 3]],
    rows: &KeyRows<'_>,
    nearests: &[(f32, usize)],
    r_sq: f32,
) -> bool {
    tile.iter().zip(nearests).enumerate().all(|(qi, (&q, &(near, _)))| {
        let bar = match rows.bar(qi) {
            EMPTY_KEY if rows.holds_hit(qi) => r_sq,
            EMPTY_KEY => r_sq.max(near),
            key => unpack_hit(key).0,
        };
        run.lower_bound(q) > bar
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soa_of(points: &[[f32; 3]]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        (
            points.iter().map(|p| p[0]).collect(),
            points.iter().map(|p| p[1]).collect(),
            points.iter().map(|p| p[2]).collect(),
        )
    }

    fn available() -> Vec<Backend> {
        Backend::ALL.into_iter().filter(|b| b.is_available()).collect()
    }

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name(" AVX2 "), Some(Backend::Avx2));
        assert_eq!(Backend::from_name("neon"), None);
    }

    #[test]
    fn active_backend_is_available() {
        assert!(active_backend().is_available());
    }

    #[test]
    fn with_backend_overrides_and_restores() {
        let outer = active_backend();
        let avx2 = resolve(Backend::Avx2);
        with_backend(Backend::Avx2, || {
            assert_eq!(active_backend(), avx2);
            with_backend(Backend::Soa, || assert_eq!(active_backend(), Backend::Soa));
            assert_eq!(active_backend(), avx2);
        });
        assert_eq!(active_backend(), outer);
    }

    #[test]
    fn distances_match_scalar_formula_on_every_backend() {
        let pts: Vec<[f32; 3]> =
            (0..200).map(|i| [i as f32 * 0.1, (i % 7) as f32, -(i as f32)]).collect();
        let (xs, ys, zs) = soa_of(&pts);
        let q = [1.5f32, 2.0, -3.0];
        for b in available() {
            let mut out = vec![0.0; pts.len()];
            with_backend(b, || distances_sq(&xs, &ys, &zs, q, &mut out));
            for (i, p) in pts.iter().enumerate() {
                let expect = (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2);
                assert_eq!(out[i], expect, "lane {i} on {}", b.name());
            }
        }
    }

    #[test]
    fn relax_argmax_first_max_wins_on_ties() {
        // Two equidistant candidates: the lower index must win, matching the
        // oracle's strict `>` scan.
        let (xs, ys, zs) = soa_of(&[[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]]);
        for b in available() {
            let mut dist = vec![f32::INFINITY; 3];
            let best = fps_relax_argmax_with(b, &xs, &ys, &zs, [0.0, 0.0, 0.0], &mut dist);
            assert_eq!(best, 1, "index 1 ties index 2 and precedes it ({})", b.name());
            assert_eq!(dist, vec![0.0, 4.0, 4.0]);
        }
    }

    #[test]
    fn relax_argmax_skips_pinned_entries() {
        let (xs, ys, zs) = soa_of(&[[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [1.0, 0.0, 0.0]]);
        for b in available() {
            let mut dist = vec![f32::INFINITY; 3];
            dist[1] = f32::NEG_INFINITY; // already sampled
            let best = fps_relax_argmax_with(b, &xs, &ys, &zs, [0.0, 0.0, 0.0], &mut dist);
            assert_eq!(best, 2, "pinned entry 1 cannot win ({})", b.name());
            assert_eq!(dist[1], f32::NEG_INFINITY, "pinned stays pinned");
        }
    }

    #[test]
    fn relax_argmax_spans_chunk_boundaries() {
        let n = CHUNK * 3 + 17;
        let pts: Vec<[f32; 3]> = (0..n).map(|i| [i as f32, 0.0, 0.0]).collect();
        let (xs, ys, zs) = soa_of(&pts);
        for b in available() {
            let mut dist = vec![f32::INFINITY; n];
            let best = fps_relax_argmax_with(b, &xs, &ys, &zs, [0.0, 0.0, 0.0], &mut dist);
            assert_eq!(best, n - 1, "farthest point is in the final partial chunk ({})", b.name());
        }
    }

    #[test]
    fn relax_argmax_rejects_empty_input_on_every_backend() {
        for b in available() {
            let caught = std::panic::catch_unwind(|| {
                let mut dist: Vec<f32> = Vec::new();
                fps_relax_argmax_with(b, &[], &[], &[], [0.0; 3], &mut dist)
            });
            assert!(caught.is_err(), "empty input must panic identically ({})", b.name());
        }
    }

    #[test]
    fn nan_distances_leave_dist_unchanged() {
        let (xs, ys, zs) = soa_of(&[[f32::NAN, 0.0, 0.0], [1.0, 0.0, 0.0]]);
        for b in available() {
            let mut dist = vec![7.0f32, f32::INFINITY];
            fps_relax_argmax_with(b, &xs, &ys, &zs, [0.0, 0.0, 0.0], &mut dist);
            assert_eq!(dist[0], 7.0, "NaN candidate must not lower dist ({})", b.name());
            assert_eq!(dist[1], 1.0);
        }
    }

    #[test]
    fn select_batches_reuse_a_dirty_scratch_bit_identically() {
        let pts: Vec<[f32; 3]> =
            (0..157).map(|i| [(i as f32 * 0.73).sin() * 10.0, (i % 13) as f32, i as f32]).collect();
        let (xs, ys, zs) = soa_of(&pts);
        let queries: Vec<[f32; 3]> = (0..11).map(|i| pts[i * 14]).collect();
        for b in available() {
            let mut dirty = SelectScratch::new();
            // Dirty the scratch with a different shape (k=9, then ball num=2).
            knn_select_batch_into(
                b,
                &xs,
                &ys,
                &zs,
                &queries[..3],
                9,
                &mut dirty,
                |_, _| {},
                |_| {},
            );
            ball_select_batch_into(b, &xs, &ys, &zs, &queries, 0.9, 2, &mut dirty, |_, _, _| {});
            // Reused dirty scratch vs the allocating wrapper: identical.
            let mut via_scratch: Vec<Vec<(f32, usize)>> = Vec::new();
            knn_select_batch_into(
                b,
                &xs,
                &ys,
                &zs,
                &queries,
                5,
                &mut dirty,
                |_, pairs| via_scratch.push(pairs.to_vec()),
                |_| {},
            );
            let mut fresh: Vec<Vec<(f32, usize)>> = Vec::new();
            knn_select_batch_into(
                b,
                &xs,
                &ys,
                &zs,
                &queries,
                5,
                &mut SelectScratch::new(),
                |_, p| fresh.push(p.to_vec()),
                |_| {},
            );
            assert_eq!(via_scratch, fresh, "dirty scratch diverged on {}", b.name());

            type BallRow = (Vec<(f32, usize)>, (f32, usize));
            let mut ball_scratch: Vec<BallRow> = Vec::new();
            ball_select_batch_into(b, &xs, &ys, &zs, &queries, 0.5, 4, &mut dirty, |_, best, n| {
                ball_scratch.push((best.to_vec(), n));
            });
            let mut ball_fresh: Vec<BallRow> = Vec::new();
            ball_select_batch_into(
                b,
                &xs,
                &ys,
                &zs,
                &queries,
                0.5,
                4,
                &mut SelectScratch::new(),
                |_, best, n| {
                    ball_fresh.push((best.to_vec(), n));
                },
            );
            assert_eq!(ball_scratch, ball_fresh, "dirty ball scratch diverged on {}", b.name());
        }
    }

    #[test]
    fn gather_builds_local_soa() {
        let (xs, ys, zs) = soa_of(&[[0.0, 10.0, 20.0], [1.0, 11.0, 21.0], [2.0, 12.0, 22.0]]);
        let (mut gx, mut gy, mut gz) = (Vec::new(), Vec::new(), Vec::new());
        gather_coords(&xs, &ys, &zs, &[2, 0], &mut gx, &mut gy, &mut gz);
        assert_eq!(gx, vec![2.0, 0.0]);
        assert_eq!(gy, vec![12.0, 10.0]);
        assert_eq!(gz, vec![22.0, 20.0]);
    }

    #[test]
    fn topk_keeps_k_smallest_in_order() {
        let mut topk = TopK::new(3);
        let mut inserts = 0;
        topk.select(&[5.0, 1.0, 4.0, 0.5, 9.0, 0.7], |_| inserts += 1);
        let got: Vec<(f32, usize)> = topk.as_slice().to_vec();
        assert_eq!(got, vec![(0.5, 3), (0.7, 5), (1.0, 1)]);
        assert_eq!(inserts, 5, "9.0 is rejected by the full-buffer threshold");
    }

    #[test]
    fn topk_equal_distances_keep_scan_order() {
        let mut topk = TopK::new(2);
        topk.select(&[1.0, 1.0, 1.0], |_| {});
        assert_eq!(topk.as_slice(), &[(1.0, 0), (1.0, 1)]);
    }

    #[test]
    fn topk_select_offset_matches_single_select() {
        let distances: Vec<f32> = (0..300).map(|i| ((i * 37) % 101) as f32).collect();
        let mut whole = TopK::new(7);
        let mut whole_inserts = Vec::new();
        whole.select(&distances, |l| whole_inserts.push(l));
        let mut chunked = TopK::new(7);
        let mut chunked_inserts = Vec::new();
        let mut base = 0;
        for chunk in distances.chunks(CHUNK) {
            chunked.select_offset(chunk, base, |l| chunked_inserts.push(l));
            base += chunk.len();
        }
        assert_eq!(whole.as_slice(), chunked.as_slice());
        assert_eq!(whole_inserts, chunked_inserts);
    }

    /// One chunk through `ball_prefilter_tile` on backend `b`: per-query
    /// `(mask, chunk minimum)`.
    fn prefilter_tile(
        b: Backend,
        pts: &[[f32; 3]],
        queries: &[[f32; 3]],
        r_sq: f32,
        thresholds: &[f32],
    ) -> Vec<(u64, f32)> {
        let (xs, ys, zs) = soa_of(pts);
        let mut out = vec![0.0f32; queries.len() * CHUNK];
        let mut masks = [0u64; QUERY_TILE];
        let mut mins = [0.0f32; QUERY_TILE];
        dispatch!(
            b,
            ball_prefilter_tile(
                &xs, &ys, &zs, queries, r_sq, thresholds, &mut out, &mut masks, &mut mins
            )
        );
        (0..queries.len()).map(|qi| (masks[qi], mins[qi])).collect()
    }

    #[test]
    fn ball_prefilter_tile_masks_hits_under_each_querys_threshold() {
        let pts =
            [[3.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [9.0, 0.0, 0.0]];
        for b in available() {
            // The same query under three thresholds: filling (NaN keeps every
            // in-radius lane), +inf, and a finite one that additionally drops
            // hits at or above it (strict <) without touching the minimum.
            let got = prefilter_tile(b, &pts, &[[0.0; 3]; 3], 1.0, &[f32::NAN, f32::INFINITY, 1.0]);
            assert_eq!(got[0], (0b01110, 0.25), "hits are d² <= 1 ({})", b.name());
            assert_eq!(got[1], (0b01110, 0.25), "{}", b.name());
            assert_eq!(got[2], (0b01000, 0.25), "only d² < 1 survives thr = 1 ({})", b.name());
        }
    }

    #[test]
    fn ball_prefilter_tile_nan_lanes_never_hit() {
        // Lane 0's distance is NaN, lane 1's +inf: neither is within a finite
        // radius and neither lowers the minimum; under an infinite radius the
        // +inf lane is a hit (`inf <= inf`) and the NaN lane still is not.
        let pts = [[f32::NAN, 0.0, 0.0], [f32::INFINITY, 0.0, 0.0]];
        for b in available() {
            for thr in [f32::NAN, f32::INFINITY] {
                let got = prefilter_tile(b, &pts, &[[0.0; 3]], 1e30, &[thr]);
                assert_eq!(got[0], (0, f32::INFINITY), "thr {thr} on {}", b.name());
            }
            let got = prefilter_tile(b, &pts, &[[0.0; 3]], f32::INFINITY, &[f32::NAN]);
            assert_eq!(got[0], (0b10, f32::INFINITY), "{}", b.name());
        }
    }

    #[test]
    fn ball_batch_nearest_is_the_first_occurrence_of_the_minimum() {
        // Nothing is in radius, so only the fallback is reported: the minimum
        // distance 1.0 occurs at candidates 1 and 2 of the first chunk and
        // again in the second; the earliest must win. NaN and +inf
        // candidates alone leave the sentinel.
        let mut pts = vec![[3.0f32, 0.0, 0.0]; CHUNK + 5];
        pts[1] = [1.0, 0.0, 0.0];
        pts[2] = [-1.0, 0.0, 0.0];
        pts[CHUNK + 1] = [0.0, 1.0, 0.0];
        let (xs, ys, zs) = soa_of(&pts);
        let (nx, ny, nz) = soa_of(&[[f32::NAN, 0.0, 0.0], [f32::INFINITY, 0.0, 0.0]]);
        for b in available() {
            ball_select_batch_into(
                b,
                &xs,
                &ys,
                &zs,
                &[[0.0; 3]],
                0.01,
                3,
                &mut SelectScratch::new(),
                |_, best, nearest| {
                    assert!(best.is_empty());
                    assert_eq!(nearest, (1.0, 1), "{}", b.name());
                },
            );
            ball_select_batch_into(
                b,
                &nx,
                &ny,
                &nz,
                &[[0.0; 3]],
                1e30,
                3,
                &mut SelectScratch::new(),
                |_, best, nearest| {
                    assert!(best.is_empty());
                    assert_eq!(nearest, (f32::INFINITY, usize::MAX), "{}", b.name());
                },
            );
        }
    }

    #[test]
    fn rotated_ball_batch_nearest_is_the_first_occurrence_of_the_minimum() {
        // The minimum 1.0 ties at slots 1 and 2 (chunk 0), CHUNK + 1 and
        // 2 * CHUNK + 3: wherever the scan starts, the fallback is slot 1
        // and, with radius 1, the two hits kept are slots 1 and 2 — reached
        // last when the scan starts past them, tying the row's worst.
        let mut pts = vec![[3.0f32, 0.0, 0.0]; 3 * CHUNK + 5];
        pts[1] = [1.0, 0.0, 0.0];
        pts[2] = [-1.0, 0.0, 0.0];
        pts[CHUNK + 1] = [0.0, 1.0, 0.0];
        pts[2 * CHUNK + 3] = [0.0, 0.0, -1.0];
        let (xs, ys, zs) = soa_of(&pts);
        for b in available() {
            for first in [0, 2, CHUNK, CHUNK + 7, 2 * CHUNK + 3, 3 * CHUNK + 4, 10_000] {
                let mut got = Vec::new();
                for r_sq in [0.01, 1.0] {
                    ball_select_rotated_into(
                        b,
                        &xs,
                        &ys,
                        &zs,
                        &[[0.0; 3]],
                        r_sq,
                        2,
                        first,
                        &mut SelectScratch::new(),
                        |_, best, nearest| got.push((best.to_vec(), nearest)),
                    );
                }
                let want = [(vec![], (1.0, 1)), (vec![(1.0, 1), (1.0, 2)], (1.0, 1))];
                assert_eq!(got, want, "first {first} on {}", b.name());
            }
        }
    }

    #[test]
    fn rotated_ball_batch_scanning_an_all_nan_chunk_first_reports_the_sentinel() {
        // The NaN chunk's minimum is +∞ with no lane holding it, and it is
        // scanned while the running nearest is still +∞: it must not be
        // rescanned. The +∞-distance chunk after it cannot improve either.
        let mut pts = vec![[f32::INFINITY, 0.0, 0.0]; CHUNK + 5];
        pts[CHUNK..].fill([f32::NAN, 0.0, 0.0]);
        let (xs, ys, zs) = soa_of(&pts);
        for b in available() {
            ball_select_rotated_into(
                b,
                &xs,
                &ys,
                &zs,
                &[[0.0; 3]],
                1e30,
                3,
                CHUNK,
                &mut SelectScratch::new(),
                |_, best, nearest| {
                    assert!(best.is_empty());
                    assert_eq!(nearest, (f32::INFINITY, usize::MAX), "{}", b.name());
                },
            );
        }
    }

    #[test]
    fn empty_key_orders_after_every_hit_key_signed_and_unsigned() {
        for d in [0.0f32, 0.16, f32::INFINITY] {
            let key = pack_hit(d, u32::MAX as usize);
            assert!(EMPTY_KEY > key, "u64, d = {d}");
            assert!(EMPTY_KEY as i64 > key as i64, "i64, d = {d}");
        }
        assert!(key_threshold(EMPTY_KEY).is_nan(), "an empty slot keeps every lane");
    }

    #[test]
    fn knn_batch_matches_per_query_topk() {
        let pts: Vec<[f32; 3]> =
            (0..157).map(|i| [(i as f32 * 0.73).sin() * 10.0, (i % 13) as f32, i as f32]).collect();
        let (xs, ys, zs) = soa_of(&pts);
        // 11 queries: not a multiple of QUERY_TILE.
        let queries: Vec<[f32; 3]> = (0..11).map(|i| pts[i * 14]).collect();
        let k = 5;
        for b in available() {
            let mut batched: Vec<Vec<(f32, usize)>> = Vec::new();
            let mut batched_inserts = 0u64;
            knn_select_batch_into(
                b,
                &xs,
                &ys,
                &zs,
                &queries,
                k,
                &mut SelectScratch::new(),
                |qi, pairs| {
                    assert_eq!(qi, batched.len(), "emit must be in query order");
                    batched.push(pairs.to_vec());
                },
                |_| batched_inserts += 1,
            );
            let mut single_inserts = 0u64;
            for (qi, q) in queries.iter().enumerate() {
                let mut dbuf = vec![0.0f32; pts.len()];
                with_backend(b, || distances_sq(&xs, &ys, &zs, *q, &mut dbuf));
                let mut topk = TopK::new(k);
                topk.select(&dbuf, |_| single_inserts += 1);
                assert_eq!(batched[qi], topk.as_slice(), "query {qi} on {}", b.name());
            }
            assert_eq!(batched_inserts, single_inserts, "insert accounting ({})", b.name());
        }
    }

    #[test]
    fn knn_batch_k_larger_than_candidates_emits_all() {
        let (xs, ys, zs) = soa_of(&[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]);
        knn_select_batch_into(
            active_backend(),
            &xs,
            &ys,
            &zs,
            &[[0.0; 3]],
            5,
            &mut SelectScratch::new(),
            |_, pairs| assert_eq!(pairs.len(), 2),
            |_| {},
        );
    }

    #[test]
    fn ball_batch_matches_sequential_reference_semantics() {
        let pts: Vec<[f32; 3]> = (0..200)
            .map(|i| [((i * 31) % 17) as f32 * 0.3, ((i * 7) % 11) as f32 * 0.3, 0.0])
            .collect();
        let (xs, ys, zs) = soa_of(&pts);
        let queries: Vec<[f32; 3]> = (0..9).map(|i| pts[i * 21]).collect();
        let (r_sq, num) = (0.5f32, 4usize);
        for b in available() {
            type BallResult = (Vec<(f32, usize)>, (f32, usize));
            let mut got: Vec<BallResult> = Vec::new();
            ball_select_batch_into(
                b,
                &xs,
                &ys,
                &zs,
                &queries,
                r_sq,
                num,
                &mut SelectScratch::new(),
                |_, best, nearest| {
                    got.push((best.to_vec(), nearest));
                },
            );
            for (qi, q) in queries.iter().enumerate() {
                // Scalar reference formulation.
                let mut best: Vec<(f32, usize)> = Vec::new();
                let mut nearest = (f32::INFINITY, usize::MAX);
                for (i, p) in pts.iter().enumerate() {
                    let d = (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2);
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
                assert_eq!(got[qi].0, best, "query {qi} on {}", b.name());
                assert_eq!(got[qi].1, nearest, "nearest for query {qi} on {}", b.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "num must be at least 1")]
    fn ball_batch_rejects_zero_num() {
        ball_select_batch_into(
            active_backend(),
            &[0.0],
            &[0.0],
            &[0.0],
            &[[0.0; 3]],
            1.0,
            0,
            &mut SelectScratch::new(),
            |_, _, _| {},
        );
    }

    #[test]
    fn ball_batch_keeps_infinite_distance_hits_while_filling() {
        // Squared distances can overflow to +inf for far-apart finite
        // points; with an (overflowed) infinite radius the reference
        // accepts them as hits. The acceptance prefilter's filling
        // sentinel (NaN, `!(d >= NaN)` keeps all) must not drop them.
        let (xs, ys, zs) = soa_of(&[[1.9e19, 0.0, 0.0], [1.0, 0.0, 0.0]]);
        for b in available() {
            let mut got: Vec<Vec<(f32, usize)>> = Vec::new();
            ball_select_batch_into(
                b,
                &xs,
                &ys,
                &zs,
                &[[-1.9e19, 0.0, 0.0]],
                f32::INFINITY,
                4,
                &mut SelectScratch::new(),
                |_, best, _| got.push(best.to_vec()),
            );
            // Both squared distances overflow to +inf; both are hits under
            // the (overflowed) infinite radius, kept in scan order.
            assert_eq!(
                got[0],
                vec![(f32::INFINITY, 0), (f32::INFINITY, 1)],
                "+inf-distance hits must survive the filling prefilter ({})",
                b.name()
            );
        }
    }

    #[test]
    fn segmented_max_matches_reference_reduction_on_every_backend() {
        let channels = 11; // not a multiple of the SIMD width: exercises tails
        let n = 37;
        let features: Vec<f32> =
            (0..n * channels).map(|i| ((i * 73) % 101) as f32 - 50.0).collect();
        let num = 5;
        let counts = [5usize, 3, 0, 1, 5];
        let indices: Vec<usize> = (0..counts.len() * num).map(|i| (i * 17) % n).collect();
        let mut expect = vec![f32::NEG_INFINITY; counts.len() * channels];
        for (c, &count) in counts.iter().enumerate() {
            for &i in &indices[c * num..c * num + count] {
                for ch in 0..channels {
                    let v = features[i * channels + ch];
                    if v > expect[c * channels + ch] {
                        expect[c * channels + ch] = v;
                    }
                }
            }
        }
        for b in available() {
            let mut got = vec![0.0; counts.len() * channels];
            with_backend(b, || {
                segmented_max_into(&features, channels, &indices, &counts, num, &mut got)
            });
            assert_eq!(got, expect, "backend {}", b.name());
            let mut out = vec![f32::NAN; counts.len() * channels];
            segmented_max_into_with(b, &features, channels, &indices, &counts, num, &mut out);
            assert_eq!(out, expect, "into form on {}", b.name());
        }
    }

    #[test]
    fn segmented_max_empty_segment_is_neg_infinity() {
        let features = [1.0f32, 2.0];
        let mut out = vec![0.0; 2];
        segmented_max_into(&features, 2, &[0, 0], &[0], 2, &mut out);
        assert_eq!(out, vec![f32::NEG_INFINITY; 2]);
    }

    #[test]
    fn segmented_max_duplicate_indices_do_not_change_the_maximum() {
        // Ball-query padding repeats real neighbors; a reduction over the
        // padded row must equal one over the distinct entries.
        let features: Vec<f32> = (0..4 * 8).map(|i| (i % 13) as f32).collect();
        for b in available() {
            let padded = segmented_max_with_backend(b, &features, 8, &[1, 3, 1, 1, 1, 1], &[6], 6);
            let distinct = segmented_max_with_backend(b, &features, 8, &[1, 3], &[2], 2);
            assert_eq!(padded, distinct, "padding changed the maximum on {}", b.name());
        }
    }

    fn segmented_max_with_backend(
        b: Backend,
        features: &[f32],
        channels: usize,
        indices: &[usize],
        counts: &[usize],
        num: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0; counts.len() * channels];
        segmented_max_into_with(b, features, channels, indices, counts, num, &mut out);
        out
    }

    #[test]
    fn segmented_max_nan_features_never_overwrite() {
        let features = [f32::NAN, 5.0, 1.0, f32::NAN];
        for b in available() {
            let out = segmented_max_with_backend(b, &features, 2, &[0, 1], &[2], 2);
            assert_eq!(out[0], 1.0, "NaN lane must not win on {}", b.name());
            assert_eq!(out[1], 5.0, "NaN in row 1 must not erase 5.0 on {}", b.name());
        }
    }

    #[test]
    fn ball_batch_empty_candidates_reports_sentinel() {
        let empty: [f32; 0] = [];
        ball_select_batch_into(
            active_backend(),
            &empty,
            &empty,
            &empty,
            &[[0.0; 3]],
            1.0,
            3,
            &mut SelectScratch::new(),
            |_, best, nearest| {
                assert!(best.is_empty());
                assert_eq!(nearest, (f32::INFINITY, usize::MAX));
            },
        );
    }

    /// The ball-selection driver as it was before candidate runs, kept
    /// verbatim as the oracle of the pruned one: one rotated scan over
    /// every chunk, no run ever skipped.
    #[allow(clippy::too_many_arguments)]
    fn ball_select_unpruned(
        backend: Backend,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        queries: &[[f32; 3]],
        r_sq: f32,
        num: usize,
        first: usize,
        scratch: &mut SelectScratch,
        mut emit: impl FnMut(usize, &[(f32, usize)], (f32, usize)),
    ) {
        assert_soa(xs, ys, zs);
        assert!(num > 0, "num must be at least 1");
        assert!(xs.len() <= u32::MAX as usize, "candidate slots must fit the key's low 32 bits");
        // The full-pass update needs its row width at compile time (it unrolls
        // into straight-line compare/select code) and costs O(width) per hit: it
        // measured 1.5× faster than count + shift at `num` 16; a 32-wide pass
        // was 1.05× faster at `num` 32 and 1.09× slower at 17, so rows stop at 16.
        // Slots past `num` only ever hold keys above `row[num - 1]`: acceptance,
        // the hit count and the emitted row all read the first `num`.
        let width = match num {
            ..=8 => 8,
            9..=16 => 16,
            _ => num,
        };
        let n = xs.len();
        let start = if first < n { first - first % CHUNK } else { 0 };
        let tile_cap = QUERY_TILE.min(queries.len().max(1));
        if scratch.keys.len() < tile_cap * width {
            scratch.keys.resize(tile_cap * width, EMPTY_KEY);
        }
        if scratch.nearests.len() < tile_cap {
            scratch.nearests.resize(tile_cap, (f32::INFINITY, usize::MAX));
        }
        if scratch.dbuf.len() < tile_cap * CHUNK {
            scratch.dbuf.resize(tile_cap * CHUNK, 0.0);
        }
        let keys = &mut scratch.keys[..tile_cap * width];
        let nearests = &mut scratch.nearests[..tile_cap];
        let dbuf = &mut scratch.dbuf[..];
        let hits = &mut scratch.hits;
        for (tile_idx, tile) in queries.chunks(QUERY_TILE).enumerate() {
            keys.fill(EMPTY_KEY);
            nearests.fill((f32::INFINITY, usize::MAX));
            let mut thresholds = [0.0f32; QUERY_TILE];
            let mut masks = [0u64; QUERY_TILE];
            let mut mins = [f32::INFINITY; QUERY_TILE];
            for base in (start..n).step_by(CHUNK).chain((0..start).step_by(CHUNK)) {
                let len = CHUNK.min(n - base);
                let (xc, yc, zc) =
                    (&xs[base..base + len], &ys[base..base + len], &zs[base..base + len]);
                // Acceptance prefilter thresholds: once a query's first `num`
                // slots are occupied, only hits at or below its current worst
                // distance can be accepted — the fused tile kernel drops the
                // rest before selection ever sees them (bit-identical results;
                // the threshold only tightens within the chunk). While slot
                // `num - 1` is empty the threshold is NaN, and `!(d >= NaN)`
                // keeps every in-radius lane (+inf distances included), exactly
                // like the knn prefilter's filling sentinel.
                for (thr, row) in thresholds.iter_mut().zip(keys.chunks_exact(width)) {
                    *thr = key_threshold(row[num - 1]);
                }
                // One fused dispatched call scores the whole tile against this
                // chunk (the AVX2 path keeps the coordinate vectors in
                // registers across all tile queries), producing per-query hit
                // masks and chunk minima.
                dispatch!(
                    backend,
                    ball_prefilter_tile(
                        xc,
                        yc,
                        zc,
                        tile,
                        r_sq,
                        &thresholds[..tile.len()],
                        &mut *dbuf,
                        &mut masks,
                        &mut mins,
                    )
                );
                for (qi, krow) in keys.chunks_exact_mut(width).take(tile.len()).enumerate() {
                    let row = &dbuf[qi * CHUNK..qi * CHUNK + len];
                    let cmin = mins[qi];
                    let (near, near_slot) = nearests[qi];
                    // The running nearest is the least `(distance, slot)` seen
                    // so far. A chunk improves it with a smaller minimum, or with
                    // an equal finite one at lower slots (after the wrap). `+∞`
                    // never rescans: an all-NaN chunk's minimum is `+∞` with no
                    // lane holding it.
                    if cmin < near || (cmin == near && cmin < f32::INFINITY && base < near_slot) {
                        // Lazy first-occurrence rescan: only chunks that improve
                        // the running nearest pay it (the first chunk or two of
                        // a scan), and the stored row makes it backend-neutral —
                        // the same (value, earliest-lane) pair every backend's
                        // eager tracking produced.
                        let mut l = 0;
                        while row[l] != cmin {
                            l += 1;
                        }
                        nearests[qi] = (cmin, base + l);
                    }
                    // Every surviving lane is inserted unconditionally: one
                    // that the tightened threshold would now reject lands past
                    // slot `num - 1` or falls off the row.
                    if width <= 16 {
                        ball_insert_hits(backend, krow, row, masks[qi], base);
                    } else {
                        for l in mask_lanes(masks[qi]) {
                            insert_key_shift(krow, pack_hit(row[l], base + l));
                        }
                    }
                }
            }
            for (qi, krow) in keys.chunks_exact(width).take(tile.len()).enumerate() {
                hits.clear();
                hits.extend(
                    krow[..num].iter().take_while(|&&k| k != EMPTY_KEY).map(|&k| unpack_hit(k)),
                );
                emit(tile_idx * QUERY_TILE + qi, hits, nearests[qi]);
            }
        }
    }

    /// [`insert_key_pass`] for rows too wide to rewrite per hit: counts the
    /// keys below `key` (branch-free) and shifts the tail once.
    #[inline]
    fn insert_key_shift(a: &mut [u64], key: u64) {
        let pos: usize = a.iter().map(|&k| usize::from(k < key)).sum();
        if pos < a.len() {
            a.copy_within(pos..a.len() - 1, pos + 1);
            a[pos] = key;
        }
    }

    /// Every `(row, hits, nearest)` one driver call emits.
    type Emitted = Vec<(usize, Vec<(f32, usize)>, (f32, usize))>;

    /// `ball_select_runs_into` over `runs` and the unpruned oracle over
    /// every slot, on `backend`.
    fn pruned_and_unpruned(
        backend: Backend,
        pts: &[[f32; 3]],
        runs: &[CandidateRun],
        queries: &[[f32; 3]],
        r_sq: f32,
        num: usize,
    ) -> (Emitted, Emitted) {
        let (xs, ys, zs) = soa_of(pts);
        let (mut pruned, mut unpruned) = (Vec::new(), Vec::new());
        let mut scratch = SelectScratch::new();
        ball_select_runs_into(
            backend,
            &xs,
            &ys,
            &zs,
            queries,
            r_sq,
            num,
            runs,
            &mut scratch,
            |q, hits, nearest| pruned.push((q, hits.to_vec(), nearest)),
        );
        ball_select_unpruned(
            backend,
            &xs,
            &ys,
            &zs,
            queries,
            r_sq,
            num,
            0,
            &mut scratch,
            |q, hits, nearest| unpruned.push((q, hits.to_vec(), nearest)),
        );
        (pruned, unpruned)
    }

    /// The run of slots `start..end` of `pts` with its tight box, as
    /// `Aabb::from_points` takes it (NaN coordinates ignored, an all-NaN
    /// axis NaN).
    fn boxed_run(pts: &[[f32; 3]], start: usize, end: usize) -> CandidateRun {
        let points = pts[start..end].iter().map(|&p| crate::Point3::from(p));
        match crate::Aabb::from_points(points) {
            Some(b) => CandidateRun { start, end, lo: b.min().into(), hi: b.max().into() },
            None => CandidateRun::unbounded(start, end),
        }
    }

    /// `pts` cut at `cuts` into runs with tight boxes, listed from the
    /// run holding slot `own` onwards and wrapping, as block grouping
    /// lists a search space.
    fn cut_runs(pts: &[[f32; 3]], cuts: &[usize], own: usize) -> Vec<CandidateRun> {
        let n = pts.len();
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (n + 1)).collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();
        bounds.dedup();
        let mut runs: Vec<CandidateRun> =
            bounds.windows(2).map(|w| boxed_run(pts, w[0], w[1])).collect();
        let first = runs.iter().position(|r| r.end > own % n.max(1)).unwrap_or(0);
        runs.rotate_left(first);
        runs
    }

    /// The least `a` from a fixed ladder for which an FMA-contracted
    /// `a·a + b·b` rounds above the kernels' separate multiply and add.
    fn fma_rounds_above(b: f32) -> f32 {
        (0..100_000)
            .map(|i| 0.3 + i as f32 * 1e-4)
            .find(|&a| a.mul_add(a, b * b) > a * a + b * b)
            .expect("some ladder step rounds differently under FMA")
    }

    #[test]
    fn a_run_out_of_reach_is_skipped_for_every_row_state() {
        // Slot 0's run is listed last and its box lies (the point is near
        // the query): a run the driver skips shows as that point missing
        // from the result. Full row (bar = worst hit), partial row (bar =
        // r²), empty row (bar = the nearest so far, here above r²).
        let liar = |p: [f32; 3], start: usize| CandidateRun { start, end: start + 1, lo: p, hi: p };
        for b in available() {
            let pts = [[0.05, 0.0, 0.0], [0.0, 0.0, 0.0], [0.1, 0.0, 0.0]];
            let runs = [boxed_run(&pts, 1, 3), liar([0.5, 0.0, 0.0], 0)];
            let (pruned, unpruned) = pruned_and_unpruned(b, &pts, &runs, &[[0.0; 3]], 1.0, 2);
            assert_eq!(pruned[0].1, [(0.0, 1), (0.010000001, 2)], "full, {}", b.name());
            assert_eq!(unpruned[0].1, [(0.0, 1), (0.0025000002, 0)], "full, {}", b.name());
            let (pruned, _) = pruned_and_unpruned(b, &pts, &runs, &[[0.0; 3]], 0.2, 3);
            assert_eq!(pruned[0].1.len(), 2, "partial, {}", b.name());
            let pts = [[2.0, 0.0, 0.0], [5.0, 0.0, 0.0]];
            let runs = [boxed_run(&pts, 1, 2), liar([6.0, 0.0, 0.0], 0)];
            let (pruned, unpruned) = pruned_and_unpruned(b, &pts, &runs, &[[0.0; 3]], 0.01, 2);
            assert_eq!(pruned[0].2, (25.0, 1), "empty, {}", b.name());
            assert_eq!(unpruned[0].2, (4.0, 0), "empty, {}", b.name());
            // A run right after another is judged before that run's short
            // last chunk: out of reach by then, it is skipped, not scanned
            // on into.
            let mut pts = vec![[1.0f32, 0.0, 0.0]; CHUNK + 3];
            pts[CHUNK + 2] = [0.5, 0.0, 0.0];
            let runs = [boxed_run(&pts, 0, CHUNK + 2), liar([3.0, 0.0, 0.0], CHUNK + 2)];
            let (pruned, unpruned) = pruned_and_unpruned(b, &pts, &runs, &[[0.0; 3]], 4.0, 1);
            assert_eq!(pruned[0].1, [(1.0, 0)], "tail, {}", b.name());
            assert_eq!(unpruned[0].1, [(0.25, CHUNK + 2)], "tail, {}", b.name());
        }
    }

    #[test]
    fn a_candidate_exactly_at_the_bar_is_scanned() {
        // Slot 0 sits alone in a run listed last, so its box is the point
        // and its lower bound is exactly its distance. At the worst hit it
        // wins the tie on slot; at r² it is a hit; at the nearest so far
        // (an empty row) it wins the fallback on slot. A `>=` skip, a bar
        // without the empty row's nearest, or an FMA-rounded bound each
        // lose it.
        let b_ax = 0.7f32;
        let a_ax = fma_rounds_above(b_ax);
        let d = a_ax * a_ax + b_ax * b_ax;
        let cases: [(&[[f32; 3]], f32, usize); 5] = [
            // A tie with the worst hit of a full row.
            (&[[-0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]], 1.0, 2),
            // Exactly r² while the row is partial.
            (&[[-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]], 0.25, 3),
            // A tie with the nearest so far of an empty row.
            (&[[-3.0, 0.0, 0.0], [3.0, 0.0, 0.0]], 0.01, 2),
            // The nearest, outside r², of an empty row.
            (&[[-2.0, 0.0, 0.0], [3.0, 0.0, 0.0]], 0.01, 2),
            // A tie with the worst hit where an FMA bound rounds above.
            (&[[a_ax, b_ax, 0.0], [-a_ax, -b_ax, 0.0]], 2.0 * d, 1),
        ];
        for b in available() {
            for (i, &(pts, r_sq, num)) in cases.iter().enumerate() {
                let runs = [boxed_run(pts, 1, pts.len()), boxed_run(pts, 0, 1)];
                let (pruned, unpruned) = pruned_and_unpruned(b, pts, &runs, &[[0.0; 3]], r_sq, num);
                assert_eq!(pruned, unpruned, "case {i} on {}", b.name());
                let (_, hits, nearest) = &pruned[0];
                assert!(
                    hits.iter().any(|h| h.1 == 0) || nearest.1 == 0,
                    "case {i} on {}: slot 0 must be selected: {hits:?} {nearest:?}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn a_selected_wide_bar_admits_a_later_tie_with_a_lower_slot() {
        // `num` 17: the first run's 40 hits pass 2·17, so the row is
        // selected, and its bar is slot 17 at distance 1. Slot 0 ties it,
        // scanned after the select, and wins on slot.
        let mut pts = vec![[0.5f32, 0.0, 0.0]; 41];
        pts[0] = [1.0, 0.0, 0.0];
        pts[17] = [0.0, 1.0, 0.0];
        for p in &mut pts[18..] {
            *p = [0.0, 0.0, 1.2];
        }
        let runs = [boxed_run(&pts, 1, 41), boxed_run(&pts, 0, 1)];
        for b in available() {
            let (pruned, unpruned) = pruned_and_unpruned(b, &pts, &runs, &[[0.0; 3]], 4.0, 17);
            assert_eq!(pruned, unpruned, "{}", b.name());
            let hits = &pruned[0].1;
            assert_eq!(hits.len(), 17, "{}", b.name());
            assert_eq!(hits[16], (1.0, 0), "{}: the tie with the lower slot wins", b.name());
            assert!(hits[..16].iter().all(|&(d, s)| d == 0.25 && (1..17).contains(&s)));
        }
    }

    #[test]
    fn a_dirty_scratch_across_row_widths_matches_a_fresh_one() {
        // A dense cloud with duplicates: the radius puts well over 2·64
        // hits in most balls, so wide rows select more than once.
        let pts: Vec<[f32; 3]> = (0..300)
            .map(|i| [(i % 7) as f32 * 0.1, (i % 5) as f32 * 0.1, (i % 3) as f32 * 0.1])
            .collect();
        let (xs, ys, zs) = soa_of(&pts);
        let queries: Vec<[f32; 3]> = (0..11).map(|i| pts[i * 23]).collect();
        let rows = |b: Backend, num: usize, scratch: &mut SelectScratch| {
            let mut rows: Emitted = Vec::new();
            ball_select_batch_into(b, &xs, &ys, &zs, &queries, 0.2, num, scratch, |q, hits, n| {
                rows.push((q, hits.to_vec(), n))
            });
            rows
        };
        for b in available() {
            let mut dirty = SelectScratch::new();
            for num in [64, 8, 33, 64] {
                let fresh = rows(b, num, &mut SelectScratch::new());
                assert!(fresh.iter().any(|r| r.1.len() == num), "num {num} fills a row");
                assert_eq!(rows(b, num, &mut dirty), fresh, "num {num} on {}", b.name());
            }
        }
    }

    /// Candidate coordinates on a coarse grid (ties), with NaN, ±∞ and
    /// huge values mixed in.
    fn arb_pruning_cloud() -> impl proptest::prelude::Strategy<Value = Vec<[f32; 3]>> {
        use proptest::prelude::Strategy;
        let coord = |k: usize| match k {
            16 => f32::NAN,
            17 => f32::INFINITY,
            18 => f32::NEG_INFINITY,
            19 => 3.0e38,
            20 => -1.0e30,
            _ => (k as f32 - 8.0) * 0.125,
        };
        let point = (0usize..21, 0usize..21, 0usize..21)
            .prop_map(move |(x, y, z)| [coord(x), coord(y), coord(z)]);
        proptest::collection::vec(point, 1..5 * CHUNK)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        /// The pruned driver emits what the unpruned one does — rows, hit
        /// counts and nearest candidates — on every backend, for any cut
        /// of the candidates into boxed runs and any first run, at every
        /// row width, over ties, NaN, ±∞ and huge coordinates, radii that
        /// leave balls empty, partial, full or unbounded, and queries on
        /// points, beside them, far away, NaN and infinite.
        #[test]
        fn pruned_ball_selection_equals_the_unpruned_driver(
            pts in arb_pruning_cloud(),
            cuts in proptest::collection::vec(0usize..5 * CHUNK, 0..8),
            own in 0usize..5 * CHUNK,
            r in 0usize..5,
            num in 0usize..6,
            centers_n in 1usize..(3 * QUERY_TILE),
        ) {
            let r_sq = [0.0, 0.01, 0.3, 4.0, f32::INFINITY][r];
            let num = [1, 8, 16, 17, 32, 64][num];
            let n = pts.len();
            let queries: Vec<[f32; 3]> = (0..centers_n)
                .map(|i| {
                    let p = pts[(i * 5) % n];
                    match i % 7 {
                        1 | 4 => [p[0] + 0.0625, p[1], p[2] - 0.125],
                        2 => [6.0, -6.0, 6.0],
                        3 => [f32::NAN, p[1], p[2]],
                        5 => [f32::INFINITY, p[1], p[2]],
                        _ => p,
                    }
                })
                .collect();
            let runs = cut_runs(&pts, &cuts, own);
            for b in available() {
                let (pruned, unpruned) = pruned_and_unpruned(b, &pts, &runs, &queries, r_sq, num);
                proptest::prop_assert!(pruned == unpruned, "backend {}: {:?} != {:?}", b.name(), pruned, unpruned);
            }
        }
    }
}
