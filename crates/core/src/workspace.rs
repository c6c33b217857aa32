//! Reusable scratch arenas for the partition + BPPO hot paths.
//!
//! FractalCloud's hardware keeps a block's data resident on-chip and
//! touches DRAM once per block; the software analogue of that discipline is
//! to stop asking the heap for fresh intermediate buffers on every block of
//! every frame. A [`Workspace`] owns every scratch buffer the hot paths
//! need — the block-order copy of the cloud that sampling and grouping read
//! in place (in the build's first slab), the FPS running-distance array,
//! interpolation's gathered candidates, query staging, the batched-selection scratch
//! ([`SelectScratch`]), sample-count scratch, and the Fractal build's
//! point slabs and order/frontier buffers — and the `*_into` / `*_ws` entry
//! points across `fractal`, `bppo` and `pipeline` reuse them across blocks
//! *and* across frames.
//!
//! # Ownership rules
//!
//! * A `Workspace` is exclusive (`&mut`) for the duration of one operation;
//!   nothing in it survives as a result — every operation fully resets the
//!   portions it reads, so a *dirty* workspace is bit-identical to a fresh
//!   one (property-tested in `tests/workspace_reuse.rs`).
//! * Fanned-out lanes never share scratch: the block driver runs every
//!   block through the caller's workspace when it runs one lane, and
//!   otherwise each block checks one workspace out of the [`global_pool`]
//!   for as long as it runs.
//! * The no-workspace entry points (`block_fps`, `Fractal::build`,
//!   `Pipeline::run_with_partition`, …) are thin wrappers that check a
//!   workspace out of the process-wide [`global_pool`] — so even legacy
//!   callers reuse scratch across calls, and results are bit-identical by
//!   shared code.
//!
//! # Pooling
//!
//! [`Pool`] is a trivial free-list: `checkout` pops a recycled value (or
//! creates a `Default` one), the returned [`PoolGuard`] hands it back on
//! drop. Steady state, the pool holds as many workspaces as the maximum
//! number of concurrent lanes ever observed, and checkout is one
//! uncontended mutex pop — no allocation.

use crate::lod::ScheduleScratch;
use fractalcloud_pointcloud::kernels::{CandidateRun, SelectScratch};
use std::sync::Mutex;

/// Scratch-buffer arena for one execution lane of the partition + BPPO
/// pipeline. See the [module docs](self) for ownership rules.
///
/// All fields are growable buffers that retain capacity across uses; the
/// struct is cheap to create (no allocation until first use) and carries no
/// results between operations.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Gathered SoA x coordinates of an interpolation candidate set.
    pub(crate) sx: Vec<f32>,
    /// Gathered SoA y coordinates.
    pub(crate) sy: Vec<f32>,
    /// Gathered SoA z coordinates.
    pub(crate) sz: Vec<f32>,
    /// FPS running nearest-sample distances (one entry per block point).
    pub(crate) dist: Vec<f32>,
    /// Block start offsets of the frame's block-order layout, which sampling
    /// and grouping read in place; its points live in the build's first
    /// slab (see `bppo::with_layout`).
    pub(crate) block_starts: Vec<usize>,
    /// Flattened candidate source rows of an interpolation search space.
    pub(crate) candidates: Vec<usize>,
    /// Query coordinates staged for batched selection.
    pub(crate) queries: Vec<[f32; 3]>,
    /// Block grouping's query tile order: each staged query's Morton code
    /// above its row (see `bppo::grouping`).
    pub(crate) tiles: Vec<u64>,
    /// Block grouping's search space as candidate runs, one per block with
    /// its box, the centres' own block first.
    pub(crate) runs: Vec<CandidateRun>,
    /// Batched-selection scratch: top-k heaps, distance tiles, key rows.
    pub(crate) select: SelectScratch,
    /// Block sizes staged for sample-count allocation.
    pub(crate) sizes: Vec<usize>,
    /// Per-block sample counts.
    pub(crate) counts: Vec<usize>,
    /// Largest-remainder scratch of the sample-count allocation.
    pub(crate) rems: Vec<(f64, usize)>,
    /// Fractal build scratch (point slabs, order buffer, active-node lists).
    pub(crate) build: BuildScratch,
    /// LOD schedule scratch of the
    /// [`SampleOrder`](crate::lod::SampleOrder) interleave.
    pub(crate) sched: ScheduleScratch,
    /// Network-inference scratch (per-layer activations, level pyramid).
    pub infer: InferScratch,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Workspace {
        Workspace::default()
    }
}

/// Byte-offsets of one level of the inference point pyramid inside
/// [`InferScratch`]'s flat buffers (element offsets, not bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelMeta {
    /// Offset of the level's first point in `lvl_xs`/`lvl_ys`/`lvl_zs`.
    pub coord_off: usize,
    /// Number of points in the level.
    pub len: usize,
    /// Offset of the level's first feature value in `lvl_feat`.
    pub feat_off: usize,
    /// Feature channels per point at this level.
    pub channels: usize,
}

/// Per-layer scratch of the network-inference executor (`fractalcloud-pnn`):
/// the downsampling point pyramid stored as flat concatenated SoA levels,
/// ping-pong MLP activation buffers, grouped-row staging, and the neighbor
/// index lists the aggregation stage reduces over.
///
/// All buffers retain capacity across frames, so a warmed scratch runs a
/// whole forward pass without heap allocation; like every other workspace
/// field it carries no results between operations — each run fully rewrites
/// the portions it reads.
#[derive(Debug, Default)]
pub struct InferScratch {
    /// Concatenated per-level SoA x coordinates of the point pyramid.
    pub lvl_xs: Vec<f32>,
    /// Concatenated per-level SoA y coordinates.
    pub lvl_ys: Vec<f32>,
    /// Concatenated per-level SoA z coordinates.
    pub lvl_zs: Vec<f32>,
    /// Concatenated per-level feature rows (row-major per level).
    pub lvl_feat: Vec<f32>,
    /// Concatenated per-level original-cloud index of each point (grows in
    /// lockstep with the coordinate buffers, so a level's origin slice is
    /// `lvl_origin[meta.coord_off..meta.coord_off + meta.len]`).
    pub lvl_origin: Vec<usize>,
    /// One offsets record per stored level.
    pub lvl_meta: Vec<LevelMeta>,
    /// Staged MLP input rows (grouped rows in eager mode, per-point rows in
    /// delayed mode).
    pub rows: Vec<f32>,
    /// MLP activation ping buffer.
    pub feat_a: Vec<f32>,
    /// MLP activation pong buffer.
    pub feat_b: Vec<f32>,
    /// Aggregated per-centroid features of the current stage.
    pub pooled: Vec<f32>,
    /// Sampled center indices of the current stage.
    pub centers: Vec<usize>,
    /// Flattened neighbor index lists (`centers × nsample`).
    pub neighbors: Vec<usize>,
    /// Per-segment entry counts for the segmented reduction.
    pub counts: Vec<usize>,
    /// Query coordinates staged for batched selection.
    pub queries: Vec<[f32; 3]>,
    /// FPS running nearest-sample distances / interpolation weights scratch.
    pub dist: Vec<f32>,
    /// Batched-selection scratch for the executor's own KNN/ball scans.
    pub select: SelectScratch,
}

/// Scratch of the Fractal build: two point slabs the iterations ping-pong
/// between (between builds the first holds the block ops' layout), the
/// global order buffer whose final state is the DFT layout, this
/// iteration's and the next's active-node lists, and the DFT leaf list.
#[derive(Debug, Default)]
pub(crate) struct BuildScratch {
    pub slabs: [Slab; 2],
    pub order: Vec<usize>,
    pub active: Vec<usize>,
    pub next_active: Vec<usize>,
    pub leaves: Vec<usize>,
}

/// One side of the build's ping-pong: every node's points as contiguous
/// SoA runs (`x`, `y`, `z` and the original index of each point), a node
/// owning `[start, end)` of all four. An iteration reads each active
/// node's run from one slab — count on the split axis, stable scatter,
/// per-child extrema — and writes it, split, into the same range of the
/// other, so every pass streams contiguous memory.
#[derive(Debug, Default)]
pub(crate) struct Slab {
    pub x: Vec<f32>,
    pub y: Vec<f32>,
    pub z: Vec<f32>,
    pub idx: Vec<u32>,
}

impl Slab {
    /// Sizes all four arrays for an `n`-point build. What they hold is
    /// whatever the last build or layout left: a node's range is always
    /// written (by the scatter that created the node) before it is read.
    pub fn resize(&mut self, n: usize) {
        self.x.resize(n, 0.0);
        self.y.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.idx.resize(n, 0);
    }
}

/// A free-list pool of `Default`-constructible values (workspaces, output
/// staging buffers). `checkout` pops a recycled value or constructs one;
/// the guard returns it on drop.
#[derive(Debug)]
pub struct Pool<T> {
    slots: Mutex<Vec<T>>,
}

impl<T: Default> Pool<T> {
    /// An empty pool.
    pub const fn new() -> Pool<T> {
        Pool { slots: Mutex::new(Vec::new()) }
    }

    /// Pops a recycled value (or constructs a fresh one); the guard checks
    /// it back in on drop.
    ///
    /// The free-list mutex is recovered if poisoned: the only operations
    /// ever performed under it are `Vec::pop`/`push`/`len`, which cannot
    /// leave the vector in a torn state, so a poisoned lock still guards a
    /// valid-by-construction free list.
    pub fn checkout(&self) -> PoolGuard<'_, T> {
        PoolGuard { pool: self, value: Some(self.take()) }
    }

    /// Number of values currently checked in (test/diagnostic hook).
    pub fn idle(&self) -> usize {
        lock_unpoisoned(&self.slots).len()
    }

    /// Pops a recycled value (or constructs a fresh one) *by value* — the
    /// guard-free form for values whose lifetime outlives any scope (e.g.
    /// response buffers handed to a client). Pair with [`Pool::put`]; a
    /// value never returned is simply dropped, which is always safe.
    pub fn take(&self) -> T {
        lock_unpoisoned(&self.slots).pop().unwrap_or_default()
    }

    /// Checks a value taken with [`Pool::take`] back in. The caller vouches
    /// the value holds no torn mid-stage state — unlike [`PoolGuard`], a
    /// by-value return has no unwind tracking, so only return values whose
    /// content is valid-by-construction (e.g. buffers about to be
    /// overwritten from scratch).
    pub fn put(&self, value: T) {
        lock_unpoisoned(&self.slots).push(value);
    }
}

impl<T: Default> Default for Pool<T> {
    fn default() -> Pool<T> {
        Pool::new()
    }
}

/// Exclusive access to a pooled value; checks it back in on drop.
///
/// The guard is unwind-aware: when dropped *during panic unwinding* the
/// value is discarded instead of returned, because a panic can strike
/// mid-stage and leave scratch state (staged counts, partially moved
/// buffers) that no later frame may be allowed to observe. The next
/// checkout simply constructs a replacement.
#[derive(Debug)]
pub struct PoolGuard<'a, T: Default> {
    pool: &'a Pool<T>,
    value: Option<T>,
}

impl<T: Default> std::ops::Deref for PoolGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value.as_ref().expect("pool guard holds a value until drop")
    }
}

impl<T: Default> std::ops::DerefMut for PoolGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("pool guard holds a value until drop")
    }
}

impl<T: Default> Drop for PoolGuard<'_, T> {
    fn drop(&mut self) {
        // A guard dropped while its thread unwinds was live when the panic
        // struck — its value may hold inconsistent mid-stage scratch, so it
        // is discarded rather than re-pooled.
        if !std::thread::panicking() {
            if let Some(v) = self.value.take() {
                lock_unpoisoned(&self.pool.slots).push(v);
            }
        }
    }
}

/// Locks `m`, recovering from poisoning. Sound only when every critical
/// section over `m` keeps the data valid even if interrupted by a panic —
/// true for the pool free list (single `Vec` push/pop calls).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The process-wide [`Workspace`] pool backing the no-workspace entry
/// points and the per-lane hand-outs of the parallel drivers.
pub fn global_pool() -> &'static Pool<Workspace> {
    static POOL: Pool<Workspace> = Pool::new();
    &POOL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_values_in_reuse_mode() {
        let pool: Pool<Vec<u8>> = Pool::new();
        {
            let mut v = pool.checkout();
            v.extend_from_slice(&[1, 2, 3]);
        }
        assert_eq!(pool.idle(), 1);
        let v = pool.checkout();
        assert_eq!(&*v, &[1, 2, 3], "recycled values keep their (dirty) state");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn guard_live_during_unwind_discards_instead_of_repooling() {
        let pool: Pool<Vec<u8>> = Pool::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut v = pool.checkout();
            v.extend_from_slice(&[9, 9, 9]); // mid-stage garbage
            panic!("injected mid-stage panic");
        }));
        assert!(r.is_err());
        assert_eq!(pool.idle(), 0, "a value live during an unwind must be discarded");
        // The next checkout constructs a replacement, untouched by the
        // aborted stage.
        assert!(pool.checkout().is_empty());
    }

    #[test]
    fn pool_take_and_put_recycle_by_value() {
        let pool: Pool<Vec<u8>> = Pool::new();
        let mut v = pool.take();
        v.push(42);
        pool.put(v);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.take(), vec![42], "by-value takes recycle dirty state");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn global_pool_hands_out_distinct_workspaces() {
        let a = global_pool().checkout();
        let b = global_pool().checkout();
        // Two live guards always hold distinct arenas.
        assert_ne!(&*a as *const Workspace, &*b as *const Workspace);
    }
}
