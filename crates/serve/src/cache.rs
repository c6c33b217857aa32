//! LRU cache of built partitions, keyed by frame hash.
//!
//! Streaming workloads re-send frames: static scenes between keyframes,
//! retries, multi-query analysis of the same scan. The partition is the
//! expensive, *deterministic* half of a pipeline run — identical coordinate
//! bytes and threshold always produce the identical [`FractalResult`] — so
//! cached entries are shared by `Arc` and reused without any equivalence
//! risk.

use fractalcloud_core::{fnv1a64, FractalResult, PipelineOutput, FNV1A64_SEED};
use fractalcloud_pointcloud::PointCloud;
use std::collections::HashMap;
use std::sync::Arc;

/// Independent FNV-1a chains [`frame_key`] folds a frame through.
const LANES: usize = 8;

/// Hashes the coordinate bits of `cloud` together with the partition
/// threshold: the shared [`fnv1a64`] word fold over the raw `f32` bit
/// patterns, so `-0.0 != 0.0` and NaN payloads are distinguished — bit
/// identity, not float equality. With a 64-bit key over a tens-of-entries
/// cache, an accidental collision is a ≈2⁻⁵⁸-per-pair event — negligible
/// next to the hardware's own error rates.
///
/// The fold runs in eight (`LANES`) independent chains, so the multiplies
/// of neighbouring coordinates overlap instead of each waiting on the
/// last. The threshold and the point count seed every lane. Each axis
/// (`xs`, then `ys`, then `zs`) is cut into rows of `LANES` coordinates,
/// and lane `j` folds the row's `j`-th coordinate, one word per
/// coordinate as in a single chain. An axis's last, shorter row fills
/// lanes from lane 0. The lanes then fold, in order, into the seed.
///
/// It is still a bitwise identity: which lane folds each coordinate, and
/// in which step, depends on the point count alone, and the count is
/// folded too. So equal bits give equal keys, and every bit of every
/// coordinate, in order, goes into the key. Each word holds one
/// coordinate in its low 32 bits, as in the serial chain: FNV-1a carries
/// a word's bits only upwards, and a flip of bit 63 stays exactly that
/// through every later step, so two coordinates packed into one word
/// would let two sign flips of the upper ones cancel. For the same
/// reason, frames that differ only in their coordinates' sign bits differ
/// only in the key's top 33 bits (a ≈2⁻³³-per-pair collision), as they
/// did in the serial chain.
pub fn frame_key(cloud: &PointCloud, threshold: usize) -> u64 {
    let mut h = fnv1a64(FNV1A64_SEED, threshold as u64);
    h = fnv1a64(h, cloud.len() as u64);
    let mut lanes = [h; LANES];
    for axis in [cloud.xs(), cloud.ys(), cloud.zs()] {
        let mut rows = axis.chunks_exact(LANES);
        for row in &mut rows {
            for (lane, v) in lanes.iter_mut().zip(row) {
                *lane = fnv1a64(*lane, u64::from(v.to_bits()));
            }
        }
        for (lane, v) in lanes.iter_mut().zip(rows.remainder()) {
            *lane = fnv1a64(*lane, u64::from(v.to_bits()));
        }
    }
    lanes.iter().fold(h, |h, &lane| fnv1a64(h, lane))
}

/// A small LRU map from [`frame_key`] to shared [`FractalResult`]s, with a
/// sibling map of full-depth [`PipelineOutput`]s (the progressive-LOD
/// quality orderings streaming slices from).
///
/// Recency is tracked with a monotonic tick per entry — O(capacity) scan on
/// eviction, which is the right trade for the tens-of-entries capacities a
/// partition cache wants (entries are megabytes; the map is tiny). The
/// ordering map shares the tick and the capacity budget but evicts
/// independently: a partition can outlive its ordering and vice versa,
/// because either half alone still saves real work.
#[derive(Debug)]
pub struct PartitionCache {
    capacity: usize,
    tick: u64,
    entries: Lru<FractalResult>,
    orders: Lru<PipelineOutput>,
}

impl PartitionCache {
    /// Creates a cache holding at most `capacity` partitions (0 disables
    /// caching: every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> PartitionCache {
        PartitionCache {
            capacity,
            tick: 0,
            entries: Lru(HashMap::new()),
            orders: Lru(HashMap::new()),
        }
    }

    /// Looks up a partition, refreshing its recency on hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<FractalResult>> {
        let tick = self.stamp();
        self.entries.get(key, tick)
    }

    /// Inserts a partition, evicting the least-recently-used entry when at
    /// capacity.
    ///
    /// Recency is bumped on insert exactly as on [`PartitionCache::get`]:
    /// a re-insert of a present key is a pure refresh-and-replace — it can
    /// never evict anything, and it moves the key to most-recently-used.
    ///
    /// Returns the entry the insert pushed out — the evicted one, the
    /// replaced value of a present key, or `value` itself when caching is
    /// disabled — so that a caller holding the cache behind a lock can
    /// release the lock before the entry is freed.
    pub fn insert(&mut self, key: u64, value: Arc<FractalResult>) -> Option<Arc<FractalResult>> {
        if self.capacity == 0 {
            return Some(value);
        }
        let tick = self.stamp();
        self.entries.insert(key, value, tick, self.capacity)
    }

    /// Looks up a cached full-depth pipeline output (the quality ordering a
    /// stream slices from), refreshing its recency on hit. Keys are the
    /// caller's business — the engine folds the frame key with the pipeline
    /// compatibility key so distinct configs never alias.
    pub fn get_order(&mut self, key: u64) -> Option<Arc<PipelineOutput>> {
        let tick = self.stamp();
        self.orders.get(key, tick)
    }

    /// Inserts a full-depth pipeline output under the same tick-LRU
    /// discipline as [`PartitionCache::insert`] (shared tick, same capacity
    /// bound, independent eviction), returning the entry it pushed out as
    /// [`PartitionCache::insert`] does.
    pub fn insert_order(
        &mut self,
        key: u64,
        value: Arc<PipelineOutput>,
    ) -> Option<Arc<PipelineOutput>> {
        if self.capacity == 0 {
            return Some(value);
        }
        let tick = self.stamp();
        self.orders.insert(key, value, tick, self.capacity)
    }

    /// Number of cached partitions.
    pub fn len(&self) -> usize {
        self.entries.0.len()
    }

    /// Number of cached full-depth orderings.
    pub fn orders_len(&self) -> usize {
        self.orders.0.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.0.is_empty() && self.orders.0.is_empty()
    }

    /// Advances the shared tick and returns it.
    fn stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// One tick-LRU map: each entry carries the tick of its last use.
#[derive(Debug)]
struct Lru<V>(HashMap<u64, (u64, Arc<V>)>);

impl<V> Lru<V> {
    /// Looks up `key`, stamping it with `tick` on hit.
    fn get(&mut self, key: u64, tick: u64) -> Option<Arc<V>> {
        let (at, v) = self.0.get_mut(&key)?;
        *at = tick;
        Some(Arc::clone(v))
    }

    /// Inserts `value` stamped with `tick`. A present key is refreshed and
    /// replaced in place; only a new key at `capacity` evicts, and then the
    /// entry with the oldest tick. Returns the replaced or evicted value,
    /// unfreed.
    fn insert(&mut self, key: u64, value: Arc<V>, tick: u64, capacity: usize) -> Option<Arc<V>> {
        if let Some(entry) = self.0.get_mut(&key) {
            return Some(std::mem::replace(entry, (tick, value)).1);
        }
        let mut evicted = None;
        if self.0.len() >= capacity {
            if let Some(&oldest) = self.0.iter().min_by_key(|(_, (at, _))| *at).map(|(k, _)| k) {
                evicted = self.0.remove(&oldest).map(|(_, v)| v);
            }
        }
        self.0.insert(key, (tick, value));
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractalcloud_core::Fractal;
    use fractalcloud_pointcloud::generate::uniform_cube;
    use fractalcloud_pointcloud::Point3;

    fn built(n: usize, seed: u64) -> Arc<FractalResult> {
        Arc::new(Fractal::with_threshold(64).build(&uniform_cube(n, seed)).unwrap())
    }

    #[test]
    fn frame_key_separates_clouds_and_thresholds() {
        let a = uniform_cube(256, 1);
        let b = uniform_cube(256, 2);
        assert_eq!(frame_key(&a, 64), frame_key(&a.clone(), 64));
        assert_ne!(frame_key(&a, 64), frame_key(&b, 64));
        assert_ne!(frame_key(&a, 64), frame_key(&a, 128));
    }

    #[test]
    fn frame_key_is_bitwise_not_float_equality() {
        let pos = PointCloud::from_points(vec![Point3::new(0.0, 0.0, 0.0)]);
        let neg = PointCloud::from_points(vec![Point3::new(-0.0, 0.0, 0.0)]);
        assert_ne!(frame_key(&pos, 64), frame_key(&neg, 64));
    }

    fn cloud_of(axes: [Vec<f32>; 3]) -> PointCloud {
        let [xs, ys, zs] = axes;
        PointCloud::from_soa(xs, ys, zs).unwrap()
    }

    #[test]
    fn frame_key_sees_every_coordinate_bit_at_every_lane_remainder() {
        // A lane row is 8 coordinates of one axis, so 1..=33 points ends
        // each axis at every tail length, past one to four whole rows.
        for n in 1..=33usize {
            let axes: [Vec<f32>; 3] =
                std::array::from_fn(|k| (0..n).map(|i| (3 * i + k + 1) as f32 * 0.25).collect());
            let key = frame_key(&cloud_of(axes.clone()), 64);
            let edited = |edit: &dyn Fn(&mut [Vec<f32>; 3])| {
                let mut axes = axes.clone();
                edit(&mut axes);
                frame_key(&cloud_of(axes), 64)
            };
            for k in 0..3 {
                for i in 0..n {
                    for bit in [0, 22, 31] {
                        let flip = |a: &mut [Vec<f32>; 3]| {
                            a[k][i] = f32::from_bits(a[k][i].to_bits() ^ 1 << bit);
                        };
                        assert_ne!(edited(&flip), key, "n {n}, axis {k}, point {i}, bit {bit}");
                    }
                    if i + 1 < n {
                        let swap = |a: &mut [Vec<f32>; 3]| a[k].swap(i, i + 1);
                        assert_ne!(edited(&swap), key, "n {n}, axis {k}: {i} <-> {}", i + 1);
                    }
                    let across = |a: &mut [Vec<f32>; 3]| {
                        let (v, w) = (a[k][i], a[(k + 1) % 3][i]);
                        (a[k][i], a[(k + 1) % 3][i]) = (w, v);
                    };
                    assert_ne!(edited(&across), key, "n {n}, point {i}: axis {k} <-> next axis");
                }
            }
            if n >= 2 {
                // The first two coordinates of every row trade places on
                // every axis, so lanes 0 and 1 trade all their words: only
                // the ordered fold of the lanes tells the two orders apart.
                let lanes = |a: &mut [Vec<f32>; 3]| {
                    for row in a.iter_mut().flat_map(|axis| axis.chunks_mut(LANES)) {
                        if row.len() >= 2 {
                            row.swap(0, 1);
                        }
                    }
                };
                assert_ne!(edited(&lanes), key, "n {n}: lanes 0 and 1 swapped");
            }
            if n > 1 {
                let shorter = |a: &mut [Vec<f32>; 3]| a.iter_mut().for_each(|v| v.truncate(n - 1));
                assert_ne!(edited(&shorter), key, "n {n} without its last point");
            }
        }
    }

    #[test]
    fn frame_key_separates_every_pair_of_sign_flips() {
        // FNV-1a carries a word's bits only upwards, and bit 63 of a word
        // stays exactly a bit-63 flip through every later step. A fold that
        // put a coordinate's sign there would give these pairs one key.
        let ones = |xs: [f32; 4]| cloud_of([xs.to_vec(), vec![1.0; 4], vec![1.0; 4]]);
        let key = frame_key(&ones([1.0, 1.0, 1.0, 1.0]), 64);
        assert_ne!(frame_key(&ones([1.0, -1.0, 1.0, -1.0]), 64), key);
        let zeros = |xs: [f32; 4]| cloud_of([xs.to_vec(), vec![0.0; 4], vec![0.0; 4]]);
        let key = frame_key(&zeros([0.0, 0.0, 0.0, 0.0]), 64);
        assert_ne!(frame_key(&zeros([0.0, -0.0, 0.0, -0.0]), 64), key);

        // Every cloud that differs from a base cloud by the signs of one
        // or two coordinates, in the same lane or in different lanes, at
        // every lane remainder: all of them have distinct keys.
        for n in 1..=33usize {
            let base: Vec<f32> = (0..3 * n).map(|i| (i + 1) as f32 * 0.25).collect();
            let key_of = |flips: &[usize]| {
                let mut coords = base.clone();
                for &i in flips {
                    coords[i] = -coords[i];
                }
                let (xs, rest) = coords.split_at(n);
                let (ys, zs) = rest.split_at(n);
                frame_key(&cloud_of([xs.to_vec(), ys.to_vec(), zs.to_vec()]), 64)
            };
            let mut keys = std::collections::HashSet::new();
            assert!(keys.insert(key_of(&[])));
            for i in 0..3 * n {
                assert!(keys.insert(key_of(&[i])), "n {n}: sign of {i}");
                for j in 0..i {
                    assert!(keys.insert(key_of(&[j, i])), "n {n}: signs of {j} and {i}");
                }
            }
        }
    }

    #[test]
    fn frame_key_of_a_cloud_survives_its_wire_round_trip() {
        let cfg = fractalcloud_core::PipelineConfig::default();
        for n in [1, 17, 1000] {
            let cloud = uniform_cube(n, n as u64);
            let payload = crate::protocol::encode_request_payload(&cloud, &cfg);
            let (wire, ..) = crate::protocol::decode_request_payload(&payload).unwrap();
            assert_eq!(frame_key(&wire, 64), frame_key(&cloud, 64), "{n} points");
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PartitionCache::new(2);
        c.insert(1, built(100, 1));
        c.insert(2, built(100, 2));
        assert!(c.get(1).is_some()); // refresh 1 → 2 is now LRU
        c.insert(3, built(100, 3));
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut c = PartitionCache::new(2);
        c.insert(1, built(100, 1));
        c.insert(2, built(100, 2));
        c.insert(2, built(100, 2));
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_some());
    }

    #[test]
    fn reinsert_refreshes_recency_like_get() {
        // Insert must bump the tick exactly as get does: after re-inserting
        // key 1, key 2 is the LRU and is the one evicted by key 3.
        let mut c = PartitionCache::new(2);
        c.insert(1, built(100, 1));
        c.insert(2, built(100, 2));
        c.insert(1, built(100, 1)); // refresh via insert, not get
        c.insert(3, built(100, 3));
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none(), "2 was least-recently-used after 1's re-insert");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn reinsert_at_capacity_replaces_value_without_evicting() {
        let mut c = PartitionCache::new(2);
        c.insert(1, built(100, 1));
        c.insert(2, built(100, 2));
        let replacement = built(64, 9);
        c.insert(2, Arc::clone(&replacement));
        assert_eq!(c.len(), 2, "refresh of a present key must not change occupancy");
        assert!(c.get(1).is_some(), "refresh of a present key must not evict");
        assert!(Arc::ptr_eq(&c.get(2).unwrap(), &replacement), "value must be replaced");
    }

    #[test]
    fn insert_hands_back_the_entry_it_pushed_out() {
        // The caller frees it, after releasing whatever lock guards the
        // cache: the evicted entry, a present key's replaced value, or the
        // value itself when caching is off.
        let mut c = PartitionCache::new(2);
        let (one, two) = (built(100, 1), built(100, 2));
        assert!(c.insert(1, Arc::clone(&one)).is_none());
        assert!(c.insert(2, Arc::clone(&two)).is_none());
        let evicted = c.insert(3, built(100, 3)).expect("a full cache evicts");
        assert!(Arc::ptr_eq(&evicted, &one), "the least recently used entry is handed back");
        let replaced = c.insert(2, built(64, 9)).expect("a re-insert replaces");
        assert!(Arc::ptr_eq(&replaced, &two));
        let first = order(96, 1);
        assert!(c.insert_order(1, Arc::clone(&first)).is_none());
        c.insert_order(2, order(96, 2));
        let evicted = c.insert_order(3, order(96, 3)).expect("a full ordering map evicts");
        assert!(Arc::ptr_eq(&evicted, &first));
        let mut off = PartitionCache::new(0);
        assert!(Arc::ptr_eq(&off.insert(1, Arc::clone(&one)).unwrap(), &one));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PartitionCache::new(0);
        c.insert(1, built(100, 1));
        assert!(c.is_empty());
        assert!(c.get(1).is_none());
        c.insert_order(1, order(100, 1));
        assert!(c.get_order(1).is_none());
    }

    fn order(n: usize, seed: u64) -> Arc<fractalcloud_core::PipelineOutput> {
        let cloud = uniform_cube(n, seed);
        let pipe = fractalcloud_core::Pipeline::new(fractalcloud_core::PipelineConfig::new(
            64, 0.25, 0.4, 4,
        ))
        .unwrap();
        Arc::new(pipe.run(&cloud, false).unwrap())
    }

    #[test]
    fn order_map_is_an_independent_lru() {
        let mut c = PartitionCache::new(2);
        c.insert_order(1, order(96, 1));
        c.insert_order(2, order(96, 2));
        assert!(c.get_order(1).is_some()); // refresh 1 → 2 is now LRU
        c.insert_order(3, order(96, 3));
        assert_eq!(c.orders_len(), 2);
        assert!(c.get_order(2).is_none());
        assert!(c.get_order(1).is_some());
        assert!(c.get_order(3).is_some());
        // Partition entries are untouched by ordering churn.
        assert_eq!(c.len(), 0);
        c.insert(9, built(100, 9));
        assert_eq!(c.len(), 1);
        assert_eq!(c.orders_len(), 2);
    }
}
