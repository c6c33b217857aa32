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

/// Hashes the coordinate bits of `cloud` together with the partition
/// threshold (the shared [`fnv1a64`] word fold over the raw `f32` bit
/// patterns, so `-0.0 != 0.0` and NaN payloads are distinguished — bit
/// identity, not float equality). With a 64-bit key over a
/// tens-of-entries cache, an accidental collision is a ≈2⁻⁵⁸-per-pair
/// event — negligible next to the hardware's own error rates.
pub fn frame_key(cloud: &PointCloud, threshold: usize) -> u64 {
    let mut h = fnv1a64(FNV1A64_SEED, threshold as u64);
    h = fnv1a64(h, cloud.len() as u64);
    for axis in [cloud.xs(), cloud.ys(), cloud.zs()] {
        for v in axis {
            h = fnv1a64(h, u64::from(v.to_bits()));
        }
    }
    h
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
    entries: HashMap<u64, (u64, Arc<FractalResult>)>,
    orders: HashMap<u64, (u64, Arc<PipelineOutput>)>,
}

impl PartitionCache {
    /// Creates a cache holding at most `capacity` partitions (0 disables
    /// caching: every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> PartitionCache {
        PartitionCache { capacity, tick: 0, entries: HashMap::new(), orders: HashMap::new() }
    }

    /// Looks up a partition, refreshing its recency on hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<FractalResult>> {
        self.tick += 1;
        let tick = self.tick;
        let (at, v) = self.entries.get_mut(&key)?;
        *at = tick;
        Some(Arc::clone(v))
    }

    /// Inserts a partition, evicting the least-recently-used entry when at
    /// capacity.
    ///
    /// Recency is bumped on insert exactly as on [`PartitionCache::get`]:
    /// a re-insert of a present key is a pure refresh-and-replace — it can
    /// never evict anything (the update path is separated from the
    /// eviction path below, so the at-capacity check only ever sees
    /// genuinely new keys), and it moves the key to most-recently-used.
    pub fn insert(&mut self, key: u64, value: Arc<FractalResult>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            // Present key: refresh recency and replace the value in place.
            *entry = (self.tick, value);
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(&oldest) =
                self.entries.iter().min_by_key(|(_, (at, _))| *at).map(|(k, _)| k)
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, (self.tick, value));
    }

    /// Looks up a cached full-depth pipeline output (the quality ordering a
    /// stream slices from), refreshing its recency on hit. Keys are the
    /// caller's business — the engine folds the frame key with the pipeline
    /// compatibility key so distinct configs never alias.
    pub fn get_order(&mut self, key: u64) -> Option<Arc<PipelineOutput>> {
        self.tick += 1;
        let tick = self.tick;
        let (at, v) = self.orders.get_mut(&key)?;
        *at = tick;
        Some(Arc::clone(v))
    }

    /// Inserts a full-depth pipeline output under the same tick-LRU
    /// discipline as [`PartitionCache::insert`] (shared tick, same capacity
    /// bound, independent eviction).
    pub fn insert_order(&mut self, key: u64, value: Arc<PipelineOutput>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some(entry) = self.orders.get_mut(&key) {
            *entry = (self.tick, value);
            return;
        }
        if self.orders.len() >= self.capacity {
            if let Some(&oldest) = self.orders.iter().min_by_key(|(_, (at, _))| *at).map(|(k, _)| k)
            {
                self.orders.remove(&oldest);
            }
        }
        self.orders.insert(key, (self.tick, value));
    }

    /// Number of cached partitions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of cached full-depth orderings.
    pub fn orders_len(&self) -> usize {
        self.orders.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.orders.is_empty()
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
