//! The four workloads: what traffic each one is, and why it exists.

use crate::loadgen::splitmix64;
use crate::sut::{Frame, Op};

/// One workload. Pool sizes are chosen against the engine's partition LRU
/// (32 entries): a *cold* pool is larger than the LRU and cycled in fixed
/// order, so every lookup misses; a *warm* pool fits and is primed during
/// set-up, so every lookup hits.
pub struct Spec {
    pub name: &'static str,
    /// One line: the layer this workload makes most of the request.
    pub why: &'static str,
    pub op: Op,
    /// Over loopback TCP, or in-process through the engine's ticket API.
    pub wire: bool,
    pub points: usize,
    pub pool: usize,
    /// Caches primed during set-up (and `pool` ≤ LRU).
    pub warm: bool,
    /// ModelNet-like objects instead of S3DIS-like rooms.
    pub objects: bool,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "scene_cold_64k",
        why: "64k-point rooms, 0% cache hits: fractal build + block sample/group + kernels are the request, MB replies cross the wire; pnn idle",
        op: Op::Frame,
        wire: true,
        points: 65_536,
        pool: 48,
        warm: false,
        objects: false,
    },
    Spec {
        name: "infer_delayed_1k",
        why: "1k-point objects through PointNet++(c) delayed, 100% partition hits: pnn Linear layers are ~all of the request; grouping and wire are noise",
        op: Op::Infer,
        wire: true,
        points: 1_024,
        pool: 8,
        warm: true,
        objects: true,
    },
    Spec {
        name: "viewer_stream_16k",
        why: "16k-point rooms streamed in 8 credit-gated chunks from cached orderings: net control frames, engine hand-offs, cache reads and LOD slicing; no kernel runs",
        op: Op::Stream,
        wire: true,
        points: 16_384,
        pool: 24,
        warm: true,
        objects: false,
    },
    Spec {
        name: "burst_fused_4k",
        why: "in-process window of 32 mixed-priority 4k-point frames, 0% hits: the only workload where the batcher fuses and weighted dequeue runs; zero wire",
        op: Op::Frame,
        wire: false,
        points: 4_096,
        pool: 384,
        warm: false,
        objects: false,
    },
];

/// Outstanding tickets in `burst_fused_4k`'s saturated rounds.
pub const BURST_WINDOW: usize = 32;

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Input `k` of the pool — a pure function of `(workload, seed, k)`.
    pub fn input(&self, seed: u64, k: usize) -> Frame {
        let s = splitmix64(seed ^ splitmix64(k as u64 ^ (self.points as u64) << 32));
        match self.objects {
            true => Frame::object(self.points, s),
            false => Frame::scene(self.points, s),
        }
    }

    /// Priority class of request `n`: High : Normal : Bulk = 1 : 2 : 1, drawn
    /// from the seed (only `burst_fused_4k` submits at mixed priorities).
    pub fn class_of(&self, seed: u64, n: usize) -> u8 {
        match splitmix64(seed ^ 0x7072_696f ^ splitmix64(n as u64)) % 4 {
            0 => 0,
            3 => 2,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_sit_on_the_intended_side_of_the_partition_lru() {
        const LRU: usize = 32;
        for s in &SPECS {
            assert_eq!(s.warm, s.pool <= LRU, "{}", s.name);
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
        // A cyclic walk over a cold pool never re-touches a key within one
        // LRU's worth of distinct keys — even with a full burst window of
        // requests admitted ahead of the one that would have hit.
        let burst = find("burst_fused_4k").unwrap();
        assert!(burst.pool - BURST_WINDOW > LRU);
    }

    #[test]
    fn priorities_are_seeded_and_mixed_one_two_one() {
        let s = find("burst_fused_4k").unwrap();
        let classes: Vec<u8> = (0..4000).map(|n| s.class_of(9, n)).collect();
        assert_eq!(classes, (0..4000).map(|n| s.class_of(9, n)).collect::<Vec<u8>>());
        assert_ne!(classes, (0..4000).map(|n| s.class_of(10, n)).collect::<Vec<u8>>());
        let count = |c: u8| classes.iter().filter(|&&x| x == c).count();
        assert!((850..1150).contains(&count(0)), "high {}", count(0));
        assert!((1850..2150).contains(&count(1)), "normal {}", count(1));
        assert!((850..1150).contains(&count(2)), "bulk {}", count(2));
    }
}
