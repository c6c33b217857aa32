//! How fast the host is running right now: a fixed piece of work, timed
//! between rounds. The program under test is not involved.
//!
//! On the shared box this benchmark is judged on, whole runs differ by
//! 10–30 % over minutes — every workload together, CPU time per request
//! included — because a neighbour slows the vCPUs themselves (`steal` reads
//! 0 in the guest). The reference work below slows by the same factor, so a
//! run reports its timing metrics divided by that factor: milliseconds as
//! they would read with the host at its quiet speed. README.md, "Noise and
//! bounds", has the measurements.

use crate::stats;
use std::time::Instant;

/// What one repetition of the reference work takes, in µs, on a quiet run on
/// the box the bounds in `BENCHMARK.json` were set on (2 vCPUs, avx2). Only
/// fixes the scale: with the host at this speed the correction is 1.
pub const NOMINAL_US: f64 = 1750.0;

const POINTS: usize = 16_384;
const PICKS: usize = 48;
/// Repetitions per reading; a reading is their median (~14 ms in all).
const REPS: usize = 8;

/// Deterministic points in the unit cube (xorshift64; no seed — the
/// reference work is the same in every run of every workload).
fn points() -> Vec<[f32; 3]> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 40) as f32 / (1u64 << 24) as f32
    };
    (0..POINTS).map(|_| [next(), next(), next()]).collect()
}

/// One repetition: `PICKS` picks of farthest-point sampling over `pts` —
/// the program's own kind of arithmetic (distance, min, argmax) over an
/// array that fits the L2. Returns the last pick so nothing is optimised out.
fn rep(pts: &[[f32; 3]], dist: &mut [f32]) -> usize {
    dist.fill(f32::INFINITY);
    let mut cur = 0usize;
    for _ in 0..PICKS {
        let c = pts[cur];
        let (mut best, mut arg) = (-1.0f32, 0usize);
        for (i, (p, d)) in pts.iter().zip(dist.iter_mut()).enumerate() {
            let (dx, dy, dz) = (p[0] - c[0], p[1] - c[1], p[2] - c[2]);
            let e = dx * dx + dy * dy + dz * dz;
            if e < *d {
                *d = e;
            }
            if *d > best {
                best = *d;
                arg = i;
            }
        }
        cur = arg;
    }
    cur
}

/// One reading on the calling thread: the median of `REPS` repetitions, µs.
fn reading_us() -> f64 {
    let pts = points();
    let mut dist = vec![0.0f32; POINTS];
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(rep(std::hint::black_box(&pts), &mut dist));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

/// The readings of one run.
#[derive(Default)]
pub struct HostSpeed {
    /// One thread working, the other cores idle: what a solo round meets.
    one: Vec<f64>,
    /// Every core working at once: what a saturated round meets.
    all: Vec<f64>,
}

impl HostSpeed {
    /// Takes one reading of each kind (~30 ms). Called between rounds, while
    /// the server is idle.
    pub fn read(&mut self, nproc: usize) {
        self.one.push(reading_us());
        let per_thread: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..nproc.max(1)).map(|_| s.spawn(reading_us)).collect();
            handles.into_iter().map(|h| h.join().expect("calibration thread panicked")).collect()
        });
        self.all.push(per_thread.iter().sum::<f64>() / per_thread.len() as f64);
    }

    /// How much slower than nominal the host ran during this run: the lower
    /// quartile of each kind of reading (the host's quiet speed over the
    /// run, as the metrics are read from its quietest rounds), averaged,
    /// over [`NOMINAL_US`]. 1 when nothing was read.
    pub fn slowdown(&self) -> f64 {
        if self.one.is_empty() || self.all.is_empty() {
            return 1.0;
        }
        let quiet = (stats::lower_quartile(&self.one) + stats::lower_quartile(&self.all)) / 2.0;
        quiet / NOMINAL_US
    }

    /// `(single-thread readings, all-core readings)`, µs, in the order taken.
    pub fn readings(&self) -> (&[f64], &[f64]) {
        (&self.one, &self.all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_the_same_every_time() {
        let pts = points();
        assert_eq!(pts, points());
        assert!(pts.iter().flatten().all(|c| (0.0..1.0).contains(c)));
        let mut dist = vec![0.0f32; POINTS];
        let first = rep(&pts, &mut dist);
        assert_eq!(first, rep(&pts, &mut dist));
        // Farthest-point picks spread out: every point ends up near a pick.
        assert!(dist.iter().all(|d| *d < 0.25), "{:?}", dist.iter().copied().fold(0.0, f32::max));
    }

    #[test]
    fn slowdown_is_the_quiet_quartiles_over_nominal() {
        let mut h = HostSpeed::default();
        assert_eq!(h.slowdown(), 1.0);
        // A host 20 % slow throughout, with a few readings under a burst.
        h.one = vec![2100.0, 2100.0, 2100.0, 2100.0, 2900.0, 2100.0, 3300.0];
        h.all = vec![2100.0, 2600.0, 2100.0, 2100.0, 2100.0, 2100.0, 2100.0];
        assert!((h.slowdown() - 1.2).abs() < 1e-9, "{}", h.slowdown());
    }

    #[test]
    fn a_live_reading_is_a_plausible_time() {
        let mut h = HostSpeed::default();
        h.read(2);
        let (one, all) = h.readings();
        assert!(one[0] > 10.0 && all[0] > 10.0 && h.slowdown() > 0.0);
    }
}
