//! Fan-outs spawn no threads once the pool is warm. Alone in its test
//! binary, so no other test's threads move the count it reads.
#![cfg(target_os = "linux")]

use fractalcloud_parallel::{effective_budget, parallel_map_budget, workers};

/// The process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

fn fan_out(budget: usize, items: usize) -> usize {
    let sums = parallel_map_budget((0..items).collect(), budget, |_, v: usize| {
        parallel_map_budget((0..4).collect(), effective_budget(), |_, w: usize| v * w)
            .iter()
            .sum::<usize>()
    });
    sums.iter().sum()
}

#[test]
fn warmed_fan_outs_spawn_no_threads() {
    let base = threads();
    // The first fan-out as wide as the host spawns every helper the pool
    // will ever have, and they stay.
    assert_eq!(fan_out(workers(), 64), 6 * (0..64).sum::<usize>());
    let warm = threads();
    assert_eq!(warm, base + workers() - 1, "the pool keeps workers() - 1 helpers");
    for k in 0..1000 {
        let items = k % 97;
        assert_eq!(fan_out(1 + k % 8, items), 6 * (0..items).sum::<usize>());
        let now = threads();
        assert!(now <= warm, "fan-out {k}: {now} threads, {warm} when warm");
    }
    assert_eq!(threads(), warm, "1000 warmed fan-outs left threads behind");
}
