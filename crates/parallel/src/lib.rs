//! Scoped-thread data parallelism for the FractalCloud hot paths.
//!
//! The crates.io registry is unreachable in this build environment, so
//! instead of `rayon` this small crate provides the one primitive the
//! workspace needs, built on `std::thread::scope` (no `unsafe`, no global
//! pool): [`parallel_map`] — map a function over owned items, returning
//! results in item order regardless of scheduling (work distributed by an
//! atomic counter so imbalanced items still load-balance). It falls back
//! to sequential execution for trivially small inputs or when only one
//! worker is available, and is deterministic in its *results* by
//! construction: scheduling affects only wall-clock time.
//! [`parallel_map_budget`] is the same primitive with an explicit worker
//! budget, so layers that multiplex many independent requests (the serving
//! engine) can hand each one a bounded sub-pool. The `*_with` variants
//! ([`parallel_map_with`], [`parallel_map_budget_with`]) additionally hand
//! every execution lane a private scratch value (`make` is called once per
//! lane) — the hook the workspace layer uses to give each lane a reusable
//! arena without any cross-thread sharing.
//!
//! The worker count is `std::thread::available_parallelism`, overridable
//! with the `FRACTALCLOUD_THREADS` environment variable (set to `1` to
//! force sequential execution everywhere).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of worker threads parallel operations will use.
///
/// Honors `FRACTALCLOUD_THREADS` when set (minimum 1), otherwise
/// `available_parallelism`, otherwise 4. Resolved once per process: this
/// is called on every `parallel_map` (per block fan-out of every frame),
/// so the env lookup is cached.
pub fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        if let Ok(v) = std::env::var("FRACTALCLOUD_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    })
}

thread_local! {
    /// The worker allowance the enclosing [`parallel_map_budget`] region
    /// granted this thread (`None` outside any budgeted region).
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker budget in effect on the current thread: the enclosing
/// [`parallel_map_budget`] region's per-lane allowance, or [`workers`] when
/// no budgeted region is active.
///
/// This is what [`parallel_map`]'s `parallel = true` resolves to, so a
/// fan-out nested inside a budgeted lane transparently respects the lane's
/// allowance instead of grabbing the whole pool.
pub fn effective_budget() -> usize {
    BUDGET.with(|b| b.get()).unwrap_or_else(workers)
}

/// RAII restore for the calling thread's budget (the inline path runs `f`
/// on the caller, whose previous allowance must survive the call).
struct BudgetGuard(Option<usize>);

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        BUDGET.with(|b| b.set(self.0));
    }
}

fn set_budget(v: usize) -> BudgetGuard {
    BudgetGuard(BUDGET.with(|b| b.replace(Some(v))))
}

/// Runs `f` on the calling thread with `budget` (minimum 1) as its
/// [`effective_budget`], so every `parallel = true` fan-out inside `f`
/// shares exactly that allowance; the thread's previous allowance is
/// restored when `f` returns or unwinds. This is how a caller that runs a
/// lone job inline gives it the same allowance [`parallel_map_budget`]
/// would give a one-item batch.
pub fn with_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    let _restore = set_budget(budget.max(1));
    f()
}

/// Maps `f` over `items`, in parallel when `parallel` is true, returning
/// results in item order.
///
/// `f` receives the item index and the owned item. Items are claimed one at
/// a time through an atomic counter, so heterogeneous item costs still
/// balance across workers. Results are identical to the sequential order
/// regardless of scheduling.
///
/// `parallel = true` uses [`effective_budget`] workers (the enclosing
/// budget region's allowance, or the global pool); `parallel = false` runs
/// inline without touching the budget context — it skips parallelism at
/// *this* level only, so nested fan-outs keep their allowance.
pub fn parallel_map<I, T, F>(items: Vec<I>, parallel: bool, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    parallel_map_with(items, parallel, || (), |i, item, ()| f(i, item))
}

/// [`parallel_map`] with per-lane scratch state: every execution lane calls
/// `make` exactly once and hands the resulting scratch, by `&mut`, to each
/// `f` invocation it claims — so scoped worker threads never share scratch
/// and the scratch is reused across all the items a lane processes.
///
/// The inline path (`parallel = false`, or a budget/item count of one)
/// also calls `make` exactly once, so callers that hand out pooled
/// workspaces see identical checkout behavior whether or not threads were
/// spawned. Results are identical to [`parallel_map`] for any `make`.
pub fn parallel_map_with<I, T, S, M, F>(items: Vec<I>, parallel: bool, make: M, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    M: Fn() -> S + Sync,
    F: Fn(usize, I, &mut S) -> T + Sync,
{
    if parallel {
        parallel_map_budget_with(items, effective_budget(), make, f)
    } else {
        let mut scratch = make();
        items.into_iter().enumerate().map(|(i, item)| f(i, item, &mut scratch)).collect()
    }
}

/// [`parallel_map`] with an explicit worker budget instead of the global
/// pool size — the primitive behind per-request thread budgets in the
/// serving layer, where concurrent requests each get a bounded sub-pool
/// rather than all contending for every core.
///
/// The budget caps the whole subtree, not just this level: each spawned
/// lane inherits a share of the budget as its own [`effective_budget`], so
/// nested [`parallel_map`] calls keep the total number of active workers
/// within the budget — *exactly*, not up to rounding. The remainder rule:
/// with `lanes = min(budget, items)`, every lane gets `budget / lanes`
/// workers and the first `budget % lanes` lanes get one extra, so the lane
/// allowances always sum to precisely `budget` (a budget of 7 over 4 lanes
/// grants 2+2+2+1, not 1+1+1+1). A `budget` of 0 or 1 runs sequentially
/// and pins nested fan-outs to 1; a single item keeps the entire budget.
/// Budgets above [`workers`] are honored as given (the caller owns
/// oversubscription decisions). Results are identical for every budget.
pub fn parallel_map_budget<I, T, F>(items: Vec<I>, budget: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    parallel_map_budget_with(items, budget, || (), |i, item, ()| f(i, item))
}

/// [`parallel_map_budget`] with per-lane scratch state (see
/// [`parallel_map_with`]): each lane — spawned or inline — calls `make`
/// once and reuses the scratch across every item it claims. This is how
/// higher layers hand out one workspace per lane: the budget split decides
/// how many lanes exist, and each lane's scratch is private to it for the
/// whole call.
pub fn parallel_map_budget_with<I, T, S, M, F>(
    items: Vec<I>,
    budget: usize,
    make: M,
    f: F,
) -> Vec<T>
where
    I: Send,
    T: Send,
    M: Fn() -> S + Sync,
    F: Fn(usize, I, &mut S) -> T + Sync,
{
    let n = items.len();
    let budget = budget.max(1);
    let threads = budget.min(n);
    if threads <= 1 || n <= 1 {
        // A lone item keeps the whole budget; a budget of 1 pins the
        // subtree sequential.
        let _inline = set_budget(if n <= 1 { budget } else { 1 });
        let mut scratch = make();
        return items.into_iter().enumerate().map(|(i, item)| f(i, item, &mut scratch)).collect();
    }
    // Remainder rule: every lane gets `budget / threads`, and the first
    // `budget % threads` lanes get one extra worker, so the per-lane
    // allowances sum to exactly `budget` (a budget of 7 over 4 lanes is
    // 2+2+2+1, never 1+1+1+1 with three workers lost to truncation).
    let sub_budget = budget / threads;
    let extra_lanes = budget % threads;

    // Each slot is locked exactly once by the worker that claims its index,
    // so the mutexes are uncontended; they exist to move `I` out safely.
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();

    std::thread::scope(|scope| {
        let (slots, next, make, f) = (&slots, &next, &make, &f);
        let mut handles = Vec::with_capacity(threads);
        for lane in 0..threads {
            let lane_budget = sub_budget + usize::from(lane < extra_lanes);
            handles.push(scope.spawn(move || {
                let _lane = set_budget(lane_budget);
                let mut scratch = make();
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item =
                        slots[i].lock().expect("slot lock").take().expect("item claimed once");
                    local.push((i, f(i, item, &mut scratch)));
                }
                local
            }));
        }
        // Join every lane before reacting to a panic, then re-raise the
        // first panic payload on the calling thread. `resume_unwind` (rather
        // than `expect`) keeps a lane panic an ordinary unwind that callers
        // may `catch_unwind` — the serving engine's panic isolation depends
        // on this — instead of a double-panic abort inside the scope.
        let mut panic_payload = None;
        for h in handles {
            match h.join() {
                Ok(local) => {
                    for (i, v) in local {
                        out[i] = Some(v);
                    }
                }
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
    });
    out.into_iter().map(|o| o.expect("every item computed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_panics_propagate_as_a_catchable_unwind() {
        // A panic on a spawned lane must surface as an ordinary unwind on
        // the calling thread (resume_unwind), not a double-panic abort —
        // the serving engine catches these to isolate request failures.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map_budget((0..64usize).collect::<Vec<_>>(), 4, |_, v| {
                if v == 17 {
                    panic!("injected lane panic");
                }
                v
            })
        }));
        assert!(result.is_err(), "the lane panic must reach the caller as an Err payload");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let seq = parallel_map(items.clone(), false, |i, v| i * 31 + v);
        let par = parallel_map(items, true, |i, v| i * 31 + v);
        assert_eq!(seq, par);
        assert_eq!(seq[7], 7 * 31 + 7);
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = parallel_map(Vec::<u32>::new(), true, |_, v| v);
        assert!(empty.is_empty());
        let one = parallel_map(vec![9usize], true, |i, v| v + i);
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn parallel_map_moves_non_clone_items() {
        let items: Vec<Vec<usize>> = (0..64).map(|i| vec![i; i % 5]).collect();
        let lens = parallel_map(items, true, |_, v| v.len());
        assert_eq!(lens[4], 4);
    }

    #[test]
    fn parallel_map_with_borrowed_environment() {
        let base: Vec<usize> = (0..1000).collect();
        let ranges: Vec<std::ops::Range<usize>> = vec![0..250, 250..700, 700..1000];
        let sums = parallel_map(ranges, true, |_, r| base[r].iter().sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), 1000 * 999 / 2);
    }

    #[test]
    fn workers_is_positive() {
        assert!(workers() >= 1);
    }

    #[test]
    fn budgeted_map_matches_sequential_for_every_budget() {
        let items: Vec<usize> = (0..123).collect();
        let seq = parallel_map_budget(items.clone(), 1, |i, v| i * 7 + v);
        for budget in [0usize, 2, 3, 8, 64] {
            let out = parallel_map_budget(items.clone(), budget, |i, v| i * 7 + v);
            assert_eq!(out, seq, "budget {budget}");
        }
    }

    #[test]
    fn budgeted_map_caps_threads_at_item_count() {
        // 2 items with a budget of 16 must still complete (threads min n).
        let out = parallel_map_budget(vec![10usize, 20], 16, |_, v| v * 2);
        assert_eq!(out, vec![20, 40]);
    }

    #[test]
    fn nested_fan_outs_inherit_divided_budgets() {
        // 4 lanes sharing a budget of 4: one worker each.
        let seen = parallel_map_budget((0..4).collect::<Vec<_>>(), 4, |_, _| effective_budget());
        assert_eq!(seen, vec![1; 4]);
        // 2 lanes sharing 6: three workers each.
        let seen = parallel_map_budget((0..2).collect::<Vec<_>>(), 6, |_, _| effective_budget());
        assert_eq!(seen, vec![3; 2]);
        // A lone item keeps the whole budget.
        let seen = parallel_map_budget(vec![()], 6, |_, ()| effective_budget());
        assert_eq!(seen, vec![6]);
        // A budget of 1 pins the subtree sequential.
        let seen = parallel_map_budget((0..3).collect::<Vec<_>>(), 1, |_, _| effective_budget());
        assert_eq!(seen, vec![1; 3]);
    }

    #[test]
    fn with_budget_scopes_the_allowance_and_restores_it_on_unwind() {
        // A fresh thread, so the ambient allowance is known to be unset.
        std::thread::spawn(|| {
            let ambient = workers();
            assert_eq!(effective_budget(), ambient);
            let inside = with_budget(3, || {
                // Nests: the inner scope restores the outer one's value.
                assert_eq!(with_budget(0, effective_budget), 1, "a budget of 0 means 1");
                effective_budget()
            });
            assert_eq!(inside, 3);
            assert_eq!(effective_budget(), ambient);

            let unwound = std::panic::catch_unwind(|| {
                with_budget(5, || {
                    assert_eq!(effective_budget(), 5);
                    panic!("injected panic inside a budget scope");
                })
            });
            assert!(unwound.is_err());
            assert_eq!(effective_budget(), ambient, "an unwinding scope still restores");
        })
        .join()
        .expect("assertions on the probe thread hold");
    }

    #[test]
    fn remainder_budget_lanes_sum_to_budget_exactly() {
        use std::sync::Barrier;
        // A barrier inside `f` forces every lane to claim exactly one item,
        // so the observed allowances are the exact per-lane grants.
        let barrier = Barrier::new(4);
        let seen = parallel_map_budget((0..4).collect::<Vec<usize>>(), 7, |_, _| {
            barrier.wait();
            effective_budget()
        });
        let mut lanes = seen;
        lanes.sort_unstable();
        // Budget 7 over 4 lanes: 2+2+2+1, never 1+1+1+1 (3 workers lost).
        assert_eq!(lanes, vec![1, 2, 2, 2]);
        assert_eq!(lanes.iter().sum::<usize>(), 7, "lane allowances must sum to the budget");

        let barrier = Barrier::new(4);
        let mut lanes = parallel_map_budget((0..4).collect::<Vec<usize>>(), 11, |_, _| {
            barrier.wait();
            effective_budget()
        });
        lanes.sort_unstable();
        assert_eq!(lanes, vec![2, 3, 3, 3]);
        assert!(lanes.iter().sum::<usize>() <= 11);
    }

    #[test]
    fn scratch_is_per_lane_and_reused_across_items() {
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        // Each lane's scratch accumulates the items it processed; lanes
        // never observe one another's scratch, and together they cover
        // every item exactly once.
        let seen = Mutex::new(Vec::<Vec<usize>>::new());
        let items: Vec<usize> = (0..97).collect();
        let out = parallel_map_budget_with(
            items,
            4,
            Vec::<usize>::new,
            |_, v, scratch: &mut Vec<usize>| {
                scratch.push(v);
                (v, scratch.len())
            },
        );
        // Record per-lane progressions: within one lane, the scratch length
        // strictly increases with each claimed item.
        let mut by_count: Vec<usize> = out.iter().map(|&(_, c)| c).collect();
        by_count.sort_unstable();
        let all: BTreeSet<usize> = out.iter().map(|&(v, _)| v).collect();
        assert_eq!(all.len(), 97, "every item processed exactly once");
        assert_eq!(by_count[0], 1, "every lane starts from a fresh scratch");
        drop(seen);
    }

    #[test]
    fn scratch_make_called_once_on_inline_path() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let makes = AtomicUsize::new(0);
        let out = parallel_map_with(
            (0..10).collect::<Vec<usize>>(),
            false,
            || {
                makes.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |_, v, s| {
                *s += 1;
                v + *s
            },
        );
        assert_eq!(makes.load(Ordering::Relaxed), 1, "inline path shares one scratch");
        assert_eq!(out[9], 9 + 10, "scratch persisted across all inline items");
    }

    #[test]
    fn budget_context_restores_after_inline_regions() {
        let outer = effective_budget();
        let _ = parallel_map_budget(vec![1u32], 5, |_, v| v);
        assert_eq!(effective_budget(), outer, "inline region must restore the caller's budget");
    }

    #[test]
    fn sequential_bool_map_is_transparent_to_the_budget() {
        // parallel = false skips parallelism at this level only: a nested
        // parallel map inside still sees the enclosing allowance.
        let seen = parallel_map_budget(vec![()], 4, |_, ()| {
            parallel_map(vec![()], false, |_, ()| effective_budget())
        });
        assert_eq!(seen, vec![vec![4]]);
    }
}
