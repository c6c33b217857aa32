//! Pooled-thread data parallelism for the FractalCloud hot paths.
//!
//! The crates.io registry is unreachable in this build environment, so
//! instead of `rayon` this small crate provides the one primitive the
//! workspace needs: [`for_each_budget`] — run a function on every item of
//! an iterator with an explicit worker budget, allocating nothing. Items
//! are typically disjoint pieces of one piece of work (row ranges of one
//! output, the blocks of a block op each with its own slices of the
//! output, the jobs of one batch), so each call writes its results in
//! place; lanes take the next item through one lock, so imbalanced items
//! still load-balance. It runs
//! sequentially for a budget or item count of one, and scheduling affects
//! only wall-clock time, never results. The budget lets layers that
//! multiplex many independent requests (the serving engine) hand each one
//! a bounded sub-pool; a caller that wants whatever its enclosing region
//! allows passes [`effective_budget`]. [`parallel_map_budget`] is the
//! owned-items adapter over it: it maps items to results in item order.
//!
//! No fan-out spawns its lanes. The calling thread runs a fan-out's first
//! lane itself and offers the others to one process-wide pool of at most
//! [`workers`] − 1 persistent helper threads, spawned on first need and
//! parked between fan-outs. Admission caps the whole process: a helper
//! starts a lane only while fewer than [`workers`] threads are running
//! lanes, callers included, so concurrent fan-outs share the cores instead
//! of oversubscribing them, and a lane no helper picks up costs nothing.
//! A thread that is busy without fanning out (a serving engine's worker
//! executing a batch) counts too while it runs inside [`hold_lane`].
//! The pool's one `unsafe` block and its invariant are in `pool.rs`.
//!
//! How many lanes a fan-out asks for by its work is one rule,
//! [`lanes_for`]: a caller states its op's closed-form work in nanoseconds
//! (a dense layer's multiply-accumulates at its measured rate), and gets
//! the most lanes its budget allows that still leave every lane enough
//! work to pay for the hand-off. Small ops stay on the caller whatever the
//! budget.
//!
//! The worker count is `std::thread::available_parallelism`, overridable
//! with the `FRACTALCLOUD_THREADS` environment variable (set to `1` to
//! force sequential execution everywhere: the pool then has no helpers).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

mod pool;

/// Number of worker threads parallel operations will use.
///
/// Honors `FRACTALCLOUD_THREADS` when set (minimum 1), otherwise
/// `available_parallelism`, otherwise 4. Resolved once per process: this
/// is called on every block fan-out of every frame (through
/// [`effective_budget`]), so the env lookup is cached.
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
    /// The worker allowance the enclosing [`for_each_budget`] region
    /// granted this thread (`None` outside any budgeted region).
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker budget in effect on the current thread: the enclosing
/// [`for_each_budget`] region's per-lane allowance, or [`workers`] when
/// no budgeted region is active.
///
/// A fan-out that passes this as its budget (the block ops do) therefore
/// respects the allowance of the budgeted lane it is nested in instead of
/// grabbing the whole pool.
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
/// [`effective_budget`], so every fan-out inside `f` that passes
/// [`effective_budget`] shares exactly that allowance; the thread's
/// previous allowance is restored when `f` returns or unwinds. It gives
/// `f` the allowance [`for_each_budget`] gives a lone item, which is how
/// tests pin the budget a piece of code runs under.
pub fn with_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    let _restore = set_budget(budget.max(1));
    f()
}

/// Maps `f` over `items` with at most `budget` workers, returning results
/// in item order.
///
/// `f` receives the item index and the owned item. This is
/// [`for_each_budget`] over the items paired with their result slots, so
/// lanes, allowances and admission are exactly that function's, and the
/// results are identical to the sequential map for every budget.
pub fn parallel_map_budget<I, T, F>(items: Vec<I>, budget: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for_each_budget(items.into_iter().zip(&mut out).enumerate(), budget, |(i, (item, slot))| {
        *slot = Some(f(i, item));
    });
    out.into_iter().map(|t| t.expect("every item computed")).collect()
}

/// Runs `f` on every item of `items` with at most `budget` lanes, in no
/// particular order, and allocates nothing: lanes take the next item
/// through one lock around the iterator, so heterogeneous item costs still
/// balance across lanes. Meant for items that are disjoint pieces of one
/// piece of work (`chunks_mut` of an output, say), so `f` writes its
/// results in place. The explicit budget is the primitive behind
/// per-request thread budgets in the serving layer, where concurrent
/// requests each get a bounded sub-pool rather than all contending for
/// every core.
///
/// The budget caps the whole subtree, not just this level: each lane
/// inherits a share of the budget as its own [`effective_budget`], so
/// nested fan-outs at [`effective_budget`] keep the total number of active
/// workers within the budget — *exactly*, not up to rounding. The
/// remainder rule: with `lanes = min(budget, items)` (the item count is the
/// iterator's upper size bound), every lane gets `budget / lanes` workers
/// and the first `budget % lanes` lanes get one extra, so the lane
/// allowances always sum to precisely `budget` (a budget of 7 over 4 lanes
/// grants 2+2+2+1, not 1+1+1+1). A `budget` of 0 or 1 runs every item in
/// order on the caller and pins nested fan-outs to 1; a single item keeps
/// the entire budget and runs inline. The calling thread runs the first
/// lane; the others run only as pool helpers are admitted, so a budget —
/// including one above [`workers`] — is capped by admission: no more than
/// [`workers`] threads run lanes process-wide. A panic in any lane reaches
/// the caller as an ordinary unwind once every started lane has finished;
/// the items no lane took are dropped with the iterator.
pub fn for_each_budget<I, F>(items: I, budget: usize, f: F)
where
    I: IntoIterator,
    I::IntoIter: Send,
    F: Fn(I::Item) + Sync,
{
    let items = items.into_iter();
    let n = items.size_hint().1.unwrap_or(usize::MAX);
    let budget = budget.max(1);
    let lanes = budget.min(n);
    if lanes <= 1 {
        // A lone item keeps the whole budget; a budget of 1 pins the
        // subtree sequential.
        let _inline = set_budget(if n <= 1 { budget } else { 1 });
        return items.for_each(f);
    }
    let items = Mutex::new(items);
    // The guard drops inside `next`, so no lane holds the lock while `f` runs.
    let next = || items.lock().expect("item lock").next();
    pool::run(lanes, &|lane| {
        let _lane = set_budget(lane_budget(budget, lanes, lane));
        while let Some(item) = next() {
            f(item);
        }
    });
}

/// Nanoseconds of work each lane of a fan-out must have: about six times
/// the measured cost of handing a lane to a parked helper and collecting
/// it (`parallel.map_overhead_us`, 2.5–3.9 µs on a 2-vCPU host), so a
/// helper's start-up is a small fraction of what it saves. At a dense
/// layer's 16 multiply-accumulates per ns this is 2¹⁸ MACs per lane.
pub const LANE_NS: u64 = 1 << 14;

/// The one rule for how many lanes a fan-out gets: the largest count, at
/// most `budget`, whose per-lane share of `work_ns` — the op's closed-form
/// work converted to nanoseconds by the caller — is at least [`LANE_NS`];
/// never less than one. The caller caps the result at its item count and
/// passes it as the budget of [`for_each_budget`].
///
/// ```
/// use fractalcloud_parallel::{lanes_for, LANE_NS};
/// assert_eq!(lanes_for(8, 0), 1);
/// assert_eq!(lanes_for(8, 3 * LANE_NS - 1), 2);
/// assert_eq!(lanes_for(2, u64::MAX), 2);
/// ```
pub fn lanes_for(budget: usize, work_ns: u64) -> usize {
    let by_work = usize::try_from(work_ns / LANE_NS).unwrap_or(usize::MAX);
    budget.min(by_work).max(1)
}

/// Runs `f` with the calling thread counted as a running lane against the
/// pool's admission, from entry until `f` returns or unwinds; a thread that
/// already counts (a helper, or a caller inside a fan-out or another hold)
/// is counted once however deeply holds and fan-outs nest. A helper then
/// starts a lane only on a core that no holding thread occupies, so a
/// thread that keeps a core busy — a serving engine's worker executing a
/// batch — makes concurrent fan-outs run inline rather than oversubscribe.
pub fn hold_lane<R>(f: impl FnOnce() -> R) -> R {
    pool::hold(f)
}

/// The remainder rule: of `budget` workers split over `lanes` lanes, every
/// lane gets `budget / lanes` and the first `budget % lanes` lanes one
/// extra, so the allowances sum to exactly `budget` (7 over 4 lanes is
/// 2+2+2+1, never 1+1+1+1 with three workers lost to truncation).
fn lane_budget(budget: usize, lanes: usize, lane: usize) -> usize {
    budget / lanes + usize::from(lane < budget % lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_panics_propagate_as_a_catchable_unwind() {
        let _serial = crate::pool::tests::serial();
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
        let _serial = crate::pool::tests::serial();
        let items: Vec<usize> = (0..257).collect();
        let seq = parallel_map_budget(items.clone(), 1, |i, v| i * 31 + v);
        let par = parallel_map_budget(items, effective_budget(), |i, v| i * 31 + v);
        assert_eq!(seq, par);
        assert_eq!(seq[7], 7 * 31 + 7);
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = parallel_map_budget(Vec::<u32>::new(), effective_budget(), |_, v| v);
        assert!(empty.is_empty());
        let one = parallel_map_budget(vec![9usize], effective_budget(), |i, v| v + i);
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn parallel_map_moves_non_clone_items() {
        let _serial = crate::pool::tests::serial();
        let items: Vec<Vec<usize>> = (0..64).map(|i| vec![i; i % 5]).collect();
        let lens = parallel_map_budget(items, effective_budget(), |_, v| v.len());
        assert_eq!(lens[4], 4);
    }

    #[test]
    fn parallel_map_with_borrowed_environment() {
        let _serial = crate::pool::tests::serial();
        let base: Vec<usize> = (0..1000).collect();
        let ranges: Vec<std::ops::Range<usize>> = vec![0..250, 250..700, 700..1000];
        let sums =
            parallel_map_budget(ranges, effective_budget(), |_, r| base[r].iter().sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), 1000 * 999 / 2);
    }

    #[test]
    fn workers_is_positive() {
        assert!(workers() >= 1);
    }

    #[test]
    fn budgeted_map_matches_sequential_for_every_budget() {
        let _serial = crate::pool::tests::serial();
        let items: Vec<usize> = (0..123).collect();
        let seq = parallel_map_budget(items.clone(), 1, |i, v| i * 7 + v);
        for budget in [0usize, 2, 3, 8, 64] {
            let out = parallel_map_budget(items.clone(), budget, |i, v| i * 7 + v);
            assert_eq!(out, seq, "budget {budget}");
        }
    }

    #[test]
    fn budgeted_map_caps_threads_at_item_count() {
        let _serial = crate::pool::tests::serial();
        // 2 items with a budget of 16 must still complete (threads min n).
        let out = parallel_map_budget(vec![10usize, 20], 16, |_, v| v * 2);
        assert_eq!(out, vec![20, 40]);
    }

    #[test]
    fn nested_fan_outs_inherit_divided_budgets() {
        let _serial = crate::pool::tests::serial();
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
        let _serial = crate::pool::tests::serial();
        // Budget 7 over 4 lanes: 2+2+2+1, never 1+1+1+1 (3 workers lost).
        let grants: Vec<usize> = (0..4).map(|lane| lane_budget(7, 4, lane)).collect();
        assert_eq!(grants, vec![2, 2, 2, 1]);
        assert_eq!(grants.iter().sum::<usize>(), 7, "lane allowances must sum to the budget");
        // Which lane claims which item is scheduling; every item must still
        // see one of the grants.
        let seen =
            parallel_map_budget((0..4).collect::<Vec<usize>>(), 7, |_, _| effective_budget());
        assert!(seen.iter().all(|b| grants.contains(b)), "{seen:?} against {grants:?}");

        let grants: Vec<usize> = (0..4).map(|lane| lane_budget(11, 4, lane)).collect();
        assert_eq!(grants, vec![3, 3, 3, 2]);
        assert!(grants.iter().sum::<usize>() <= 11);
        let seen =
            parallel_map_budget((0..4).collect::<Vec<usize>>(), 11, |_, _| effective_budget());
        assert!(seen.iter().all(|b| grants.contains(b)), "{seen:?} against {grants:?}");
    }

    #[test]
    fn for_each_budget_writes_every_piece_once_at_every_budget() {
        let _serial = crate::pool::tests::serial();
        let want: Vec<usize> = (0..1000).map(|i| i * 3 + 1).collect();
        for budget in [0usize, 1, 2, 3, 8, 64] {
            for piece in [1usize, 7, 1000] {
                let mut out = vec![0usize; 1000];
                for_each_budget(out.chunks_mut(piece).enumerate(), budget, |(p, chunk)| {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v += (p * piece + j) * 3 + 1;
                    }
                });
                assert_eq!(out, want, "budget {budget}, pieces of {piece}");
            }
        }
        // Each lane carries its share of the budget, as in the map.
        let seen = Mutex::new(Vec::new());
        for_each_budget(0..4, 6, |_| seen.lock().expect("seen").push(effective_budget()));
        assert!(seen.into_inner().expect("seen").iter().all(|&b| b == 2 || b == 1));
    }

    #[test]
    fn lanes_for_gives_every_lane_a_lane_of_work_within_the_budget() {
        for budget in [0usize, 1, 2, 3, 8, 64] {
            for work in [0, 1, LANE_NS - 1, LANE_NS, 2 * LANE_NS - 1, 2 * LANE_NS, 100 * LANE_NS] {
                let lanes = lanes_for(budget, work);
                assert!(lanes >= 1 && lanes <= budget.max(1), "budget {budget}, work {work}");
                // The largest count whose share is a whole lane of work.
                if lanes > 1 {
                    assert!(work / lanes as u64 >= LANE_NS, "budget {budget}, work {work}");
                }
                if lanes < budget {
                    assert!(work / (lanes as u64 + 1) < LANE_NS, "budget {budget}, work {work}");
                }
            }
        }
    }

    #[test]
    fn budget_context_restores_after_inline_regions() {
        let outer = effective_budget();
        let _ = parallel_map_budget(vec![1u32], 5, |_, v| v);
        assert_eq!(effective_budget(), outer, "inline region must restore the caller's budget");
    }
}
