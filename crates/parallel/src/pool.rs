//! The process-wide lane pool behind [`crate::for_each_budget`].
//!
//! A fan-out of `k` lanes runs lane 0 on the calling thread and offers
//! lanes `1..k` to at most [`crate::workers`] − 1 helper threads, spawned
//! on first need and parked on a condvar between offers. Lanes claim work
//! through the caller's own iterator, so a lane no helper starts costs
//! nothing: the lanes that did start finish the work between them.
//!
//! **Admission.** A helper starts a lane only while fewer than
//! [`crate::workers`] threads run lanes process-wide. A caller counts from
//! its offer until lane 0 is done (once, however deeply its fan-outs
//! nest), a helper while it runs a lane, and a thread inside [`hold`] for
//! as long as it holds. The serving engine's workers hold for the whole of
//! every batch they execute, so a fan-out only gets a helper from a core no
//! engine job is using. A budget is therefore a cap, not a promise: when
//! every core already runs a lane, fan-outs run inline on their callers
//! instead of oversubscribing the host.
//!
//! **Completion.** When lane 0 returns or unwinds, the caller retracts its
//! offer — no lane of it starts after that — waits only for the lanes that
//! did start, then re-raises the first panic. It never waits for a lane
//! that has not started, so nested fan-outs cannot deadlock when every
//! helper is busy. As in `std::thread::scope`, a helper's last access to
//! the caller's frame is one atomic decrement, after which it only unparks
//! its own handle to the caller's thread.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

type Payload = Box<dyn Any + Send + 'static>;

/// One fan-out as its helpers see it. It lives on the caller's stack.
struct FanOut<'a> {
    lane: &'a (dyn Fn(usize) + Sync),
    /// Lanes a helper has started and not yet finished.
    started: AtomicUsize,
}

/// Lanes `next..end` of one fan-out that no helper has taken yet.
struct Offer {
    fan: &'static FanOut<'static>,
    next: usize,
    end: usize,
    caller: Thread,
}

struct State {
    offers: VecDeque<Offer>,
    /// Threads that count against admission (see the module doc).
    running: usize,
    /// Helpers spawned so far.
    helpers: usize,
    /// Helpers parked on [`WAKE`].
    idle: usize,
    /// Panics of helper lanes, by the address of their fan-out, until its
    /// caller collects them. They live here rather than in the caller's
    /// frame so that a helper's last access to that frame is the decrement.
    panics: Vec<(usize, Payload)>,
}

static STATE: Mutex<State> = Mutex::new(State {
    offers: VecDeque::new(),
    running: 0,
    helpers: 0,
    idle: 0,
    panics: Vec::new(),
});
static WAKE: Condvar = Condvar::new();

thread_local! {
    /// Whether this thread already counts as running: a helper always (it
    /// fans out only from inside a lane), a caller while its offer is open
    /// or while it holds.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// The pool's lock. No critical section can panic and each leaves `State`
/// valid, and [`run`] must reach its retraction whatever happened before
/// it, so a poisoned lock is used as it is.
fn lock() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `lane(0)` on the calling thread and offers `lane(1..lanes)` to the
/// pool's helpers, returning once every lane that started has finished.
/// The first panic of any lane is re-raised here, as an ordinary unwind.
pub(crate) fn run(lanes: usize, lane: &(dyn Fn(usize) + Sync)) {
    let workers = crate::workers();
    if lanes <= 1 || workers == 1 {
        return lane(0);
    }
    let fan = FanOut { lane, started: AtomicUsize::new(0) };
    // SAFETY: `erased` outlives `fan` only in name. It is stored in the one
    // offer queued below and copied by each helper that takes a lane from
    // that offer. This function returns only after the offer has been
    // retracted (no helper copies it after that, both happen under the
    // pool lock) and `started` reads 0 (every helper that took a lane has
    // made its last access to `fan`, the decrement). Nothing between here
    // and that wait can unwind: lane 0 runs under `catch_unwind`, and the
    // pool lock ignores poisoning.
    let erased = unsafe { std::mem::transmute::<&FanOut<'_>, &'static FanOut<'static>>(&fan) };
    let id = std::ptr::from_ref(erased) as usize;
    let counted = !COUNTED.replace(true);
    let (wake, spawn) = {
        let mut st = lock();
        st.running += usize::from(counted);
        st.offers.push_back(Offer {
            fan: erased,
            next: 1,
            end: lanes,
            caller: std::thread::current(),
        });
        let admitted = (lanes - 1).min(workers.saturating_sub(st.running));
        let wake = admitted.min(st.idle);
        let spawn = (admitted - wake).min(workers - 1 - st.helpers);
        st.helpers += spawn;
        (wake, spawn)
    };
    (0..wake).for_each(|_| WAKE.notify_one());
    for _ in 0..spawn {
        let helper = std::thread::Builder::new().name("fractalcloud-lane".into()).spawn(helper);
        if helper.is_err() {
            // No thread to be had: the lanes it would have run run inline.
            lock().helpers -= 1;
        }
    }

    let own = catch_unwind(AssertUnwindSafe(|| lane(0)));

    {
        let mut st = lock();
        st.offers.retain(|offer| !std::ptr::eq(offer.fan, erased));
        if counted {
            uncount(&mut st);
        }
    }
    if counted {
        COUNTED.set(false);
    }
    while fan.started.load(Ordering::Acquire) != 0 {
        std::thread::park();
    }
    // Collected under the lock, dropped outside it.
    let theirs: Vec<Payload> =
        lock().panics.extract_if(.., |(fan, _)| *fan == id).map(|(_, payload)| payload).collect();
    if let Some(payload) = own.err().or_else(|| theirs.into_iter().next()) {
        resume_unwind(payload);
    }
}

/// Runs `f` with the calling thread counted against admission, unless it
/// already counts (then `f` just runs). The count is released when `f`
/// returns or unwinds.
pub(crate) fn hold<R>(f: impl FnOnce() -> R) -> R {
    /// Releases the count of the hold that created it.
    struct Held;
    impl Drop for Held {
        fn drop(&mut self) {
            uncount(&mut lock());
            COUNTED.set(false);
        }
    }
    if COUNTED.replace(true) {
        return f();
    }
    lock().running += 1;
    let _held = Held;
    f()
}

/// Releases one count taken by a thread whose `COUNTED` was false, waking a
/// parked helper when an offer waits for the freed core.
fn uncount(st: &mut State) {
    st.running -= 1;
    if !st.offers.is_empty() && st.idle > 0 {
        WAKE.notify_one();
    }
}

/// A helper thread: takes admitted lanes off the front offer, one at a
/// time, and parks while there is none. Helpers live as long as the
/// process, and a lane's panic is caught and handed to its caller, so no
/// helper ever exits.
fn helper() {
    COUNTED.set(true);
    let mut st = lock();
    loop {
        let admitted = st.running < crate::workers();
        let Some(offer) = st.offers.front_mut().filter(|_| admitted) else {
            st.idle += 1;
            st = WAKE.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.idle -= 1;
            continue;
        };
        let (fan, lane, caller) = (offer.fan, offer.next, offer.caller.clone());
        offer.next += 1;
        if offer.next == offer.end {
            st.offers.pop_front();
        }
        // Under the lock, so the caller's retraction sees every start.
        fan.started.fetch_add(1, Ordering::Relaxed);
        st.running += 1;
        drop(st);

        let ran = catch_unwind(AssertUnwindSafe(|| (fan.lane)(lane)));

        st = lock();
        st.running -= 1;
        if let Err(payload) = ran {
            st.panics.push((std::ptr::from_ref(fan) as usize, payload));
        }
        // The last access to the caller's frame: once `started` reads 0 the
        // caller may return. Release pairs with its Acquire load, publishing
        // everything the lane wrote.
        fan.started.fetch_sub(1, Ordering::Release);
        caller.unpark();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Barrier;

    /// The tests of this crate that touch the pool take turns, so that the
    /// admission tests below read a count no other test is moving.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn running() -> usize {
        lock().running
    }

    #[test]
    fn a_hold_counts_once_however_deeply_it_nests() {
        let _serial = serial();
        assert_eq!(running(), 0);
        hold(|| {
            assert_eq!(running(), 1);
            hold(|| assert_eq!(running(), 1, "a nested hold adds nothing"));
            assert_eq!(running(), 1, "a nested hold releases nothing");
        });
        assert_eq!(running(), 0);
    }

    #[test]
    fn a_fan_out_inside_a_hold_adds_only_its_helpers() {
        let _serial = serial();
        hold(|| {
            if crate::workers() == 1 {
                // No helpers: the fan-out runs inline and counts nothing.
                run(2, &|_| assert_eq!(running(), 1));
            } else {
                // The holder is the only other running thread, so the one
                // offered lane is admitted; both lanes meet while it runs.
                let met = Barrier::new(2);
                run(2, &|_| {
                    met.wait();
                    assert_eq!(running(), 2, "the holder once, plus one helper");
                    met.wait();
                });
            }
            assert_eq!(running(), 1);
        });
        assert_eq!(running(), 0);
    }

    #[test]
    fn a_panic_inside_a_hold_restores_the_count() {
        let _serial = serial();
        let unwound = catch_unwind(|| hold(|| panic!("injected panic inside a hold")));
        assert!(unwound.is_err());
        assert_eq!(running(), 0);
        // The thread no longer counts, so a new hold counts it again.
        hold(|| assert_eq!(running(), 1));
    }

    #[test]
    fn fan_outs_run_inline_while_every_other_core_holds() {
        let _serial = serial();
        let holders = crate::workers() - 1;
        let entered = Barrier::new(holders + 1);
        let release = Barrier::new(holders + 1);
        let lanes = Mutex::new(Vec::new());
        // Observed while the holders hold, asserted once they are released,
        // so that a failing assertion cannot leave them waiting.
        let held = std::thread::scope(|scope| {
            for _ in 0..holders {
                scope.spawn(|| {
                    hold(|| {
                        entered.wait();
                        release.wait();
                    })
                });
            }
            entered.wait();
            let held = running();
            crate::for_each_budget(0..64, crate::workers(), |_| {
                lanes.lock().expect("lane ids").push(std::thread::current().id());
            });
            release.wait();
            held
        });
        assert_eq!(held, holders);
        let caller = std::thread::current().id();
        let lanes = lanes.into_inner().expect("lane ids");
        assert_eq!(lanes.len(), 64);
        assert!(lanes.iter().all(|&id| id == caller), "a helper took a lane");
        assert_eq!(running(), 0);
    }
}
