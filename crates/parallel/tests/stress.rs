//! Stress test for the lane pool: several OS threads run nested fan-outs
//! at once (budgets 1–8, 0–300 items, a nested fan-out of 0–8 items inside
//! every item, a lane panic injected into a seeded subset of calls). Every
//! call must either equal the sequential map or re-raise its panic as a
//! catchable unwind, and the whole run must finish: a caller that returned
//! while a helper still ran one of its lanes, or waited for a lane that
//! never started, shows up here as a wrong result, a crash or a hang.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use fractalcloud_parallel::{effective_budget, parallel_map_budget};

const CALLERS: u64 = 4;
const CASES_PER_CALLER: usize = 300;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What an item maps to, however it is scheduled. Some items spin a
/// little, so that helpers really run beside the caller.
fn value(i: usize, v: u64) -> u64 {
    let spins = v % 4 * 200;
    let mut acc = v;
    for k in 0..spins {
        acc = std::hint::black_box(acc.rotate_left(7) ^ k);
    }
    acc.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left((i % 63) as u32)
}

struct Case {
    items: Vec<u64>,
    budget: usize,
    inner: usize,
    /// `(outer item, None)` panics in the outer lane, `(outer item,
    /// Some(inner item))` inside the nested fan-out.
    panic_at: Option<(usize, Option<usize>)>,
}

impl Case {
    fn draw(rng: &mut u64) -> Case {
        // Half the cases have at most 8 items, often fewer than their
        // budget: each lane then keeps an allowance above 1, so the nested
        // fan-outs go through the pool too, from inside helper lanes.
        let most = if splitmix(rng).is_multiple_of(2) { 8 } else { 300 };
        let n = (splitmix(rng) % (most + 1)) as usize;
        let budget = 1 + (splitmix(rng) % 8) as usize;
        let inner = (splitmix(rng) % 9) as usize;
        let items = (0..n).map(|_| splitmix(rng)).collect();
        let panic_at = (n > 0 && splitmix(rng).is_multiple_of(6)).then(|| {
            let at = (splitmix(rng) % n as u64) as usize;
            let nested = inner > 0 && splitmix(rng).is_multiple_of(2);
            (at, nested.then(|| (splitmix(rng) % inner as u64) as usize))
        });
        Case { items, budget, inner, panic_at }
    }

    /// Maps the case's items at `budget`, each nested fan-out at the
    /// allowance its lane inherits (a budget of 1 is the sequential map at
    /// both levels); the injected panic fires only with `inject`.
    fn run(&self, budget: usize, inject: bool) -> Vec<u64> {
        let panic_at = self.panic_at.filter(|_| inject);
        let f = |i: usize, v: u64| {
            if panic_at == Some((i, None)) {
                panic!("injected outer lane panic");
            }
            let inner: Vec<u64> = (0..self.inner as u64).map(|j| v ^ j).collect();
            let nested = parallel_map_budget(inner, effective_budget(), |j, w| {
                if panic_at == Some((i, Some(j))) {
                    panic!("injected nested lane panic");
                }
                value(j, w)
            });
            nested.iter().fold(value(i, v), |acc, x| acc.wrapping_add(*x))
        };
        parallel_map_budget(self.items.clone(), budget, f)
    }
}

#[test]
fn concurrent_nested_fan_outs_equal_the_sequential_map_or_unwind() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected =
            info.payload().downcast_ref::<&str>().is_some_and(|m| m.starts_with("injected"));
        if !injected {
            default_hook(info);
        }
    }));

    let (done, finished) = mpsc::channel();
    let callers: Vec<_> = (0..CALLERS)
        .map(|caller| {
            let done = done.clone();
            std::thread::spawn(move || {
                let mut rng = 7 + caller;
                let mut unwound = 0;
                for _ in 0..CASES_PER_CALLER {
                    let case = Case::draw(&mut rng);
                    let want = case.run(1, false);
                    match catch_unwind(AssertUnwindSafe(|| case.run(case.budget, true))) {
                        Ok(got) => {
                            assert_eq!(case.panic_at, None, "an injected panic was lost");
                            assert_eq!(got, want, "budget {}, {} items", case.budget, want.len());
                        }
                        Err(_) => {
                            assert!(case.panic_at.is_some(), "an unwind nothing injected");
                            unwound += 1;
                        }
                    }
                }
                done.send(unwound).expect("the test thread is waiting");
            })
        })
        .collect();
    drop(done);
    let mut unwound = 0;
    for _ in 0..CALLERS {
        match finished.recv_timeout(Duration::from_secs(300)) {
            Ok(n) => unwound += n,
            Err(RecvTimeoutError::Timeout) => panic!("a caller hung"),
            // A caller panicked; its join below says why.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for caller in callers {
        caller.join().expect("every caller's assertions hold");
    }
    assert!(unwound > 0, "the seeds injected no panic");
}
