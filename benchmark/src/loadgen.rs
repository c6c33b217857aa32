//! The load generator: closed-loop rounds, a windowed in-process burst, and
//! an open-loop phase on a seeded Poisson schedule. Knows nothing about the
//! program under test — it drives [`Target`]s and closures — so the
//! accounting rules below are unit-tested against synthetic servers.
//!
//! Accounting rules:
//! * a closed-loop request is timed from just before it is sent;
//! * an open-loop request is timed from when it was **due**, so the wait a
//!   stall imposes on the arrivals behind it is counted, and how late the
//!   generator actually sent (`lag`) is reported beside it;
//! * a failed request has no latency, and still counts as attempted;
//! * a round's wall time ends at its last completion, so every request
//!   counted in a round's throughput ran entirely inside that round.

use crate::stats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Client-side timestamps of one finished request.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// First usable result decoded.
    pub first: Instant,
    /// Full reply decoded (verification happens after this instant).
    pub done: Instant,
    /// Reply arrived with an OK status *and* matched its expected digest.
    pub ok: bool,
}

/// Something that can serve request number `n` of the run and block until
/// the reply is decoded and checked.
pub trait Target: Send {
    fn request(&mut self, n: usize) -> Outcome;
}

/// One request as the statistics see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub ok: bool,
    /// Priority class (0 High / 1 Normal / 2 Bulk); 1 on wire workloads.
    pub class: u8,
    pub latency_ms: f64,
    pub first_ms: f64,
}

/// One measured round.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    /// Process CPU (user + system) consumed during the round.
    pub cpu_s: f64,
}

impl Round {
    pub fn completed(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }

    /// Ascending latencies of the verified requests.
    pub fn latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().filter(|s| s.ok).map(|s| s.latency_ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn latency_p50_ms(&self) -> f64 {
        stats::percentile_sorted(&self.latencies(), 50.0)
    }

    pub fn first_p50_ms(&self) -> f64 {
        let mut v: Vec<f64> = self.samples.iter().filter(|s| s.ok).map(|s| s.first_ms).collect();
        v.sort_by(f64::total_cmp);
        stats::percentile_sorted(&v, 50.0)
    }

    /// Verified completions ÷ the round's wall time.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.completed() as f64 / self.wall_s
        } else {
            0.0
        }
    }

    pub fn cpu_ms_per_req(&self) -> f64 {
        match self.completed() {
            0 => 0.0,
            n => self.cpu_s * 1e3 / n as f64,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One closed-loop round: every target sends its next request as soon as
/// the previous reply is decoded, until `dur` has passed; in-flight requests
/// finish. Request numbers come from the shared `cursor`, so the run walks
/// its input pool in one fixed order however many targets share it. A
/// target stops at its first failure (a dead connection would otherwise
/// fail thousands of times a second and drown the count).
pub fn closed_round<T: Target>(
    targets: &mut [T],
    cursor: &AtomicUsize,
    dur: Duration,
) -> Result<Round, String> {
    let cpu0 = stats::process_cpu_s()?;
    let start = Instant::now();
    let deadline = start + dur;
    let per_target: Vec<(Vec<Sample>, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .map(|target| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        let n = cursor.fetch_add(1, Ordering::Relaxed);
                        let sent = Instant::now();
                        let o = target.request(n);
                        samples.push(Sample {
                            ok: o.ok,
                            class: 1,
                            latency_ms: ms(o.done.saturating_duration_since(sent)),
                            first_ms: ms(o.first.saturating_duration_since(sent)),
                        });
                        if !o.ok {
                            break;
                        }
                    }
                    (samples, Instant::now())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load-generator thread panicked")).collect()
    });
    let end = per_target.iter().map(|(_, at)| *at).max().unwrap_or(start);
    Ok(Round {
        samples: per_target.into_iter().flat_map(|(s, _)| s).collect(),
        wall_s: end.saturating_duration_since(start).as_secs_f64(),
        cpu_s: stats::process_cpu_s()? - cpu0,
    })
}

/// One windowed in-process round: the calling thread is the only generator
/// and keeps `window` requests outstanding until `dur` has passed. `submit`
/// admits request `n` at priority `class` without blocking and returns its
/// ticket; `complete` blocks on a ticket and returns `(done, verified)`.
///
/// Tickets are waited on by one parked thread per priority class, in
/// submission order *within* the class. A single FIFO waiter would observe
/// a High request only after every older Bulk one had finished — exactly
/// the reordering priorities exist to produce — while the engine keeps
/// arrival order inside a class, so per-class FIFO sees each completion
/// when it happens. The waiters only block and time-stamp.
pub fn window_round<P: Send>(
    window: usize,
    dur: Duration,
    cursor: &AtomicUsize,
    class_of: &(dyn Fn(usize) -> u8 + Sync),
    submit: &(dyn Fn(usize, u8) -> Result<P, String> + Sync),
    complete: &(dyn Fn(P, usize) -> (Instant, bool) + Sync),
) -> Result<Round, String> {
    let cpu0 = stats::process_cpu_s()?;
    let start = Instant::now();
    let deadline = start + dur;
    let (samples, end) = std::thread::scope(|scope| {
        let (freed_tx, freed_rx) = mpsc::channel::<()>();
        let mut lanes = Vec::new();
        let mut waiters = Vec::new();
        for class in 0..3u8 {
            let (tx, rx) = mpsc::channel::<(P, usize, Instant)>();
            let freed = freed_tx.clone();
            lanes.push(tx);
            waiters.push(scope.spawn(move || {
                let mut samples = Vec::new();
                let mut last = start;
                for (ticket, n, sent) in rx {
                    let (done, ok) = complete(ticket, n);
                    let latency_ms = ms(done.saturating_duration_since(sent));
                    samples.push(Sample { ok, class, latency_ms, first_ms: latency_ms });
                    last = last.max(done);
                    // The generator outlives every send: it drains `freed`
                    // until nothing is outstanding.
                    let _ = freed.send(());
                }
                (samples, last)
            }));
        }
        drop(freed_tx);

        let mut refused = Vec::new();
        let mut outstanding = 0usize;
        loop {
            while outstanding < window && refused.is_empty() && Instant::now() < deadline {
                let n = cursor.fetch_add(1, Ordering::Relaxed);
                let class = class_of(n).min(2);
                let sent = Instant::now();
                match submit(n, class) {
                    Ok(ticket) => {
                        lanes[usize::from(class)]
                            .send((ticket, n, sent))
                            .expect("waiter threads live until their lane closes");
                        outstanding += 1;
                    }
                    Err(_) => {
                        refused.push(Sample { ok: false, class, latency_ms: 0.0, first_ms: 0.0 })
                    }
                }
            }
            if outstanding == 0 {
                break;
            }
            freed_rx.recv().expect("a waiter holds a sender while tickets are outstanding");
            outstanding -= 1;
        }
        drop(lanes);
        let mut samples = refused;
        let mut end = start;
        for w in waiters {
            let (s, last) = w.join().expect("waiter thread panicked");
            samples.extend(s);
            end = end.max(last);
        }
        (samples, end)
    });
    Ok(Round {
        samples,
        wall_s: end.saturating_duration_since(start).as_secs_f64(),
        cpu_s: stats::process_cpu_s()? - cpu0,
    })
}

/// splitmix64: the harness's only random source — a pure function of its
/// argument, so every schedule and every input seed derives from `--seed`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Arrival offsets of a Poisson process at `rate_per_s` over `dur`:
/// exponential gaps drawn from `seed` alone.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, dur: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    if rate_per_s <= 0.0 || !rate_per_s.is_finite() {
        return out;
    }
    let mut t = 0.0;
    for i in 0u64.. {
        let u = (splitmix64(seed ^ splitmix64(i)) >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= dur.as_secs_f64() {
            break;
        }
        out.push(Duration::from_secs_f64(t));
    }
    out
}

/// What the open phase measured.
#[derive(Debug, Clone, Default)]
pub struct OpenPhase {
    /// Latencies here run from each request's *due* time.
    pub samples: Vec<Sample>,
    /// Per request: how long after its due time the generator sent it.
    pub lag_ms: Vec<f64>,
}

/// The open-loop phase: arrival `i` is due at `start + schedule[i]` and is
/// sent at that time by whichever target is free — or as soon as one is,
/// when every target is still waiting on a reply (the protocol has one
/// request in flight per connection). Lateness is never forgiven: latency
/// runs from the due time.
pub fn open_phase<T: Target>(
    targets: &mut [T],
    cursor: &AtomicUsize,
    schedule: &[Duration],
) -> OpenPhase {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let next = &next;
    let per_target: Vec<Vec<(Sample, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .map(|target| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while let Some(&offset) = schedule.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let due = start + offset;
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let sent = Instant::now();
                        let o = target.request(cursor.fetch_add(1, Ordering::Relaxed));
                        let sample = Sample {
                            ok: o.ok,
                            class: 1,
                            latency_ms: ms(o.done.saturating_duration_since(due)),
                            first_ms: ms(o.first.saturating_duration_since(due)),
                        };
                        out.push((sample, ms(sent.saturating_duration_since(due))));
                        if !o.ok {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load-generator thread panicked")).collect()
    });
    let mut phase = OpenPhase::default();
    for (sample, lag) in per_target.into_iter().flatten() {
        phase.samples.push(sample);
        phase.lag_ms.push(lag);
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server that takes `stall` for its first request and `quick` after.
    struct Stalling {
        served: usize,
        stall: Duration,
        quick: Duration,
    }

    impl Target for Stalling {
        fn request(&mut self, _n: usize) -> Outcome {
            std::thread::sleep(if self.served == 0 { self.stall } else { self.quick });
            self.served += 1;
            let done = Instant::now();
            Outcome { first: done, done, ok: true }
        }
    }

    #[test]
    fn poisson_schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 200.0, Duration::from_secs(5));
        assert_eq!(a, poisson_schedule(7, 200.0, Duration::from_secs(5)));
        assert_ne!(a, poisson_schedule(8, 200.0, Duration::from_secs(5)));
        // ~1000 arrivals, ascending, inside the window, mean gap ≈ 1/rate.
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &Duration::from_secs(5));
        let mean_gap = a.last().unwrap().as_secs_f64() / a.len() as f64;
        assert!((mean_gap - 0.005).abs() < 0.001, "mean gap {mean_gap}");
        assert!(poisson_schedule(7, 0.0, Duration::from_secs(1)).is_empty());
    }

    #[test]
    fn open_loop_times_from_the_due_instant_and_reports_generator_lag() {
        // One connection, arrivals due every 10 ms, the first reply stalls
        // 80 ms. Sleeps only ever overshoot, so every bound below is a
        // lower bound that holds on any machine.
        let mut targets = [Stalling {
            served: 0,
            stall: Duration::from_millis(80),
            quick: Duration::from_millis(1),
        }];
        let schedule: Vec<Duration> = (0..4).map(|i| Duration::from_millis(10 * i)).collect();
        let phase = open_phase(&mut targets, &AtomicUsize::new(0), &schedule);
        assert_eq!(phase.samples.len(), 4);
        // Request 0 was on time; its latency is the stall.
        assert!(phase.samples[0].latency_ms >= 80.0);
        // Request 1 was due at 10 ms but could only be sent once the stall
        // ended at ≥ 80 ms: the generator was ≥ 70 ms late, and the latency
        // *includes* that wait — a closed-loop timer would have hidden it.
        assert!(phase.lag_ms[1] >= 70.0, "lag {:?}", phase.lag_ms);
        assert!(phase.samples[1].latency_ms >= phase.lag_ms[1] + 1.0);
        // The backlog drains: each later arrival waited less than the last.
        assert!(phase.lag_ms[3] < phase.lag_ms[1]);
    }

    #[test]
    fn closed_round_counts_whole_requests_and_stops_a_failed_target() {
        struct FailsThird(usize);
        impl Target for FailsThird {
            fn request(&mut self, _n: usize) -> Outcome {
                self.0 += 1;
                std::thread::sleep(Duration::from_millis(2));
                let done = Instant::now();
                Outcome { first: done, done, ok: self.0 != 3 }
            }
        }
        let cursor = AtomicUsize::new(0);
        let round =
            closed_round(&mut [FailsThird(0)], &cursor, Duration::from_millis(200)).unwrap();
        assert_eq!((round.completed(), round.samples.len()), (2, 3));
        assert_eq!(cursor.load(Ordering::Relaxed), 3);
        // Wall time covers the requests that ran (≥ 3 × 2 ms), not the
        // 200 ms the round was allowed.
        assert!(round.wall_s >= 0.006 && round.wall_s < 0.2, "{}", round.wall_s);
        assert!(round.latency_p50_ms() >= 2.0);
    }

    #[test]
    fn window_round_keeps_the_window_full_and_attributes_classes() {
        use std::sync::Mutex;
        let in_flight = Mutex::new((0usize, 0usize)); // (current, peak)
        let submit = |n: usize, _class: u8| -> Result<usize, String> {
            let mut g = in_flight.lock().unwrap();
            g.0 += 1;
            g.1 = g.1.max(g.0);
            Ok(n)
        };
        let complete = |ticket: usize, n: usize| {
            std::thread::sleep(Duration::from_millis(1));
            in_flight.lock().unwrap().0 -= 1;
            (Instant::now(), ticket == n)
        };
        let round = window_round(
            4,
            Duration::from_millis(60),
            &AtomicUsize::new(0),
            &|n| (n % 3) as u8,
            &submit,
            &complete,
        )
        .unwrap();
        let peak = in_flight.lock().unwrap().1;
        assert_eq!(peak, 4, "window must fill and never overfill");
        assert!(round.completed() >= 12 && round.completed() == round.samples.len());
        for class in 0..3u8 {
            assert!(round.samples.iter().any(|s| s.class == class));
        }
        assert!(round.samples.iter().all(|s| s.latency_ms >= 1.0));
    }
}
