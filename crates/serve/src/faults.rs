//! Deterministic, seeded fault injection for the serving layer.
//!
//! A [`FaultPlan`] names *where* faults strike (injection points: worker
//! execute, block task, cache insert, net read/write), *what* strikes
//! (panic, fixed delay, injected error), and *how often* (a per-million
//! rate), all driven by one seed. The decision for draw `i` at point `p`
//! is a pure function of `(seed, p, i)` — two engines configured with the
//! same plan and offered the same request sequence inject the same faults,
//! which is what makes chaos tests reproducible.
//!
//! The layer is **off by default and zero-cost when disabled**: an engine
//! whose plan is [`FaultPlan::OFF`] carries no [`FaultLayer`] at all, so
//! every injection site reduces to one `Option` discriminant test.
//!
//! # Grammar
//!
//! `FRACTALCLOUD_FAULTS` (and [`FaultPlan::parse`]) accept a spec of the
//! form:
//!
//! ```text
//! panic@worker:0.01,delay@block:5ms:0.05,err@net_write:0.02;seed=42
//! ```
//!
//! i.e. `;`-separated sections, each either `seed=N` or a comma-separated
//! list of `kind@point:rate` atoms — `delay` atoms carry their duration
//! before the rate (`delay@point:5ms:0.05`; `us`, `ms` and `s` suffixes).
//! Kinds: `panic`, `delay`, `err`. Points: `worker`, `block`,
//! `cache_insert`, `net_read`, `net_write`, `credit_stall`. Rates are
//! probabilities in `[0, 1]`, stored to parts-per-million precision.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Number of injection points (the length of [`FaultPoint::ALL`]).
pub const FAULT_POINTS: usize = 6;

/// Where in the serving path a fault can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Worker batch execution, drawn once per batch before it runs. A TCP
    /// stream draws this (and [`FaultPoint::Block`], and
    /// [`FaultPoint::CacheInsert`] when cold) once — for its first paint,
    /// the stream's only engine job — never for a refinement.
    Worker,
    /// One job's block work (partition, sampling + grouping), drawn once
    /// per job as its lane starts it — not once per block.
    Block,
    /// A partition-cache insert (an injected `err` drops the insert —
    /// correctness is unaffected, the next request just misses).
    CacheInsert,
    /// A TCP request read on the server side.
    NetRead,
    /// A TCP response write on the server side — for a stream, once per
    /// chunk the connection thread writes and once for its `STREAM_END`.
    NetWrite,
    /// A streaming credit wait, drawn once each time a stream runs out of
    /// credits and parks: an injected `delay` models a viewer
    /// that stops sending `STREAM_CREDIT` (the slow-consumer stall the
    /// stream deadline must bound); an injected `err` drops the control
    /// read as if the socket died.
    CreditStall,
}

impl FaultPoint {
    /// Every injection point, in [`FaultPoint::index`] order.
    pub const ALL: [FaultPoint; FAULT_POINTS] = [
        FaultPoint::Worker,
        FaultPoint::Block,
        FaultPoint::CacheInsert,
        FaultPoint::NetRead,
        FaultPoint::NetWrite,
        FaultPoint::CreditStall,
    ];

    /// Dense index (0..[`FAULT_POINTS`]).
    pub fn index(self) -> usize {
        match self {
            FaultPoint::Worker => 0,
            FaultPoint::Block => 1,
            FaultPoint::CacheInsert => 2,
            FaultPoint::NetRead => 3,
            FaultPoint::NetWrite => 4,
            FaultPoint::CreditStall => 5,
        }
    }

    /// The grammar name (`worker`, `block`, `cache_insert`, `net_read`,
    /// `net_write`, `credit_stall`).
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::Worker => "worker",
            FaultPoint::Block => "block",
            FaultPoint::CacheInsert => "cache_insert",
            FaultPoint::NetRead => "net_read",
            FaultPoint::NetWrite => "net_write",
            FaultPoint::CreditStall => "credit_stall",
        }
    }

    fn from_name(name: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// What an injected fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic on the executing thread (exercises unwind isolation).
    Panic,
    /// Sleep for the point's configured delay, then proceed normally
    /// (results are unaffected — the kind that can soak a whole test
    /// suite without changing any assertion).
    Delay,
    /// Report an injected error to the caller (internal-error response at
    /// engine points, synthetic IO error at net points, dropped insert at
    /// the cache point).
    Err,
}

impl FaultKind {
    const ALL: [FaultKind; 3] = [FaultKind::Panic, FaultKind::Delay, FaultKind::Err];

    fn index(self) -> usize {
        match self {
            FaultKind::Panic => 0,
            FaultKind::Delay => 1,
            FaultKind::Err => 2,
        }
    }

    fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Delay => "delay",
            FaultKind::Err => "err",
        }
    }

    fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A complete, value-semantic fault-injection configuration.
///
/// Rates are stored in parts per million and delays in microseconds so the
/// plan is `Copy + Eq` and can ride inside
/// [`ServeConfig`](crate::ServeConfig) without breaking its equality
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed every injection decision derives from.
    pub seed: u64,
    /// `rates_ppm[point][kind]`: injection probability in parts per million.
    rates_ppm: [[u32; 3]; FAULT_POINTS],
    /// Per-point delay for [`FaultKind::Delay`], in microseconds.
    delay_us: [u64; FAULT_POINTS],
}

impl FaultPlan {
    /// The disabled plan (every rate zero) — the default everywhere.
    pub const OFF: FaultPlan =
        FaultPlan { seed: 0, rates_ppm: [[0; 3]; FAULT_POINTS], delay_us: [0; FAULT_POINTS] };

    /// Whether every rate is zero (the layer is then not instantiated).
    pub fn is_off(&self) -> bool {
        self.rates_ppm.iter().all(|kinds| kinds.iter().all(|&r| r == 0))
    }

    /// Returns `self` with `kind@point` firing at probability `rate`
    /// (clamped to `[0, 1]`, parts-per-million precision). For
    /// [`FaultKind::Delay`] also set [`FaultPlan::with_delay`].
    pub fn with_fault(mut self, kind: FaultKind, point: FaultPoint, rate: f64) -> FaultPlan {
        self.rates_ppm[point.index()][kind.index()] =
            (rate.clamp(0.0, 1.0) * 1_000_000.0).round() as u32;
        self
    }

    /// Returns `self` with the injected-delay duration for `point`.
    pub fn with_delay(mut self, point: FaultPoint, delay: Duration) -> FaultPlan {
        self.delay_us[point.index()] = delay.as_micros().min(u128::from(u64::MAX)) as u64;
        self
    }

    /// Returns `self` with the given seed.
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Parses the `FRACTALCLOUD_FAULTS` grammar (see the module docs).
    /// An empty (or all-whitespace) spec parses to [`FaultPlan::OFF`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed atom.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::OFF;
        for section in spec.split(';') {
            let section = section.trim();
            if section.is_empty() {
                continue;
            }
            if let Some(seed) = section.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed `{seed}` (expected an unsigned integer)"))?;
                continue;
            }
            for atom in section.split(',') {
                let atom = atom.trim();
                if atom.is_empty() {
                    continue;
                }
                plan = plan.parse_atom(atom)?;
            }
        }
        Ok(plan)
    }

    fn parse_atom(mut self, atom: &str) -> Result<FaultPlan, String> {
        let (kind, rest) = atom
            .split_once('@')
            .ok_or_else(|| format!("bad fault atom `{atom}` (expected kind@point:rate)"))?;
        let kind = FaultKind::from_name(kind.trim())
            .ok_or_else(|| format!("unknown fault kind `{kind}` (panic, delay or err)"))?;
        let (point, args) = rest
            .split_once(':')
            .ok_or_else(|| format!("bad fault atom `{atom}` (missing `:rate`)"))?;
        let point = FaultPoint::from_name(point.trim()).ok_or_else(|| {
            format!(
                "unknown fault point `{point}` (worker, block, cache_insert, net_read, \
                 net_write, credit_stall)"
            )
        })?;
        let rate_str = match kind {
            FaultKind::Delay => {
                let (delay, rate) = args
                    .split_once(':')
                    .ok_or_else(|| format!("bad delay atom `{atom}` (expected duration:rate)"))?;
                self = self.with_delay(point, parse_duration(delay.trim())?);
                rate
            }
            FaultKind::Panic | FaultKind::Err => args,
        };
        let rate: f64 = rate_str
            .trim()
            .parse()
            .map_err(|_| format!("bad rate `{rate_str}` (expected a number in [0, 1])"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("rate {rate} outside [0, 1]"));
        }
        Ok(self.with_fault(kind, point, rate))
    }

    /// The process-wide plan from `FRACTALCLOUD_FAULTS`, resolved once.
    /// A malformed spec disables injection (with a stderr warning) rather
    /// than taking the server down.
    pub fn from_env() -> FaultPlan {
        static PLAN: OnceLock<FaultPlan> = OnceLock::new();
        *PLAN.get_or_init(|| match std::env::var("FRACTALCLOUD_FAULTS") {
            Ok(spec) => FaultPlan::parse(&spec).unwrap_or_else(|e| {
                eprintln!("FRACTALCLOUD_FAULTS ignored: {e}");
                FaultPlan::OFF
            }),
            Err(_) => FaultPlan::OFF,
        })
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::OFF
    }
}

/// One stage of the splitmix64 output mix — a well-dispersed, cheap,
/// dependency-free 64-bit permutation.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The live injection state an engine carries when its plan is enabled.
///
/// Each point keeps an atomic draw counter, so decision `i` at a point is
/// the pure function `splitmix64(seed, point, i)` — deterministic per
/// engine regardless of which worker thread asks.
#[derive(Debug)]
pub struct FaultLayer {
    plan: FaultPlan,
    draws: [AtomicU64; FAULT_POINTS],
    injected: [AtomicU64; FAULT_POINTS],
}

impl FaultLayer {
    /// Builds the layer for `plan`, or `None` when the plan is off — the
    /// `None` is what makes disabled injection one branch per site.
    pub fn new(plan: FaultPlan) -> Option<Arc<FaultLayer>> {
        if plan.is_off() {
            None
        } else {
            Some(Arc::new(FaultLayer {
                plan,
                draws: std::array::from_fn(|_| AtomicU64::new(0)),
                injected: std::array::from_fn(|_| AtomicU64::new(0)),
            }))
        }
    }

    /// Total faults injected at `point` so far.
    pub fn injected_at(&self, point: FaultPoint) -> u64 {
        self.injected[point.index()].load(Ordering::Relaxed)
    }

    /// Draws the next decision for `point`. An injected **delay** is slept
    /// right here; an injected **panic** unwinds from here (message
    /// `injected fault: panic@<point>`); an injected **err** returns
    /// `true`, leaving the caller to fail the operation in its own idiom.
    pub fn fire(&self, point: FaultPoint) -> bool {
        let p = point.index();
        let idx = self.draws[p].fetch_add(1, Ordering::Relaxed);
        let word = splitmix64(self.plan.seed ^ splitmix64(((p as u64) << 56) | idx));
        let roll = (word % 1_000_000) as u32;
        // Disjoint windows over one uniform draw give each kind its
        // configured marginal rate (for the sane regime where the rates at
        // one point sum below 1).
        let [panic_ppm, delay_ppm, err_ppm] = self.plan.rates_ppm[p];
        if roll < panic_ppm {
            self.injected[p].fetch_add(1, Ordering::Relaxed);
            panic!("injected fault: panic@{}", point.name());
        }
        if roll < panic_ppm.saturating_add(delay_ppm) {
            self.injected[p].fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(self.plan.delay_us[p]));
            return false;
        }
        if roll < panic_ppm.saturating_add(delay_ppm).saturating_add(err_ppm) {
            self.injected[p].fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// Parses `5ms` / `250us` / `1s` style durations.
fn parse_duration(s: &str) -> Result<Duration, String> {
    let num = |d: &str| {
        d.parse::<u64>().map_err(|_| format!("bad duration `{s}` (expected e.g. 5ms, 250us, 1s)"))
    };
    if let Some(d) = s.strip_suffix("us") {
        return Ok(Duration::from_micros(num(d)?));
    }
    if let Some(d) = s.strip_suffix("ms") {
        return Ok(Duration::from_millis(num(d)?));
    }
    if let Some(d) = s.strip_suffix('s') {
        return Ok(Duration::from_secs(num(d)?));
    }
    Err(format!("bad duration `{s}` (expected a us/ms/s suffix)"))
}

/// The one-branch disabled path: draws from the layer when present,
/// constant `false` when the engine runs fault-free.
#[inline]
pub(crate) fn fire(layer: &Option<Arc<FaultLayer>>, point: FaultPoint) -> bool {
    match layer {
        None => false,
        Some(l) => {
            let fired = l.fire(point);
            if fired {
                // Injected faults land in the flight recorder too, so a
                // chaos run's trace shows *which* request each fault hit.
                fractalcloud_obs::event(
                    fractalcloud_obs::SpanKind::FaultFire,
                    point.index() as u32,
                );
            }
            fired
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_parses_and_builds_no_layer() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::OFF);
        assert!(FaultPlan::OFF.is_off());
        assert!(FaultLayer::new(FaultPlan::OFF).is_none());
        assert_eq!(FaultPlan::default(), FaultPlan::OFF);
    }

    #[test]
    fn grammar_round_trips_the_documented_example() {
        let plan =
            FaultPlan::parse("panic@worker:0.01,delay@block:5ms:0.05,err@net_write:0.02;seed=42")
                .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rates_ppm[FaultPoint::Worker.index()][FaultKind::Panic.index()], 10_000);
        assert_eq!(plan.rates_ppm[FaultPoint::Block.index()][FaultKind::Delay.index()], 50_000);
        assert_eq!(plan.delay_us[FaultPoint::Block.index()], 5_000);
        assert_eq!(plan.rates_ppm[FaultPoint::NetWrite.index()][FaultKind::Err.index()], 20_000);
        assert!(!plan.is_off());

        let built = FaultPlan::OFF
            .with_fault(FaultKind::Panic, FaultPoint::Worker, 0.01)
            .with_fault(FaultKind::Delay, FaultPoint::Block, 0.05)
            .with_delay(FaultPoint::Block, Duration::from_millis(5))
            .with_fault(FaultKind::Err, FaultPoint::NetWrite, 0.02)
            .with_seed(42);
        assert_eq!(plan, built, "grammar and builder agree");
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "panic@worker",             // missing rate
            "explode@worker:0.5",       // unknown kind
            "panic@gpu:0.5",            // unknown point
            "panic@worker:1.5",         // rate out of range
            "delay@worker:0.5",         // delay without duration
            "delay@worker:5parsec:0.5", // unknown duration unit
            "seed=banana",              // non-numeric seed
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn draws_are_deterministic_per_seed_and_point() {
        let plan = FaultPlan::OFF.with_fault(FaultKind::Err, FaultPoint::NetRead, 0.3).with_seed(7);
        let decisions = |plan| {
            let layer = FaultLayer::new(plan).unwrap();
            (0..256).map(|_| layer.fire(FaultPoint::NetRead)).collect::<Vec<bool>>()
        };
        let a = decisions(plan);
        assert_eq!(a, decisions(plan), "same seed, same decision stream");
        assert_ne!(a, decisions(plan.with_seed(8)), "different seed diverges");
        let hits = a.iter().filter(|&&e| e).count();
        assert!((32..=128).contains(&hits), "≈30% of 256 draws, got {hits}");
    }

    #[test]
    fn injected_panics_unwind_with_the_point_name() {
        let plan =
            FaultPlan::OFF.with_fault(FaultKind::Panic, FaultPoint::Worker, 1.0).with_seed(1);
        let layer = FaultLayer::new(plan).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            layer.fire(FaultPoint::Worker)
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("panic@worker"), "got `{msg}`");
        assert_eq!(layer.injected_at(FaultPoint::Worker), 1);
    }
}
