//! Adaptive overload control: hysteresis-guarded brown-out levels.
//!
//! The paper's core observation — greedy FPS makes the first `k` samples a
//! near-optimal `k`-point answer — gives the engine a knob between "serve
//! everything at full quality" and "shed": under pressure it can serve
//! *less depth* instead of *fewer requests*. The [`OverloadController`]
//! watches queue-wait observations from the workers and moves through
//! levels `Normal → BrownOut(1..=3) → Shed`:
//!
//! * **Normal** (level 0) — every request runs at its requested budget.
//! * **BrownOut(n)** (levels 1–3) — admitted `Normal`/`Bulk` frames run
//!   the ordinary stage 1 at a sample budget of `1/2ⁿ` of their requested
//!   depth (bit-identical to the same-length prefix of the full run, by
//!   the PR 9 ordering contract). `High` priority is never
//!   degraded, and responses carry a `degraded: budget_served` marker.
//! * **Shed** (level 4) — degradation wasn't enough: new `Normal`/`Bulk`
//!   admissions shed retryably ([`QueueFull`](crate::ShedReason)) before
//!   touching the queue; `High` still admits (and still runs full-depth).
//!
//! Transitions are hysteresis-guarded three ways so the level cannot flap
//! across a threshold: escalation and relaxation use *different* wait
//! thresholds (`escalate_wait_us` > `relax_wait_us`), each needs a run of
//! *consecutive* over/under observations (`escalate_after` /
//! `relax_after`), and every change is rate-limited by a dwell time
//! (`dwell_ms`). Relaxation additionally happens on *idle decay*: a level
//! held with no observations at all (traffic stopped entirely) steps down
//! one level per dwell period whenever anything reads the level — so the
//! controller provably returns to `Normal` after load subsides, with or
//! without residual traffic.
//!
//! The not-overloaded hot path costs exactly one relaxed atomic load
//! ([`OverloadController::level_u8`] in `Engine::admit`); all bookkeeping
//! runs on the worker side, once per batch.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// Highest brown-out level before shedding kicks in.
pub(crate) const MAX_BROWNOUT: u8 = 3;
/// The shed level (one past the deepest brown-out).
pub(crate) const SHED_LEVEL: u8 = MAX_BROWNOUT + 1;

/// Where the engine sits on the graceful-degradation ladder. Obtained from
/// [`Engine::overload_level`](crate::Engine::overload_level) or the
/// `overload_level` field of [`EngineHealth`](crate::EngineHealth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OverloadLevel {
    /// No degradation: every request runs at its requested budget.
    Normal,
    /// Brown-out level `n` (1–3): `Normal`/`Bulk` frames run at `1/2ⁿ` of
    /// their requested sample budget; `High` is untouched.
    BrownOut(u8),
    /// Beyond brown-out: new `Normal`/`Bulk` admissions shed retryably.
    Shed,
}

impl OverloadLevel {
    /// The wire/metrics byte: 0 = Normal, 1–3 = BrownOut(n), 4 = Shed.
    pub fn as_u8(self) -> u8 {
        match self {
            OverloadLevel::Normal => 0,
            OverloadLevel::BrownOut(n) => n.clamp(1, MAX_BROWNOUT),
            OverloadLevel::Shed => SHED_LEVEL,
        }
    }

    /// Decodes the wire/metrics byte (values past the ladder clamp to
    /// [`OverloadLevel::Shed`]).
    pub fn from_u8(v: u8) -> OverloadLevel {
        match v {
            0 => OverloadLevel::Normal,
            n if n <= MAX_BROWNOUT => OverloadLevel::BrownOut(n),
            _ => OverloadLevel::Shed,
        }
    }
}

impl std::fmt::Display for OverloadLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverloadLevel::Normal => write!(f, "normal"),
            OverloadLevel::BrownOut(n) => write!(f, "brownout-{n}"),
            OverloadLevel::Shed => write!(f, "shed"),
        }
    }
}

/// Tunables of the [`OverloadController`], carried in
/// [`ServeConfig::brownout`](crate::ServeConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// Master switch: disabled pins the level at `Normal` forever (and the
    /// admission-path load still costs one relaxed atomic read).
    pub enabled: bool,
    /// Pin the controller at this level (0–4) regardless of observations —
    /// the test/chaos hook behind `FRACTALCLOUD_SERVE_BROWNOUT=force:N`.
    /// `None` = adaptive.
    pub forced: Option<u8>,
    /// Queue-wait observation (µs) above which pressure is "over": a run
    /// of `escalate_after` consecutive over-observations escalates one
    /// level (dwell permitting).
    pub escalate_wait_us: u64,
    /// Queue-wait observation (µs) below which pressure is "under": a run
    /// of `relax_after` consecutive under-observations relaxes one level
    /// (dwell permitting). Must sit *below* `escalate_wait_us` — the gap
    /// is the hysteresis band where the level holds.
    pub relax_wait_us: u64,
    /// Consecutive over-threshold observations required to escalate.
    pub escalate_after: u32,
    /// Consecutive under-threshold observations required to relax.
    pub relax_after: u32,
    /// Minimum milliseconds between level changes (both directions), and
    /// the idle-decay period: a level with no observations at all steps
    /// down once per dwell.
    pub dwell_ms: u64,
}

impl Default for BrownoutConfig {
    fn default() -> BrownoutConfig {
        BrownoutConfig {
            enabled: true,
            forced: None,
            // Defaults are deliberately conservative: a request sitting
            // 250 ms in queue is far outside any healthy steady state, so
            // ordinary test and benchmark traffic never browns out.
            escalate_wait_us: 250_000,
            relax_wait_us: 50_000,
            escalate_after: 4,
            relax_after: 8,
            dwell_ms: 250,
        }
    }
}

impl BrownoutConfig {
    /// Parses the `FRACTALCLOUD_SERVE_BROWNOUT` grammar:
    /// `off` | `0` disables, `on` | `1` | `adaptive` enables the defaults,
    /// `force:N` pins level `N` (0–4), and
    /// `adaptive:escalate_us,relax_us,dwell_ms` tunes the thresholds.
    /// Anything unparseable falls back to `def`.
    pub fn parse(spec: &str, def: BrownoutConfig) -> BrownoutConfig {
        let spec = spec.trim();
        match spec {
            "off" | "0" => return BrownoutConfig { enabled: false, ..def },
            "on" | "1" | "adaptive" => {
                return BrownoutConfig { enabled: true, forced: None, ..def }
            }
            _ => {}
        }
        if let Some(level) = spec.strip_prefix("force:") {
            if let Ok(level) = level.trim().parse::<u8>() {
                return BrownoutConfig {
                    enabled: true,
                    forced: Some(level.min(SHED_LEVEL)),
                    ..def
                };
            }
        }
        if let Some(rest) = spec.strip_prefix("adaptive:") {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if let [esc, rel, dwell] = parts[..] {
                if let (Ok(esc), Ok(rel), Ok(dwell)) =
                    (esc.parse::<u64>(), rel.parse::<u64>(), dwell.parse::<u64>())
                {
                    return BrownoutConfig {
                        enabled: true,
                        forced: None,
                        escalate_wait_us: esc.max(1),
                        relax_wait_us: rel.min(esc.saturating_sub(1)),
                        dwell_ms: dwell,
                        ..def
                    };
                }
            }
        }
        def
    }
}

/// The engine-side controller. All state is atomic: observations arrive
/// from many workers, level reads from every admission, and neither side
/// ever takes a lock for it.
pub(crate) struct OverloadController {
    cfg: BrownoutConfig,
    /// Current level byte (0–4). The one word the admission path reads.
    level: AtomicU8,
    /// Consecutive over-threshold observations.
    over: AtomicU32,
    /// Consecutive under-threshold observations.
    under: AtomicU32,
    /// Milliseconds (since `epoch`) of the last level change.
    changed_ms: AtomicU64,
    /// Milliseconds (since `epoch`) of the last observation.
    observed_ms: AtomicU64,
    epoch: Instant,
}

impl OverloadController {
    pub(crate) fn new(cfg: BrownoutConfig, epoch: Instant) -> OverloadController {
        OverloadController {
            level: AtomicU8::new(cfg.forced.map_or(0, |f| f.min(SHED_LEVEL))),
            cfg,
            over: AtomicU32::new(0),
            under: AtomicU32::new(0),
            changed_ms: AtomicU64::new(0),
            observed_ms: AtomicU64::new(0),
            epoch,
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// The admission-path read: one relaxed load, nothing else.
    #[inline]
    pub(crate) fn level_u8(&self) -> u8 {
        self.level.load(Ordering::Relaxed)
    }

    /// The level as the public enum, after applying idle decay (a level
    /// held with zero traffic steps down one notch per dwell period) —
    /// the form health probes and metrics renderers read.
    pub(crate) fn level(&self) -> OverloadLevel {
        self.decay_idle();
        OverloadLevel::from_u8(self.level_u8())
    }

    /// One queue-wait observation (µs a job sat admitted before its batch
    /// started). Called by workers once per batch with the batch's worst
    /// wait; applies the hysteresis rules.
    pub(crate) fn observe_wait_us(&self, wait_us: u64) {
        if !self.cfg.enabled || self.cfg.forced.is_some() {
            return;
        }
        let now = self.now_ms();
        self.observed_ms.store(now, Ordering::Relaxed);
        if wait_us >= self.cfg.escalate_wait_us {
            self.under.store(0, Ordering::Relaxed);
            let run = self.over.fetch_add(1, Ordering::Relaxed) + 1;
            if run >= self.cfg.escalate_after {
                self.try_step(now, 1);
            }
        } else if wait_us <= self.cfg.relax_wait_us {
            self.over.store(0, Ordering::Relaxed);
            let run = self.under.fetch_add(1, Ordering::Relaxed) + 1;
            if run >= self.cfg.relax_after {
                self.try_step(now, -1);
            }
        } else {
            // Inside the hysteresis band: both runs reset, the level holds.
            self.over.store(0, Ordering::Relaxed);
            self.under.store(0, Ordering::Relaxed);
        }
    }

    /// A deadline shed observed at the execution seam counts as maximal
    /// pressure: jobs are dying in the queue, which is exactly what
    /// brown-out exists to prevent.
    pub(crate) fn observe_deadline_shed(&self) {
        self.observe_wait_us(u64::MAX);
    }

    /// Steps the level by `dir` (±1) if the dwell has elapsed; resets the
    /// run counters either way, so the next run starts fresh.
    fn try_step(&self, now: u64, dir: i8) {
        let level = self.level.load(Ordering::Relaxed);
        let target =
            if dir > 0 { level.saturating_add(1).min(SHED_LEVEL) } else { level.saturating_sub(1) };
        if target == level {
            return;
        }
        let changed = self.changed_ms.load(Ordering::Relaxed);
        if now.saturating_sub(changed) < self.cfg.dwell_ms && changed != 0 {
            return;
        }
        if self.level.compare_exchange(level, target, Ordering::Relaxed, Ordering::Relaxed).is_ok()
        {
            self.changed_ms.store(now.max(1), Ordering::Relaxed);
            self.over.store(0, Ordering::Relaxed);
            self.under.store(0, Ordering::Relaxed);
        }
    }

    /// Idle decay: with no observations for a full dwell period (traffic
    /// stopped entirely — workers see no batches, so nothing calls
    /// `observe_wait_us`), the level steps down one notch per dwell.
    /// Driven from level reads (health probes, metrics renders), which is
    /// where recovery matters: an orchestrator polling HEALTH sees the
    /// ladder walk back to `Normal` even in total silence.
    fn decay_idle(&self) {
        if !self.cfg.enabled || self.cfg.forced.is_some() {
            return;
        }
        if self.level.load(Ordering::Relaxed) == 0 {
            return;
        }
        let now = self.now_ms();
        let quiet_since =
            self.observed_ms.load(Ordering::Relaxed).max(self.changed_ms.load(Ordering::Relaxed));
        if now.saturating_sub(quiet_since) >= self.cfg.dwell_ms.max(1) {
            self.observed_ms.store(now, Ordering::Relaxed);
            self.try_step(now, -1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> BrownoutConfig {
        BrownoutConfig {
            enabled: true,
            forced: None,
            escalate_wait_us: 1000,
            relax_wait_us: 100,
            escalate_after: 3,
            relax_after: 3,
            dwell_ms: 0,
        }
    }

    #[test]
    fn escalates_only_after_consecutive_over_observations() {
        let c = OverloadController::new(quick_cfg(), Instant::now());
        c.observe_wait_us(5000);
        c.observe_wait_us(5000);
        assert_eq!(c.level(), OverloadLevel::Normal, "two of three is not a run");
        // An under-observation resets the run.
        c.observe_wait_us(10);
        c.observe_wait_us(5000);
        c.observe_wait_us(5000);
        assert_eq!(c.level(), OverloadLevel::Normal);
        c.observe_wait_us(5000);
        assert_eq!(c.level(), OverloadLevel::BrownOut(1));
    }

    #[test]
    fn climbs_to_shed_and_walks_back_to_normal() {
        let c = OverloadController::new(quick_cfg(), Instant::now());
        for _ in 0..12 {
            c.observe_wait_us(5000);
        }
        assert_eq!(c.level(), OverloadLevel::Shed, "sustained pressure tops the ladder");
        for _ in 0..12 {
            c.observe_wait_us(10);
        }
        assert_eq!(c.level(), OverloadLevel::Normal, "sustained calm walks it back down");
    }

    #[test]
    fn hysteresis_band_holds_the_level_without_flapping() {
        let c = OverloadController::new(quick_cfg(), Instant::now());
        for _ in 0..3 {
            c.observe_wait_us(5000);
        }
        assert_eq!(c.level(), OverloadLevel::BrownOut(1));
        // Observations between relax (100) and escalate (1000) thresholds:
        // the level must hold exactly, however many arrive.
        for _ in 0..100 {
            c.observe_wait_us(500);
        }
        assert_eq!(c.level(), OverloadLevel::BrownOut(1), "the band is where the level rests");
        // And alternating straddles never accumulate a run either way.
        for i in 0..100 {
            c.observe_wait_us(if i % 2 == 0 { 5000 } else { 10 });
        }
        assert_eq!(c.level(), OverloadLevel::BrownOut(1), "alternation must not flap the level");
    }

    #[test]
    fn forced_level_ignores_observations() {
        let cfg = BrownoutConfig { forced: Some(2), ..quick_cfg() };
        let c = OverloadController::new(cfg, Instant::now());
        for _ in 0..20 {
            c.observe_wait_us(10);
        }
        assert_eq!(c.level(), OverloadLevel::BrownOut(2));
    }

    #[test]
    fn disabled_controller_stays_normal() {
        let cfg = BrownoutConfig { enabled: false, ..quick_cfg() };
        let c = OverloadController::new(cfg, Instant::now());
        for _ in 0..20 {
            c.observe_wait_us(u64::MAX);
        }
        assert_eq!(c.level(), OverloadLevel::Normal);
    }

    #[test]
    fn idle_decay_recovers_without_traffic() {
        let cfg = BrownoutConfig { dwell_ms: 1, ..quick_cfg() };
        let c = OverloadController::new(cfg, Instant::now());
        for _ in 0..3 {
            c.observe_wait_us(5000);
        }
        assert!(matches!(c.level(), OverloadLevel::BrownOut(_)));
        // No further observations at all: polling the level must walk it
        // back down, one dwell period per step.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while c.level() != OverloadLevel::Normal && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(c.level(), OverloadLevel::Normal, "idle decay must reach Normal");
    }

    #[test]
    fn level_byte_round_trips() {
        for v in 0..=4u8 {
            assert_eq!(OverloadLevel::from_u8(v).as_u8(), v);
        }
        assert_eq!(OverloadLevel::from_u8(200), OverloadLevel::Shed);
    }

    #[test]
    fn parse_grammar() {
        let def = BrownoutConfig::default();
        assert!(!BrownoutConfig::parse("off", def).enabled);
        assert!(!BrownoutConfig::parse("0", def).enabled);
        assert!(BrownoutConfig::parse("on", def).enabled);
        assert_eq!(BrownoutConfig::parse("force:2", def).forced, Some(2));
        assert_eq!(BrownoutConfig::parse("force:99", def).forced, Some(SHED_LEVEL));
        let tuned = BrownoutConfig::parse("adaptive:2000,300,50", def);
        assert_eq!(tuned.escalate_wait_us, 2000);
        assert_eq!(tuned.relax_wait_us, 300);
        assert_eq!(tuned.dwell_ms, 50);
        assert_eq!(BrownoutConfig::parse("gibberish", def), def);
    }
}
