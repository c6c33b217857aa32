//! One benchmark run: set-up, rounds, result line.
//!
//! `--trace 0` measures the end-to-end metrics with every recorder off: a
//! timed set-up, a discarded warm-up, `ROUNDS` × (solo, then saturated)
//! rounds with a host-speed reading before each, and two more timed
//! set-ups. `--trace 1` is the separate traced run: paired solo rounds with
//! each recorder on and off (what looking costs), one traced solo + one
//! traced saturated round + an open phase, then the single-threaded
//! per-layer replay.

use crate::loadgen::{self, OpenPhase, Outcome, Round, Target};
use crate::names::{END_TO_END, PER_LAYER};
use crate::sut::{self, Conn, Counters, Direct, Frame, Op, Pending, Server};
use crate::workload::{Spec, BURST_WINDOW};
use crate::{calib, json, replay, spans, stats};
use stats::Better::{Higher, Lower};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Args {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: PathBuf,
}

/// Rounds per run. Ten short ones rather than five long ones: a neighbour on
/// the shared host slows this process for seconds at a time, and the metrics
/// are read from the quietest rounds (`stats::quietest`), so what matters is
/// how many separate chances a run has of meeting a quiet stretch.
const ROUNDS: usize = 10;
const SETUPS: usize = 3;
const WARMUP: Duration = Duration::from_secs(1);
/// A reply slower than this is a hung server, reported as a failed request.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Closed-loop connections in a saturated round: enough to keep every core
/// busy, never more threads than cores.
pub fn sat_connections(nproc: usize) -> usize {
    nproc.clamp(1, 4)
}

/// The wall time a run is expected to take, for the watchdog: the measured
/// seconds plus a generous allowance for set-ups, warm-up and replay.
pub fn expected_wall(args: &Args) -> Duration {
    Duration::from_secs(args.seconds + 30)
}

// ---------------------------------------------------------------------------
// The rig: everything one set-up builds
// ---------------------------------------------------------------------------

struct Rig {
    server: Server,
    inputs: Arc<Vec<Frame>>,
    expected: Arc<Vec<u64>>,
    conns: Vec<Conn>,
    /// Engine counters once set-up (incl. cache priming) was done.
    primed: Counters,
}

/// One complete set-up: generate the inputs from the seed, compute every
/// expected reply digest by direct library calls, start the engine (and its
/// TCP front-end), connect, and — for a warm workload — send every input
/// once so the server's caches hold the whole pool.
fn set_up(spec: &Spec, seed: u64, nproc: usize) -> Result<Rig, String> {
    let inputs: Vec<Frame> = (0..spec.pool).map(|k| spec.input(seed, k)).collect();
    let mut direct = Direct::new(spec.op);
    let expected =
        inputs.iter().map(|f| direct.expected_digest(f)).collect::<Result<Vec<u64>, String>>()?;
    let server = Server::start(nproc, spec.wire)?;
    let mut conns = Vec::new();
    if let Some(addr) = server.addr() {
        for _ in 0..sat_connections(nproc) {
            conns.push(Conn::connect(addr, READ_TIMEOUT)?);
        }
    }
    if spec.warm {
        let conn = conns.first_mut().ok_or("a warm workload is primed over the wire")?;
        for (k, frame) in inputs.iter().enumerate() {
            if conn.call(spec.op, frame)?.reply.digest() != expected[k] {
                return Err(format!("priming reply {k} does not match its direct-call digest"));
            }
        }
    }
    let primed = server.counters();
    Ok(Rig { server, inputs: Arc::new(inputs), expected: Arc::new(expected), conns, primed })
}

/// What the engine's own books say once a rig is torn down.
struct Books {
    counters: Counters,
    balanced: bool,
}

fn tear_down(server: Server) -> Books {
    let c = server.stop();
    Books {
        counters: c,
        balanced: c.submitted == c.completed + c.failed + c.shed && c.streams_open == 0,
    }
}

// ---------------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------------

/// How many request failures are worth printing before they are only counted.
static FAILURES_PRINTED: AtomicU64 = AtomicU64::new(0);

fn report_failure(n: usize, why: &str) {
    if FAILURES_PRINTED.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("fcbench: request {n} failed: {why}");
    }
}

/// One closed-loop wire client.
struct WireTarget {
    conn: Conn,
    op: Op,
    inputs: Arc<Vec<Frame>>,
    expected: Arc<Vec<u64>>,
    streams: u64,
    chunks: u64,
    credits: u64,
}

impl Target for WireTarget {
    fn request(&mut self, n: usize) -> Outcome {
        let k = n % self.inputs.len();
        let _request = spans::enter("client.request", n as u64);
        match self.conn.call(self.op, &self.inputs[k]) {
            Ok(x) => {
                let _verify = spans::enter("client.verify", n as u64);
                self.streams += u64::from(x.chunks > 0);
                self.chunks += u64::from(x.chunks);
                self.credits += u64::from(x.credits);
                let ok = !x.reply.degraded() && x.reply.digest() == self.expected[k];
                if !ok {
                    report_failure(n, "reply does not match its direct-call digest");
                }
                Outcome { first: x.first, done: x.done, ok }
            }
            Err(e) => {
                report_failure(n, &e);
                let now = Instant::now();
                Outcome { first: now, done: now, ok: false }
            }
        }
    }
}

/// A set-up rig plus the client side that drives it.
struct Harness {
    spec: &'static Spec,
    seed: u64,
    server: Server,
    inputs: Arc<Vec<Frame>>,
    expected: Arc<Vec<u64>>,
    /// Closed-loop wire clients; empty for the in-process workload.
    targets: Vec<WireTarget>,
    /// Request counter shared by every round: the pool is walked in one
    /// fixed cyclic order for the whole run.
    cursor: AtomicUsize,
    primed: Counters,
}

impl Harness {
    fn new(spec: &'static Spec, seed: u64, rig: Rig) -> Harness {
        let Rig { server, inputs, expected, conns, primed } = rig;
        let targets = conns
            .into_iter()
            .map(|conn| WireTarget {
                conn,
                op: spec.op,
                inputs: Arc::clone(&inputs),
                expected: Arc::clone(&expected),
                streams: 0,
                chunks: 0,
                credits: 0,
            })
            .collect();
        Harness {
            spec,
            seed,
            server,
            inputs,
            expected,
            targets,
            cursor: AtomicUsize::new(0),
            primed,
        }
    }

    /// One round: `saturated` = every connection (or the full ticket
    /// window), otherwise a single closed-loop client (window 1).
    fn round(&mut self, saturated: bool, dur: Duration) -> Result<Round, String> {
        if self.spec.wire {
            let n = if saturated { self.targets.len() } else { 1 };
            return loadgen::closed_round(&mut self.targets[..n], &self.cursor, dur);
        }
        let (spec, seed) = (self.spec, self.seed);
        let (server, inputs, expected) = (&self.server, &self.inputs, &self.expected);
        loadgen::window_round(
            if saturated { BURST_WINDOW } else { 1 },
            dur,
            &self.cursor,
            &|n| spec.class_of(seed, n),
            &|n, class| {
                let _submit = spans::enter("client.submit", n as u64);
                server.submit(&inputs[n % inputs.len()], class)
            },
            &|ticket: Pending, n| {
                let reply = ticket.wait();
                let done = Instant::now();
                let ok = match reply {
                    Ok(r) => {
                        // Replies are dropped, not recycled: a fused batch
                        // builds its responses outside the engine's pool, so
                        // recycling them grows that pool by one ~100 kB
                        // response per request, without bound (README.md,
                        // "Findings"), and peak RSS would measure run length.
                        let ok = !r.degraded() && r.digest() == expected[n % expected.len()];
                        if !ok {
                            report_failure(n, "reply does not match its direct-call digest");
                        }
                        ok
                    }
                    Err(e) => {
                        report_failure(n, &e);
                        false
                    }
                };
                (done, ok)
            },
        )
    }

    /// The open phase at `rate` requests/s over every connection. `None` for
    /// the in-process burst, whose ticket window *is* its arrival process.
    fn open(&mut self, rate: f64, dur: Duration) -> Option<OpenPhase> {
        if !self.spec.wire {
            return None;
        }
        let schedule = loadgen::poisson_schedule(self.seed, rate, dur);
        Some(loadgen::open_phase(&mut self.targets, &self.cursor, &schedule))
    }

    /// `[streams, chunks, credits]` the clients counted so far.
    fn stream_counts(&self) -> [u64; 3] {
        self.targets
            .iter()
            .fold([0; 3], |a, t| [a[0] + t.streams, a[1] + t.chunks, a[2] + t.credits])
    }

    /// Closes every connection, stops the server, and reads its books.
    fn finish(self) -> Books {
        drop(self.targets);
        tear_down(self.server)
    }
}

/// Attempts and failures over a set of rounds.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, samples: &[loadgen::Sample]) {
        self.attempted += samples.len() as u64;
        self.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    }
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    stats::median(&rounds.iter().map(f).collect::<Vec<f64>>())
}

fn quietest_of(rounds: &[Round], f: impl Fn(&Round) -> f64, better: stats::Better) -> f64 {
    stats::quietest(&rounds.iter().map(f).collect::<Vec<f64>>(), better)
}

fn print_header(args: &Args, nproc: usize, scrubbed: &[String]) {
    eprintln!(
        "fcbench: workload={} seed={} seconds={} trace={} nproc={} connections={} kernel={} commit={}",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        if args.spec.wire { sat_connections(nproc) } else { 0 },
        sut::kernel_backend(),
        commit(),
    );
    if !scrubbed.is_empty() {
        eprintln!("fcbench: removed from the environment: {}", scrubbed.join(" "));
    }
}

/// The checked-out commit, when the working directory is a git checkout
/// (the driver's is not): read straight from `.git`, no subprocess.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    match hash.trim() {
        "" => "unknown".to_owned(),
        h => h.chars().take(12).collect(),
    }
}

/// Runs one benchmark invocation and returns its result line.
pub fn run(args: &Args, nproc: usize, scrubbed: &[String]) -> Result<String, String> {
    print_header(args, nproc, scrubbed);
    match args.trace {
        false => run_untraced(args, nproc),
        true => run_traced(args, nproc),
    }
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end metrics
// ---------------------------------------------------------------------------

fn run_untraced(args: &Args, nproc: usize) -> Result<String, String> {
    let spec = args.spec;

    // The first set-up builds the rig that is measured; the others, which
    // exist only so `setup_s` can be a median, run after the measurement and
    // after peak RSS is read. Run before it, their torn-down rigs leave freed
    // memory scattered over malloc's arenas and peak RSS swings by a third
    // from run to run; run after, it holds one rig and repeats.
    let t = Instant::now();
    let rig = set_up(spec, args.seed, nproc)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let mut h = Harness::new(spec, args.seed, rig);

    // Warm-up (discarded, but a failure here is still a failure).
    let mut tally = Tally::default();
    for saturated in [false, true] {
        tally.add(&h.round(saturated, WARMUP / 2)?.samples);
    }

    // Every measured second goes to the rounds; the open-loop phase is a
    // diagnostic and lives in the traced run. The host's speed is read
    // before each round, while the server is idle.
    let round_dur = Duration::from_secs(args.seconds) / (2 * ROUNDS as u32);
    let (mut solo, mut sat) = (Vec::new(), Vec::new());
    let mut host = calib::HostSpeed::default();
    for _ in 0..ROUNDS {
        host.read(nproc);
        solo.push(h.round(false, round_dur)?);
        host.read(nproc);
        sat.push(h.round(true, round_dur)?);
    }
    for r in solo.iter().chain(&sat) {
        tally.add(&r.samples);
    }

    let peak_rss_mb = stats::peak_rss_mb()?;
    let primed = h.primed;
    let books = h.finish();
    let mut correct = books.balanced && tally.failed == 0;
    correct &= books.counters.shed == 0 && books.counters.degraded == 0;
    for _ in 1..SETUPS {
        let t = Instant::now();
        let Rig { server, conns, .. } = set_up(spec, args.seed, nproc)?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(conns);
        correct &= tear_down(server).balanced;
    }

    // The four round metrics are read from the run's quietest rounds and
    // then put on the quiet host's scale: times shrink by the factor the
    // reference work ran slow by, the rate grows by it.
    let slow = host.slowdown();
    let raw = [
        ("latency_p50_ms", quietest_of(&solo, Round::latency_p50_ms, Lower)),
        ("first_paint_p50_ms", quietest_of(&solo, Round::first_p50_ms, Lower)),
        ("throughput_rps", quietest_of(&sat, Round::throughput_rps, Higher)),
        ("cpu_ms_per_req", quietest_of(&sat, Round::cpu_ms_per_req, Lower)),
    ];
    let mut values: BTreeMap<&str, f64> = raw
        .iter()
        .map(|&(name, v)| (name, if name == "throughput_rps" { v * slow } else { v / slow }))
        .collect();
    values.insert("setup_s", stats::median(&setup_s));
    values.insert("peak_rss_mb", peak_rss_mb);

    // Diagnostics a person reads; the driver reads only the last line.
    let spread = |rounds: &[Round], f: fn(&Round) -> f64| {
        100.0 * stats::iqr_over_median(&rounds.iter().map(f).collect::<Vec<f64>>())
    };
    eprintln!(
        "fcbench: round spread (IQR/median): latency_p50 {:.1}%  throughput {:.1}%  cpu/req {:.1}%  | set-ups {:?} s",
        spread(&solo, Round::latency_p50_ms),
        spread(&sat, Round::throughput_rps),
        spread(&sat, Round::cpu_ms_per_req),
        setup_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<f64>>(),
    );
    let per_round = |rounds: &[Round], f: fn(&Round) -> f64| {
        rounds.iter().map(|r| format!("{:.4}", f(r))).collect::<Vec<String>>().join(" ")
    };
    eprintln!("fcbench: rounds latency_p50_ms: {}", per_round(&solo, Round::latency_p50_ms));
    eprintln!("fcbench: rounds first_paint_p50_ms: {}", per_round(&solo, Round::first_p50_ms));
    eprintln!("fcbench: rounds throughput_rps: {}", per_round(&sat, Round::throughput_rps));
    eprintln!("fcbench: rounds cpu_ms_per_req: {}", per_round(&sat, Round::cpu_ms_per_req));
    let readings =
        |v: &[f64]| v.iter().map(|x| format!("{x:.0}")).collect::<Vec<String>>().join(" ");
    eprintln!("fcbench: host readings, one thread (us): {}", readings(host.readings().0));
    eprintln!("fcbench: host readings, all cores (us): {}", readings(host.readings().1));
    eprintln!(
        "fcbench: host ran at {slow:.4} x the nominal {} us; as measured, before the correction: {}",
        calib::NOMINAL_US,
        raw.iter().map(|(name, v)| format!("{name} {v:.4}")).collect::<Vec<String>>().join("  ")
    );
    let c = books.counters;
    eprintln!(
        "fcbench: engine: {} hits / {} misses since set-up, {} batches of mean {:.2}, peak queue {}",
        c.cache_hits - primed.cache_hits,
        c.cache_misses - primed.cache_misses,
        c.batches,
        c.batched_frames as f64 / c.batches.max(1) as f64,
        c.peak_queue_depth
    );
    if !books.balanced {
        eprintln!("fcbench: engine books do not balance: {c:?}");
    }

    let metrics: Vec<(&str, &str, f64)> =
        END_TO_END.iter().map(|m| (m.0, m.1, values[m.0])).collect();
    Ok(json::result_line(correct, tally.attempted, tally.failed, &metrics))
}

/// `[open_p50_ms, open_p99_ms (highest supported ≤ 99), open_lag_p90_ms]`.
fn client_open_metrics(open: &OpenPhase) -> [f64; 3] {
    let mut lat: Vec<f64> = open.samples.iter().filter(|s| s.ok).map(|s| s.latency_ms).collect();
    lat.sort_by(f64::total_cmp);
    let mut lag = open.lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    [
        stats::percentile_sorted(&lat, 50.0),
        stats::tail_percentile(&lat, 99.0).1,
        stats::tail_percentile(&lag, 90.0).1,
    ]
}

// ---------------------------------------------------------------------------
// --trace 1: the per-layer metrics
// ---------------------------------------------------------------------------

/// Length of each paired overhead round, and how many triples
/// (off, program recorder on, benchmark recorder on) are interleaved.
const PAIR_ROUND: Duration = Duration::from_millis(1000);
const PAIRS: usize = 3;
const TRACED_SOLO: Duration = Duration::from_millis(1500);
const TRACED_SAT: Duration = Duration::from_millis(3000);
const TRACED_OPEN: Duration = Duration::from_secs(2);

fn run_traced(args: &Args, nproc: usize) -> Result<String, String> {
    let spec = args.spec;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut tally = Tally::default();

    let mut h = Harness::new(spec, args.seed, set_up(spec, args.seed, nproc)?);
    tally.add(&h.round(false, WARMUP / 2)?.samples);
    // The per-layer times are reported as measured; `bench.host_slowdown`
    // says how slow the host was while they were.
    let mut host = calib::HostSpeed::default();

    // What looking costs: interleaved solo rounds with everything off, with
    // the program's flight recorder on, with this harness's spans on.
    let (mut off, mut obs_on, mut bench_on) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        host.read(nproc);
        off.push(h.round(false, PAIR_ROUND)?);
        sut::program_trace(true);
        obs_on.push(h.round(false, PAIR_ROUND)?);
        sut::program_trace(false);
        spans::set_enabled(true);
        bench_on.push(h.round(false, PAIR_ROUND)?);
        spans::set_enabled(false);
    }
    let _ = (sut::program_trace_drain(), spans::take());
    let p50_off = median_of(&off, Round::latency_p50_ms);
    let overhead =
        |on: &[Round]| 100.0 * (median_of(on, Round::latency_p50_ms) - p50_off) / p50_off;
    m.insert("obs.trace_overhead_pct", overhead(&obs_on));
    m.insert("bench.trace_overhead_pct", overhead(&bench_on));
    m.insert(
        "client.round_spread_pct",
        100.0
            * stats::iqr_over_median(&off.iter().map(Round::latency_p50_ms).collect::<Vec<f64>>()),
    );
    for r in off.iter().chain(&obs_on).chain(&bench_on) {
        tally.add(&r.samples);
    }

    // The traced rounds. The program's recorder is on for the solo round
    // only: every thread that records a span registers a ring the recorder
    // keeps for the life of the process, and a fused batch fans out over
    // freshly spawned threads — with it on, a saturated `burst_fused_4k`
    // round ran 6× slower and grew by a ring per batch (README.md,
    // "Findings"). This harness's own spans stay on throughout.
    host.read(nproc);
    spans::set_enabled(true);
    sut::program_trace(true);
    let solo = h.round(false, TRACED_SOLO)?;
    sut::program_trace(false);
    let program = sut::program_trace_drain();
    if program.dropped > 0 {
        eprintln!(
            "fcbench: program recorder dropped {} events: stage means undercount",
            program.dropped
        );
    }
    let before_sat = h.server.counters();
    let sat = h.round(true, TRACED_SAT)?;
    let after_sat = h.server.counters();
    let open = h.open(0.5 * sat.throughput_rps(), TRACED_OPEN);
    spans::set_enabled(false);
    tally.add(&solo.samples);
    tally.add(&sat.samples);

    // In-situ stage means (the program's own spans over the traced solo
    // round, where requests run one at a time so stages cannot overlap):
    // the stages plus `unattributed` sum to the client-observed mean.
    let requests = solo.completed().max(1) as f64;
    let mean_latency_us =
        1e3 * solo.samples.iter().filter(|s| s.ok).map(|s| s.latency_ms).sum::<f64>() / requests;
    let mut attributed = 0.0;
    for (stage, metric) in STAGES {
        let us = program.stage_us(stage) / requests;
        attributed += us;
        m.insert(metric, us);
    }
    m.insert("serve.engine.stage_unattributed_us", mean_latency_us - attributed);

    // The load generator's view of the saturated round.
    let lat = sat.latencies();
    let (p90, v90) = stats::tail_percentile(&lat, 90.0);
    let (p99, v99) = stats::tail_percentile(&lat, 99.0);
    eprintln!(
        "fcbench: saturated round: {} samples; client.latency_p90_ms reports p{p90}, client.latency_p99_ms reports p{p99}",
        lat.len()
    );
    m.insert("client.latency_p90_ms", v90);
    m.insert("client.latency_p99_ms", v99);
    m.insert("client.latency_max_ms", lat.last().copied().unwrap_or(0.0));
    let open_metrics = open.as_ref().map_or([0.0; 3], client_open_metrics);
    if let Some(open) = &open {
        tally.add(&open.samples);
    }
    m.insert("client.open_p50_ms", open_metrics[0]);
    m.insert("client.open_p99_ms", open_metrics[1]);
    m.insert("client.open_lag_p90_ms", open_metrics[2]);
    let class_p50 = |class: u8| {
        let mut v: Vec<f64> =
            sat.samples.iter().filter(|s| s.ok && s.class == class).map(|s| s.latency_ms).collect();
        v.sort_by(f64::total_cmp);
        stats::percentile_sorted(&v, 50.0)
    };
    m.insert("serve.engine.high_p50_ms", if spec.wire { 0.0 } else { class_p50(0) });
    m.insert("serve.engine.bulk_p50_ms", if spec.wire { 0.0 } else { class_p50(2) });

    // The engine's own counters over everything since set-up finished.
    let [streams, chunks, credits] = h.stream_counts();
    let primed = h.primed;
    let books = h.finish();
    let c = books.counters;
    let lookups = (c.cache_hits - primed.cache_hits) + (c.cache_misses - primed.cache_misses);
    m.insert(
        "serve.cache.hit_ratio",
        if lookups == 0 { 0.0 } else { (c.cache_hits - primed.cache_hits) as f64 / lookups as f64 },
    );
    // Batching is a property of load: read it over the saturated round.
    m.insert(
        "serve.engine.mean_batch",
        (after_sat.batched_frames - before_sat.batched_frames) as f64
            / (after_sat.batches - before_sat.batches).max(1) as f64,
    );
    m.insert("serve.engine.queue_wait_p99_us", c.queue_wait_p99_us as f64);
    m.insert("serve.engine.peak_queue_depth", c.peak_queue_depth as f64);
    m.insert("serve.engine.shed_total", c.shed as f64);
    m.insert("serve.engine.degraded_total", c.degraded as f64);
    let per_stream = |n: u64| if streams == 0 { 0.0 } else { n as f64 / streams as f64 };
    m.insert("serve.net.chunks_per_stream", per_stream(chunks));
    m.insert("serve.net.credits_per_stream", per_stream(credits));

    // The replay: each layer's public functions on this workload's inputs.
    host.read(nproc);
    spans::set_enabled(true);
    let replayed = replay::run(spec, args.seed, nproc)?;
    spans::set_enabled(false);
    host.read(nproc);
    m.insert("bench.host_slowdown", host.slowdown());
    m.insert(
        "serve.net.wire_overhead_ms",
        if spec.wire { p50_off - replayed["serve.engine.inproc_ms"] } else { 0.0 },
    );
    m.extend(replayed);

    // Spans go to disk only now, after the last measurement.
    let recorded = spans::take();
    write_traces(args, &recorded, &program.chrome)?;
    for (name, (count, total_us, self_us)) in spans::self_times(&recorded) {
        eprintln!("fcbench: span {name:<34} n={count:<6} total {total_us:>12.1} us  self {self_us:>12.1} us");
    }

    let correct = books.balanced && tally.failed == 0 && c.shed == 0 && c.degraded == 0;
    if !books.balanced {
        eprintln!("fcbench: engine books do not balance: {c:?}");
    }
    let metrics = PER_LAYER
        .iter()
        .map(|l| {
            m.get(l.0).map(|v| (l.0, l.1, *v)).ok_or(format!("metric {} was never computed", l.0))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(json::result_line(correct, tally.attempted, tally.failed, &metrics))
}

/// The program's span kinds that are stages of a request, with the metric
/// each one's per-request mean is reported under.
const STAGES: [(&str, &str); 9] = [
    ("queue_wait", "serve.engine.stage_queue_wait_us"),
    ("partition_build", "serve.engine.stage_partition_us"),
    ("block_sample", "serve.engine.stage_sample_us"),
    ("block_group", "serve.engine.stage_group_us"),
    ("stage_mlp", "serve.engine.stage_mlp_us"),
    ("aggregate", "serve.engine.stage_aggregate_us"),
    ("wire_encode", "serve.engine.stage_encode_us"),
    ("wire_write", "serve.engine.stage_write_us"),
    ("chunk_emit", "serve.engine.stage_chunk_emit_us"),
];

fn write_traces(args: &Args, recorded: &[spans::Span], program_chrome: &str) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = format!("{}-seed{}", args.spec.name, args.seed);
    for (suffix, body) in
        [("bench", spans::chrome_json(recorded)), ("program", program_chrome.to_owned())]
    {
        let path = args.out.join(format!("{stem}.{suffix}.trace.json"));
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("fcbench: wrote {}", path.display());
    }
    Ok(())
}
