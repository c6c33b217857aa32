//! The benchmark's own span recorder: spans are taken around calls *into*
//! the program (never inside it), kept in memory, and written as Chrome
//! trace-event JSON when the run ends. Off by default; the traced run turns
//! it on and `bench.trace_overhead_pct` reports what that costs.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. `parent` is the span that was open on the same thread
/// when this one started (0 = none); spans of one request share `req`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub req: u64,
    pub thread: u32,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

// Relaxed everywhere: the flag and the id counters publish no other data
// (the span log itself is behind the mutex).
static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static LOG: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u32> = const { Cell::new(0) };
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ON.store(on, Ordering::Relaxed);
}

fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// An open span; closing (dropping) it appends it to the log.
pub struct Guard(Option<(u32, u32, &'static str, u64, f64)>);

/// Opens a span on this thread (a no-op costing one relaxed load when the
/// recorder is off).
pub fn enter(name: &'static str, req: u64) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard(Some((id, parent, name, req, now_us())))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, req, start_us)) = self.0.take() else { return };
        let end_us = now_us();
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(at) = s.iter().rposition(|&open| open == id) {
                s.truncate(at);
            }
        });
        let thread = THREAD.with(|t| {
            if t.get() == 0 {
                t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        });
        // A poisoned log only means another thread panicked mid-push; the
        // vector is still a valid list of spans.
        let mut log = LOG.lock().unwrap_or_else(|e| e.into_inner());
        log.push(Span { id, parent, name, req, thread, start_us, end_us });
    }
}

/// Takes every span recorded so far, ordered by start time.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *LOG.lock().unwrap_or_else(|e| e.into_inner()));
    spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    spans
}

/// Per span name: `(count, total µs, self µs)`, where a span's self time is
/// its duration minus the part of it its *direct* children cover (children
/// are clipped to the parent's interval, so a child that outlives its parent
/// cannot drive self time negative).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_cover: BTreeMap<u32, f64> = BTreeMap::new();
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            let covered = (s.end_us.min(p.end_us) - s.start_us.max(p.start_us)).max(0.0);
            *child_cover.entry(p.id).or_default() += covered;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let covered = child_cover.get(&s.id).copied().unwrap_or(0.0);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_us();
        e.2 += (s.dur_us() - covered).max(0.0);
    }
    out
}

/// Renders spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto): one complete (`"ph":"X"`) event per span, `tid` = recording
/// thread, `args` carrying the span id, its parent and the request id.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"fcbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            s.name,
            s.thread,
            s.start_us,
            s.dur_us(),
            s.id,
            s.parent,
            s.req
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_us: f64, end_us: f64) -> Span {
        Span { id, parent, name, req: 1, thread: 1, start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100) ⊃ build [10,30) ⊃ split [12,20); run ⊃ group [40,90).
        let spans = [
            span(1, 0, "run", 0.0, 100.0),
            span(2, 1, "build", 10.0, 30.0),
            span(3, 2, "split", 12.0, 20.0),
            span(4, 1, "group", 40.0, 90.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["run"], (1, 100.0, 30.0)); // 100 − 20 − 50, not − 8 again
        assert_eq!(t["build"], (1, 20.0, 12.0));
        assert_eq!(t["split"], (1, 8.0, 8.0));
        assert_eq!(t["group"], (1, 50.0, 50.0));
        // Self times of a tree sum to the root's duration.
        let total_self: f64 = t.values().map(|v| v.2).sum();
        assert_eq!(total_self, 100.0);
    }

    #[test]
    fn overhanging_child_is_clipped_to_its_parent() {
        let spans = [span(1, 0, "outer", 0.0, 10.0), span(2, 1, "inner", 5.0, 25.0)];
        let t = self_times(&spans);
        assert_eq!(t["outer"].2, 5.0);
        assert_eq!(t["inner"].2, 20.0);
    }

    #[test]
    fn recorder_nests_by_thread_and_is_silent_when_off() {
        // The only test that flips the process-wide switch.
        {
            let _quiet = enter("off", 9);
        }
        set_enabled(true);
        {
            let _outer = enter("outer", 7);
            let _inner = enter("inner", 7);
        }
        set_enabled(false);
        let spans = take();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer recorded");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner recorded");
        assert!(spans.iter().all(|s| s.name != "off"));
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!((outer.req, inner.thread), (7, outer.thread));
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
        let doc = chrome_json(&spans);
        assert!(doc.contains("\"name\":\"inner\"") && doc.ends_with("]}\n"));
    }
}
