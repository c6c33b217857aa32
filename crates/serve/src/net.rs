//! The `std::net` TCP front-end and its matching client.
//!
//! Thread-per-connection over blocking sockets: the accept loop runs on one
//! thread (non-blocking listener polled at a few hundred Hz so shutdown
//! needs no self-connection tricks), each connection gets a handler thread,
//! and every request inside a connection is processed synchronously through
//! the shared [`Engine`]. Backpressure therefore composes: a flood of
//! connections lands in the same bounded admission queue as in-process
//! callers and sheds with the same counted reasons.
//!
//! Three connection-level protections bound what one client can do to the
//! rest: a **concurrent-connection limit** (`ServeConfig::max_connections`
//! — excess connects are answered `TOO_MANY_CONNECTIONS` and closed, so a
//! connection flood cannot exhaust handler threads), **round-robin
//! admission** across connections (a FIFO turnstile around engine
//! submission: when several connections have a request ready, queue slots
//! are granted in the order the requests became ready, so a greedy client
//! hammering one connection cannot barge ahead of patiently waiting ones),
//! and **per-connection socket timeouts** (`ServeConfig::idle_timeout_ms`
//! bounds every read and write, so a peer that stops feeding or draining
//! the socket is reaped instead of pinning a handler thread forever).
//!
//! During a zero-downtime drain ([`Engine::drain`]) every work opcode
//! (PROCESS_FRAME / INFER / STREAM) is answered [`status::GOAWAY`] — the
//! client reconnects elsewhere or retries after the maintenance window —
//! while HEALTH and METRICS stay answered inline so probes keep working.
//! [`ServeClient`] heals itself through all of this via [`RetryPolicy`]:
//! seeded-deterministic exponential backoff with decorrelated jitter,
//! reconnect-and-replay on GOAWAY or a dead transport, and never a retry
//! past the request's own deadline.

use crate::engine::{
    aggregation_wire, Engine, EngineHealth, FrameResponse, InferRequest, InferResponse, Priority,
    ServeError, ShedReason,
};
use crate::faults::{self, FaultLayer, FaultPoint};
use crate::protocol::{
    self, status, WireError, WireInferRequest, WireInferResponse, WireResponse, WireStreamChunk,
    WireStreamEnd, WireStreamOpen, AGG_DELAYED, AGG_EAGER, MAGIC, OP_HEALTH, OP_INFER, OP_METRICS,
    OP_PROCESS_FRAME, OP_STREAM, OP_STREAM_CANCEL, OP_STREAM_CREDIT, OP_TRACE_DUMP,
};
use fractalcloud_core::{LodCursor, PipelineConfig};
use fractalcloud_obs as obs;
use fractalcloud_pnn::{Aggregation, ModelConfig};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept loop polls the non-blocking listener.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Most concurrent courtesy-refusal threads (see [`refuse_connection`]);
/// beyond this a refused connection is hard-closed without a status byte,
/// so a refusal flood cannot itself exhaust threads.
const MAX_REFUSAL_THREADS: usize = 32;

/// Longest a refusal thread lingers draining a refused connection.
const REFUSAL_LINGER: Duration = Duration::from_millis(500);

/// FIFO turnstile granting engine-submission turns in ready order across
/// connections — the per-client fairness mechanism: each connection takes
/// a numbered ticket when its request is ready and submits when its number
/// comes up, so a connection that just finished a request joins the back
/// of the line behind every already-waiting peer (round-robin when all
/// connections are saturated) instead of barging on raw lock acquisition.
#[derive(Default)]
struct FairGate {
    state: Mutex<(u64, u64)>, // (next ticket, now serving)
    turn: Condvar,
}

impl FairGate {
    /// Runs `f` when this caller's turn comes up. `f` must be brief (an
    /// engine submission — validation plus a queue push, never the wait
    /// for the response).
    fn admit<T>(&self, f: impl FnOnce() -> T) -> T {
        let mut state = self.state.lock().expect("gate lock");
        let ticket = state.0;
        state.0 += 1;
        while state.1 != ticket {
            state = self.turn.wait(state).expect("gate wait");
        }
        let out = f();
        state.1 += 1;
        drop(state);
        self.turn.notify_all();
        out
    }
}

/// Per-connection reusable wire buffers: the request-payload read buffer
/// plus the response payload/message encode staging. A steady-state
/// connection cycles the same three allocations for every frame instead of
/// growing fresh ones per request.
#[derive(Default)]
struct WireScratch {
    /// Incoming request payload (sized to each request, capacity retained).
    request: Vec<u8>,
    /// Outgoing response payload staging.
    payload: Vec<u8>,
    /// Outgoing framed message staging (header + payload).
    message: Vec<u8>,
}

/// Decrements a thread-count gauge (active connections, or in-flight
/// refusals) when the owning thread exits, however it exits.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The TCP front-end. Binds, serves until [`TcpServer::shutdown`], and
/// shares one [`Engine`] across every connection.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting connections against `engine`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn bind(addr: impl ToSocketAddrs, engine: Arc<Engine>) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("fc-serve-accept".into())
            .spawn(move || accept_loop(&listener, &engine, &stop2))?;
        Ok(TcpServer { addr: local, stop, accept_thread: Some(accept_thread) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept loop. Open
    /// connections finish their in-flight request and then close on their
    /// next read (their handler threads are detached and exit on EOF or
    /// error; the engine's own [`Engine::shutdown`] drains in-flight work).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            h.join().expect("accept loop panicked");
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, engine: &Arc<Engine>, stop: &AtomicBool) {
    let active = Arc::new(AtomicUsize::new(0));
    let refusing = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new(FairGate::default());
    let max_connections = engine.config().max_connections;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Connection limit: the accept thread is the only
                // incrementer, so load-then-add cannot race past the bound.
                if active.load(Ordering::SeqCst) >= max_connections {
                    engine.metrics_registry().net_conn_refused.fetch_add(1, Ordering::Relaxed);
                    // Refused on a detached thread: the lingering close
                    // must not stall the accept loop. Refusal threads are
                    // themselves capped — past the cap the connection is
                    // simply dropped, so a refusal flood cannot exhaust
                    // threads either (the status byte is a courtesy, the
                    // bound is the contract).
                    if refusing.load(Ordering::SeqCst) < MAX_REFUSAL_THREADS {
                        refusing.fetch_add(1, Ordering::SeqCst);
                        let guard = ConnGuard(Arc::clone(&refusing));
                        let _ = std::thread::Builder::new().name("fc-serve-refuse".into()).spawn(
                            move || {
                                let _guard = guard;
                                refuse_connection(stream);
                            },
                        );
                    }
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                let guard = ConnGuard(Arc::clone(&active));
                let engine = Arc::clone(engine);
                let gate = Arc::clone(&gate);
                // Handler threads are detached: they exit on EOF/error, and
                // process shutdown tears them down with everything else.
                // A handler panic (it shouldn't — the body is total — but
                // the fault layer can inject one) is contained here: the
                // connection drops, the server keeps accepting.
                let _ = std::thread::Builder::new().name("fc-serve-conn".into()).spawn(move || {
                    let _guard = guard;
                    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handle_connection(stream, &engine, &gate);
                    }))
                    .is_err()
                    {
                        engine.metrics_registry().net_disconnects.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Answers a connection refused at the limit with a retryable
/// `TOO_MANY_CONNECTIONS` status, then lingers briefly before closing:
/// dropping the socket while the client's first request sits unread in the
/// receive queue would turn the close into a TCP RST that can destroy the
/// refusal before the client reads it. Draining (bounded bytes, bounded
/// time) until the client's EOF lets the FIN path deliver the status.
fn refuse_connection(mut stream: TcpStream) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    if write_error(
        &mut stream,
        status::TOO_MANY_CONNECTIONS,
        "connection limit reached, retry later",
    )
    .is_err()
    {
        return;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut scratch = [0u8; 4096];
    // Deadline-bounded courtesy: a trickling client cannot hold this
    // thread past the linger window.
    let deadline = std::time::Instant::now() + REFUSAL_LINGER;
    while std::time::Instant::now() < deadline {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Socket set-up of an accepted connection, before its first read.
fn configure_accepted(stream: &TcpStream, idle_ms: u64) -> io::Result<()> {
    // Handlers use blocking reads; the listener's non-blocking flag is
    // inherited on some platforms, so reset it explicitly.
    stream.set_nonblocking(false)?;
    // Replies end in small frames (a stream's `STREAM_END`, a status byte):
    // under Nagle each waits out the peer's delayed ACK (~40 ms).
    stream.set_nodelay(true)?;
    // Slow-peer defense: bound every socket read and write so a peer that
    // stops feeding (or draining) the connection cannot pin this handler
    // thread forever. An idle-but-healthy client is reaped too — it simply
    // reconnects on its next request.
    if idle_ms > 0 {
        let t = Some(Duration::from_millis(idle_ms));
        stream.set_read_timeout(t)?;
        stream.set_write_timeout(t)?;
    }
    Ok(())
}

/// Serves one connection: a loop of request → response frames. Returns (and
/// closes the stream) on EOF, protocol violation, or I/O error.
fn handle_connection(mut stream: TcpStream, engine: &Arc<Engine>, gate: &FairGate) {
    if configure_accepted(&stream, engine.config().idle_timeout_ms).is_err() {
        return;
    }
    let metrics = engine.metrics_registry();
    // Counts this connection as drained (when it eventually closes) once
    // it has been told to go away at least once.
    struct DrainTally<'a> {
        m: &'a crate::metrics::Metrics,
        sent: bool,
    }
    impl Drop for DrainTally<'_> {
        fn drop(&mut self) {
            if self.sent {
                self.m.connections_drained.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let mut drain_tally = DrainTally { m: metrics, sent: false };
    let faults: Option<Arc<FaultLayer>> = engine.fault_layer().clone();
    let mut scratch = WireScratch::default();
    loop {
        let mut header = [0u8; 9];
        match read_exact_or_eof(&mut stream, &mut header) {
            Ok(ReadOutcome::Eof) => return, // clean close between requests
            Ok(ReadOutcome::Full) => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                // Idle past the timeout between requests: reaped quietly,
                // not counted as a disconnect error.
                return;
            }
            Err(_) => {
                metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if faults::fire(&faults, FaultPoint::NetRead) {
            // Injected read failure: indistinguishable (to the client) from
            // the peer dying mid-request — the connection just drops.
            metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let (opcode, prio_nibble) = protocol::split_kind(header[4]);
        let payload_len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")) as usize;

        if magic != MAGIC
            || !matches!(
                opcode,
                OP_PROCESS_FRAME
                    | OP_HEALTH
                    | OP_INFER
                    | OP_METRICS
                    | OP_TRACE_DUMP
                    | OP_STREAM
                    | OP_STREAM_CREDIT
                    | OP_STREAM_CANCEL
            )
        {
            // The stream cannot be resynchronized after a framing error:
            // answer malformed and drop the connection.
            metrics.net_malformed.fetch_add(1, Ordering::Relaxed);
            let _ = write_error(&mut stream, status::MALFORMED, "bad magic or opcode");
            return;
        }
        if matches!(opcode, OP_HEALTH | OP_METRICS | OP_TRACE_DUMP) {
            // Answered inline — a health probe or metrics scrape must work
            // even when every worker is wedged, so these never touch the
            // queue.
            if payload_len != 0 {
                metrics.net_malformed.fetch_add(1, Ordering::Relaxed);
                if drain(&mut stream, payload_len).is_err()
                    || write_error(&mut stream, status::MALFORMED, "opcode takes no payload")
                        .is_err()
                {
                    metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                continue;
            }
            let payload = match opcode {
                OP_METRICS => engine.metrics_text().into_bytes(),
                OP_TRACE_DUMP => obs::chrome::trace_json(&obs::drain()).into_bytes(),
                _ => protocol::encode_health_payload(&engine.health()),
            };
            if faults::fire(&faults, FaultPoint::NetWrite)
                || stream.write_all(&protocol::encode_message(status::OK, &payload)).is_err()
            {
                metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                return;
            }
            continue;
        }
        if matches!(opcode, OP_STREAM_CREDIT | OP_STREAM_CANCEL) {
            // Stream-control frames are only meaningful inside an open
            // stream (consumed by [`serve_stream`]'s control reads). One
            // landing here is the tail of an inherent race — a client
            // replenishing credits just as the stream completed, or
            // cancelling a stream that ended naturally — so it is silently
            // ignored rather than rejected.
            if payload_len != 0 {
                metrics.net_malformed.fetch_add(1, Ordering::Relaxed);
                if drain(&mut stream, payload_len).is_err()
                    || write_error(&mut stream, status::MALFORMED, "opcode takes no payload")
                        .is_err()
                {
                    metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            continue;
        }
        // Old clients leave the high nibble zero → Normal; nibbles beyond
        // the known classes are a caller bug, not a framing error, so the
        // connection stays usable.
        let Some(priority) = Priority::from_wire(prio_nibble) else {
            metrics.net_malformed.fetch_add(1, Ordering::Relaxed);
            if drain(&mut stream, payload_len).is_err()
                || write_error(&mut stream, status::MALFORMED, "unknown priority class").is_err()
            {
                metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                return;
            }
            continue;
        };
        if payload_len > engine.config().max_payload_bytes() {
            // Refuse to buffer the payload: drain it through a small
            // scratch (bounded memory regardless of the declared size),
            // reply OVERSIZED, and keep the connection usable.
            metrics.shed_oversized.fetch_add(1, Ordering::Relaxed);
            if drain(&mut stream, payload_len).is_err()
                || write_error(
                    &mut stream,
                    status::OVERSIZED,
                    &format!("payload of {payload_len} bytes exceeds the server limit"),
                )
                .is_err()
            {
                metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                return;
            }
            continue;
        }

        // Reused per-connection read buffer: resized to each request,
        // capacity retained across the connection's lifetime.
        scratch.request.clear();
        scratch.request.resize(payload_len, 0);
        if stream.read_exact(&mut scratch.request).is_err() {
            // Disconnect (or stall) mid-request.
            metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
            return;
        }

        // Zero-downtime drain: while the engine is soft-draining, work
        // opcodes are answered GOAWAY (retryable — the client reconnects
        // elsewhere or retries after the maintenance window) instead of
        // queued. Health and metrics probes above stay answered inline so
        // orchestrators can watch the drain progress.
        if engine.is_draining() {
            metrics.goaway_sent.fetch_add(1, Ordering::Relaxed);
            drain_tally.sent = true;
            if write_error(&mut stream, status::GOAWAY, "server draining, reconnect later").is_err()
            {
                metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                return;
            }
            continue;
        }

        if opcode == OP_STREAM {
            match protocol::decode_stream_request_payload(&scratch.request) {
                Err(WireError(what)) => {
                    metrics.net_malformed.fetch_add(1, Ordering::Relaxed);
                    if write_error(&mut stream, status::MALFORMED, what).is_err() {
                        metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                Ok((cloud, config, deadline_ms, open)) => {
                    let deadline =
                        (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
                    match serve_stream(
                        &mut stream,
                        engine,
                        gate,
                        &faults,
                        cloud,
                        config,
                        priority,
                        deadline,
                        &open,
                        &mut scratch,
                    ) {
                        StreamExit::Continue => {}
                        StreamExit::CloseQuiet => return,
                        StreamExit::CloseError => {
                            metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            }
            continue;
        }

        let reply = if opcode == OP_INFER {
            match protocol::decode_infer_request_payload(&scratch.request) {
                Err(WireError(what)) => {
                    metrics.net_malformed.fetch_add(1, Ordering::Relaxed);
                    let r = write_error(&mut stream, status::MALFORMED, what);
                    if r.is_err() {
                        metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    // Framing was intact — the connection may continue.
                    continue;
                }
                Ok((cloud, wire_req, deadline_ms)) => {
                    // Resolve the notation against the server-side zoo; an
                    // unknown notation is a caller bug, not a framing error.
                    let Some(model) =
                        ModelConfig::table1().into_iter().find(|m| m.notation == wire_req.notation)
                    else {
                        let r = write_error(
                            &mut stream,
                            status::INVALID,
                            &format!("unknown model notation {:?}", wire_req.notation),
                        );
                        if r.is_err() {
                            metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        continue;
                    };
                    // The decoder already rejected bytes past AGG_DELAYED,
                    // so the only remaining value is the server default.
                    let aggregation = match wire_req.aggregation {
                        AGG_EAGER => Some(Aggregation::Eager),
                        AGG_DELAYED => Some(Aggregation::Delayed),
                        _ => None,
                    };
                    let req = InferRequest {
                        model,
                        seed: wire_req.seed,
                        threshold: wire_req.threshold as usize,
                        aggregation,
                        priority,
                        deadline: (deadline_ms > 0)
                            .then(|| Duration::from_millis(u64::from(deadline_ms))),
                    };
                    let (trace_req, outcome) =
                        match gate.admit(|| engine.submit_infer(Arc::new(cloud), req)) {
                            Ok(ticket) => (ticket.request_id(), ticket.wait()),
                            Err(e) => (0, Err(e)),
                        };
                    if faults::fire(&faults, FaultPoint::NetWrite) {
                        metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    let _trace = obs::scoped_context(trace_req, priority.index() as u8);
                    match outcome {
                        Ok(resp) => write_infer_ok(&mut stream, &resp, &mut scratch),
                        Err(e) => write_error(&mut stream, error_status(&e), &e.to_string()),
                    }
                }
            }
        } else {
            match protocol::decode_request_payload(&scratch.request) {
                Err(WireError(what)) => {
                    metrics.net_malformed.fetch_add(1, Ordering::Relaxed);
                    let r = write_error(&mut stream, status::MALFORMED, what);
                    if r.is_err() {
                        metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    // Framing was intact — the connection may continue.
                    continue;
                }
                Ok((cloud, config, deadline_ms, budget)) => {
                    let deadline =
                        (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
                    // Round-robin admission: the submission (queue push) takes
                    // its fairness turn; the wait for the response happens
                    // outside the gate so slow frames don't block other
                    // connections' admissions. A non-zero wire budget runs
                    // the truncated (prefix-identical) frame.
                    let (trace_req, outcome) = match gate.admit(|| {
                        engine.submit_shared_budget(
                            Arc::new(cloud),
                            config,
                            budget as usize,
                            priority,
                            deadline,
                        )
                    }) {
                        Ok(ticket) => (ticket.request_id(), ticket.wait()),
                        Err(e) => (0, Err(e)),
                    };
                    if faults::fire(&faults, FaultPoint::NetWrite) {
                        // Injected write failure: the response is computed but
                        // lost on the wire; the client sees the connection die.
                        metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    let _trace = obs::scoped_context(trace_req, priority.index() as u8);
                    match outcome {
                        Ok(resp) => write_ok(&mut stream, &resp, &mut scratch),
                        Err(e) => write_error(&mut stream, error_status(&e), &e.to_string()),
                    }
                }
            }
        };
        if reply.is_err() {
            metrics.net_disconnects.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
}

/// Reads and discards `n` bytes through a fixed-size scratch buffer.
fn drain(stream: &mut TcpStream, mut n: usize) -> io::Result<()> {
    let mut scratch = [0u8; 8192];
    while n > 0 {
        let take = n.min(scratch.len());
        stream.read_exact(&mut scratch[..take])?;
        n -= take;
    }
    Ok(())
}

/// Result of an initial header read: clean EOF or a full buffer.
enum ReadOutcome {
    Eof,
    Full,
}

/// Reads exactly `buf.len()` bytes, distinguishing "EOF before any byte"
/// (clean connection close) from "EOF mid-buffer" (error).
fn read_exact_or_eof(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::Eof),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

/// How [`serve_stream`] left the connection.
enum StreamExit {
    /// The stream ended (completed or cancelled); the connection may serve
    /// further requests.
    Continue,
    /// The peer went away cleanly mid-stream (EOF on a control read) — a
    /// viewer closing its tab, not an error.
    CloseQuiet,
    /// Transport or framing failure; the caller counts a disconnect.
    CloseError,
}

/// One stream-control read's verdict.
#[derive(Debug, PartialEq)]
enum ControlRead {
    /// No complete control frame is queued.
    None,
    /// `OP_STREAM_CREDIT`: one more refinement chunk is welcome.
    Credit,
    /// `OP_STREAM_CANCEL`: stop refining now.
    Cancel,
    /// Clean EOF — the peer is gone.
    Eof,
    /// Framing violation or transport error.
    Bad,
}

/// Drives one progressive-LOD stream. Admission is per stream, not per
/// chunk: the first paint is the stream's one engine job (validated,
/// queued, prioritised, deadlined and fault-drawn like any request; a cold
/// ordering is computed on a worker and cached) and hands back the frame's
/// full-depth output. Every credit-gated refinement after it is cut from
/// that output on this thread — a [`LodCursor`] step over the new ranks,
/// encoded straight from the borrowed rows — so a viewer's deep tail holds
/// no worker or queue slot and can never displace another viewer's first
/// paint. Refinements therefore do not count in `submitted/completed`, the
/// latency / queue-wait histograms or the overload controller, cannot be
/// shed at the queue bound and draw no `worker`/`block` faults. A cancel
/// still lands at chunk granularity (`stream_chunks_sent` stops advancing:
/// the server stopped *working*, not just talking), a terminal
/// [`Engine::shutdown`] answers `SHUTTING_DOWN` at the next chunk boundary,
/// and a soft [`Engine::drain`] lets the open stream finish.
#[allow(clippy::too_many_arguments)]
fn serve_stream(
    stream: &mut TcpStream,
    engine: &Arc<Engine>,
    gate: &FairGate,
    faults: &Option<Arc<FaultLayer>>,
    cloud: fractalcloud_pointcloud::PointCloud,
    config: PipelineConfig,
    priority: Priority,
    deadline: Option<Duration>,
    open: &WireStreamOpen,
    scratch: &mut WireScratch,
) -> StreamExit {
    let metrics = engine.metrics_registry();
    metrics.streams_opened.fetch_add(1, Ordering::Relaxed);
    // Every exit path balances the open/closed pair through this guard —
    // `opened − closed` staying above zero with no client connected is the
    // hung-stream signal CI greps for. STREAM_END is written only after
    // the books close: a client that read it never finds its stream open.
    struct CloseGuard<'a>(&'a crate::metrics::Metrics);
    impl Drop for CloseGuard<'_> {
        fn drop(&mut self) {
            self.0.streams_closed.fetch_add(1, Ordering::Relaxed);
        }
    }
    let close = CloseGuard(metrics);

    let cfg = engine.config();
    let pick = |wire: u32, default: usize| if wire == 0 { default } else { wire as usize };
    let first_paint = pick(open.first_paint, cfg.stream_first_paint);
    let chunk_size = pick(open.chunk, cfg.stream_chunk);
    let mut credits = pick(open.credits, cfg.stream_credits);
    let idle = (cfg.idle_timeout_ms > 0).then(|| Duration::from_millis(cfg.idle_timeout_ms));

    // The stream's wall-clock deadline (explicit, or the server default)
    // also bounds credit waits: a viewer that stops sending credits used
    // to pin this handler in an unbounded blocking read, leaking the
    // stream (`opened − closed` never rebalanced). Now the wait resolves
    // DEADLINE_EXCEEDED at the deadline and the guard above closes the
    // stream. With no deadline configured anywhere the wait stays
    // unbounded by contract.
    let wait_deadline = deadline
        .or((cfg.deadline_ms > 0).then(|| Duration::from_millis(cfg.deadline_ms)))
        .map(|d| std::time::Instant::now() + d);

    // First paint: admitted at the requester's priority — it is the
    // time-to-first-point the viewer sees — and never credit-gated.
    let (trace_req, outcome) = match gate.admit(|| {
        engine.submit_stream_chunk(Arc::new(cloud), config, 0, first_paint, priority, deadline)
    }) {
        Ok(ticket) => (ticket.request_id(), ticket.wait()),
        Err(e) => (0, Err(e)),
    };
    if faults::fire(faults, FaultPoint::NetWrite) {
        return StreamExit::CloseError;
    }
    // Every span this thread records for the stream — the refinements'
    // `ChunkEmit`s included — carries the first-paint job's request id.
    let _trace = obs::scoped_context(trace_req, priority.index() as u8);
    let first = match outcome {
        Ok(first) => first,
        Err(e) => return refuse_stream(stream, error_status(&e), &e.to_string()),
    };
    // The first paint goes out through the same borrowed cut as every
    // refinement: the cursor must count its ranks to stand there anyway.
    let mut cursor = LodCursor::new(&first.output);
    cursor.advance(first.slice.hi);
    let mut seq = 1u32;
    if write_chunk(stream, seq, first.cache_hit, &cursor, scratch).is_err() {
        return StreamExit::CloseError;
    }

    while cursor.hi() < first.slice.total {
        // Consume queued control frames before each refinement — waiting
        // (deadline-bounded) only when out of credits, so a cancel takes
        // effect even while credits remain.
        loop {
            let verdict = if credits == 0 {
                wait_for_credit(stream, faults, wait_deadline, idle)
            } else {
                poll_control(stream)
            };
            match verdict {
                // Deadline expired while credit-starved: the stream
                // resolves instead of hanging the handler forever.
                ControlRead::None if credits == 0 => {
                    return refuse_stream(
                        stream,
                        status::DEADLINE_EXCEEDED,
                        "stream deadline expired waiting for credits",
                    );
                }
                ControlRead::None => break,
                ControlRead::Credit => credits += 1,
                ControlRead::Cancel => {
                    metrics.streams_cancelled.fetch_add(1, Ordering::Relaxed);
                    drop(close);
                    return finish_stream(stream, faults, seq, cursor.hi(), true, scratch);
                }
                ControlRead::Eof => return StreamExit::CloseQuiet,
                ControlRead::Bad => return StreamExit::CloseError,
            }
        }
        credits -= 1;
        // A stream outlives a soft drain, not a terminal shutdown: that
        // refuses the next chunk boundary.
        if engine.is_shutting_down() {
            let reason = ServeError::Shed(ShedReason::ShuttingDown);
            return refuse_stream(stream, error_status(&reason), &reason.to_string());
        }
        let hi = cursor.hi() + chunk_size;
        let emit_span = obs::span(obs::SpanKind::ChunkEmit, hi.min(u32::MAX as usize) as u32);
        cursor.advance(hi);
        emit_span.done();
        metrics.stream_chunks_sent.fetch_add(1, Ordering::Relaxed);
        seq += 1;
        if faults::fire(faults, FaultPoint::NetWrite)
            || write_chunk(stream, seq, first.cache_hit, &cursor, scratch).is_err()
        {
            return StreamExit::CloseError;
        }
    }
    drop(close);
    finish_stream(stream, faults, seq, cursor.hi(), false, scratch)
}

/// Ends a stream with an error frame; the connection survives if the frame
/// could be written.
fn refuse_stream(stream: &mut TcpStream, code: u8, message: &str) -> StreamExit {
    match write_error(stream, code, message) {
        Ok(()) => StreamExit::Continue,
        Err(_) => StreamExit::CloseError,
    }
}

/// Encodes the cut `cursor` stands on as a [`status::CHUNK`] frame through
/// the connection's scratch buffers and writes it.
fn write_chunk(
    stream: &mut TcpStream,
    seq: u32,
    cache_hit: bool,
    cursor: &LodCursor<'_>,
    scratch: &mut WireScratch,
) -> io::Result<()> {
    let encode_span = obs::span(obs::SpanKind::WireEncode, 0);
    scratch.payload.clear();
    protocol::encode_stream_cut_into(seq, cache_hit, cursor, &mut scratch.payload);
    scratch.message.clear();
    protocol::encode_message_into(status::CHUNK, &scratch.payload, &mut scratch.message);
    encode_span.done();
    let _write_span = obs::span(obs::SpanKind::WireWrite, 0);
    stream.write_all(&scratch.message)
}

/// Terminates a stream with its [`status::STREAM_END`] summary frame.
fn finish_stream(
    stream: &mut TcpStream,
    faults: &Option<Arc<FaultLayer>>,
    chunks: u32,
    delivered: usize,
    cancelled: bool,
    scratch: &mut WireScratch,
) -> StreamExit {
    let end = WireStreamEnd { chunks, delivered: delivered as u32, cancelled };
    scratch.payload.clear();
    protocol::encode_stream_end_into(&end, &mut scratch.payload);
    scratch.message.clear();
    protocol::encode_message_into(status::STREAM_END, &scratch.payload, &mut scratch.message);
    if faults::fire(faults, FaultPoint::NetWrite) || stream.write_all(&scratch.message).is_err() {
        StreamExit::CloseError
    } else {
        StreamExit::Continue
    }
}

/// How often a credit-starved wait wakes to check the stream's deadline.
const CREDIT_POLL: Duration = Duration::from_millis(2);

/// Waits (deadline-bounded) for a stream-control frame while
/// credit-starved, parked in the kernel: a blocking header *peek* under a
/// [`CREDIT_POLL`] read timeout, so the wake-up is the frame's arrival and
/// the deadline is still checked every poll interval. The socket's read
/// timeout is put back to `idle` (what [`configure_accepted`] set) on every
/// exit. Returns [`ControlRead::None`] only when the deadline expires
/// first. The [`FaultPoint::CreditStall`] hook fires once per wait: an
/// injected `delay` models a viewer that stops sending credits for a while;
/// an injected `err` drops the control read as if the socket died.
fn wait_for_credit(
    stream: &mut TcpStream,
    faults: &Option<Arc<FaultLayer>>,
    deadline: Option<std::time::Instant>,
    idle: Option<Duration>,
) -> ControlRead {
    if faults::fire(faults, FaultPoint::CreditStall)
        || stream.set_read_timeout(Some(CREDIT_POLL)).is_err()
    {
        return ControlRead::Bad;
    }
    let verdict = loop {
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            break ControlRead::None;
        }
        let peeked = stream.peek(&mut [0u8; 9]);
        // Part of a header is queued: the peek no longer parks, so the
        // wait for the rest of it is the one timed back-off left here.
        let partial = matches!(peeked, Ok(n) if (1..9).contains(&n));
        match take_control(stream, peeked) {
            ControlRead::None if partial => std::thread::sleep(CREDIT_POLL),
            ControlRead::None => {}
            verdict => break verdict,
        }
    };
    if stream.set_read_timeout(idle).is_err() {
        return ControlRead::Bad;
    }
    verdict
}

/// Consumes one queued stream-control frame, if a complete one is there,
/// without ever blocking.
fn poll_control(stream: &mut TcpStream) -> ControlRead {
    if stream.set_nonblocking(true).is_err() {
        return ControlRead::Bad;
    }
    let peeked = stream.peek(&mut [0u8; 9]);
    if stream.set_nonblocking(false).is_err() {
        return ControlRead::Bad;
    }
    take_control(stream, peeked)
}

/// Classifies a header peek and consumes the stream-control frame
/// (header-only by contract) it found. Only a *complete* 9-byte header is
/// consumed, so a partially arrived frame stays queued intact for the next
/// peek.
fn take_control(stream: &mut TcpStream, peeked: io::Result<usize>) -> ControlRead {
    let mut header = [0u8; 9];
    use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    match peeked.map_err(|e| e.kind()) {
        Ok(0) => return ControlRead::Eof,
        Ok(n) if n < header.len() => return ControlRead::None,
        Ok(_) => {}
        Err(WouldBlock | TimedOut | Interrupted) => return ControlRead::None,
        Err(_) => return ControlRead::Bad,
    }
    match read_exact_or_eof(stream, &mut header) {
        Ok(ReadOutcome::Eof) => return ControlRead::Eof,
        Ok(ReadOutcome::Full) => {}
        Err(_) => return ControlRead::Bad,
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let (opcode, _nibble) = protocol::split_kind(header[4]);
    let payload_len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes"));
    if magic != MAGIC || payload_len != 0 {
        return ControlRead::Bad;
    }
    match opcode {
        OP_STREAM_CREDIT => ControlRead::Credit,
        OP_STREAM_CANCEL => ControlRead::Cancel,
        // Any other frame mid-stream is a pipelining violation the framing
        // cannot recover from.
        _ => ControlRead::Bad,
    }
}

fn error_status(e: &ServeError) -> u8 {
    match e {
        ServeError::Shed(ShedReason::QueueFull) => status::QUEUE_FULL,
        ServeError::Shed(ShedReason::Oversized { .. }) => status::OVERSIZED,
        ServeError::Shed(ShedReason::ShuttingDown) => status::SHUTTING_DOWN,
        ServeError::Shed(ShedReason::DeadlineExceeded) => status::DEADLINE_EXCEEDED,
        ServeError::Invalid(_) => status::INVALID,
        ServeError::Internal => status::INTERNAL_ERROR,
    }
}

fn write_ok(
    stream: &mut TcpStream,
    resp: &FrameResponse,
    scratch: &mut WireScratch,
) -> io::Result<()> {
    let encode_span = obs::span(obs::SpanKind::WireEncode, 0);
    scratch.message.clear();
    protocol::encode_frame_response_message_into(resp, &mut scratch.message);
    encode_span.done();
    let _write_span = obs::span(obs::SpanKind::WireWrite, 0);
    stream.write_all(&scratch.message)
}

fn write_infer_ok(
    stream: &mut TcpStream,
    resp: &InferResponse,
    scratch: &mut WireScratch,
) -> io::Result<()> {
    let encode_span = obs::span(obs::SpanKind::WireEncode, 0);
    let wire = WireInferResponse {
        classes: resp.output.classes as u32,
        cache_hit: resp.cache_hit,
        batch_size: resp.batch_size as u32,
        aggregation: aggregation_wire(resp.aggregation),
        macs_moved: resp.output.counters.macs_moved,
        macs_saved: resp.output.counters.macs_saved,
        gather_bytes: resp.output.counters.gather_bytes,
        row_index: resp.output.row_index.iter().map(|&i| i as u32).collect(),
        // Logits cross as raw LE bit patterns, so the wire response is
        // bit-identical to the in-process one.
        logits: resp.output.logits.clone(),
    };
    scratch.payload.clear();
    protocol::encode_infer_response_payload_into(&wire, &mut scratch.payload);
    scratch.message.clear();
    protocol::encode_message_into(status::OK, &scratch.payload, &mut scratch.message);
    encode_span.done();
    let _write_span = obs::span(obs::SpanKind::WireWrite, 0);
    stream.write_all(&scratch.message)
}

fn write_error(stream: &mut TcpStream, code: u8, message: &str) -> io::Result<()> {
    stream.write_all(&protocol::encode_message(code, message.as_bytes()))
}

/// Errors a [`ServeClient`] call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered with a non-OK status.
    Server {
        /// The [`status`] code.
        code: u8,
        /// The server's human-readable reason.
        message: String,
    },
    /// The server's bytes did not parse.
    Protocol(WireError),
}

impl ClientError {
    /// True when the server shed the request (retryable by contract;
    /// includes [`status::DEADLINE_EXCEEDED`] — retry with a fresh
    /// deadline — and [`status::GOAWAY`] — reconnect first, the server is
    /// draining). [`status::INTERNAL_ERROR`] is deliberately *not* shed:
    /// the same input may fail the same way.
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: status::QUEUE_FULL
                    | status::OVERSIZED
                    | status::SHUTTING_DOWN
                    | status::TOO_MANY_CONNECTIONS
                    | status::DEADLINE_EXCEEDED
                    | status::GOAWAY,
                ..
            }
        )
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server status {code}: {message}")
            }
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One frame of an open progressive-LOD stream, as the client sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A coarse-to-fine refinement slice ([`status::CHUNK`]).
    Chunk(WireStreamChunk),
    /// The terminating summary ([`status::STREAM_END`]).
    End(WireStreamEnd),
}

/// Seeded, deterministic retry schedule for a self-healing client:
/// exponential backoff with decorrelated jitter, capped, and never past
/// the request's deadline. Two policies built with the same seed produce
/// the same delay sequence, so chaos runs replay identically.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    max_retries: u32,
    base: Duration,
    cap: Duration,
    state: u64,
}

impl RetryPolicy {
    /// A policy allowing `max_retries` retries, jittered from `seed`
    /// (base delay 10 ms, cap 1 s).
    pub fn new(max_retries: u32, seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            state: seed,
        }
    }

    /// Reads `FRACTALCLOUD_CLIENT_RETRIES` for the retry budget (default
    /// 3 when unset or unparseable), jittered from `seed`.
    pub fn from_env(seed: u64) -> RetryPolicy {
        let max = std::env::var("FRACTALCLOUD_CLIENT_RETRIES")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(3);
        RetryPolicy::new(max, seed)
    }

    /// Returns `self` with the given base (first-retry) delay.
    pub fn base_delay(mut self, base: Duration) -> RetryPolicy {
        self.base = base;
        self
    }

    /// Returns `self` with the given backoff cap.
    pub fn max_delay(mut self, cap: Duration) -> RetryPolicy {
        self.cap = cap;
        self
    }

    /// Retries this policy allows per request.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// The delay before retry number `attempt` (0-based), or `None` when
    /// the retry budget is exhausted or the delay would land past
    /// `deadline` — a retry that cannot complete in time is not worth
    /// sleeping for.
    pub fn next_delay(
        &mut self,
        attempt: u32,
        deadline: Option<std::time::Instant>,
    ) -> Option<Duration> {
        if attempt >= self.max_retries {
            return None;
        }
        let exp = self.base.saturating_mul(1 << attempt.min(16)).min(self.cap);
        // Decorrelated jitter over [exp/2, exp): enough spread to break up
        // synchronized client stampedes, deterministic per seed.
        let span = (exp.as_micros() / 2).max(1) as u64;
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let delay = Duration::from_micros(span + crate::faults::splitmix64(self.state) % span);
        if let Some(d) = deadline {
            if std::time::Instant::now() + delay >= d {
                return None;
            }
        }
        Some(delay)
    }
}

/// A blocking client for the TCP front-end.
pub struct ServeClient {
    stream: TcpStream,
    peer: SocketAddr,
    read_timeout: Option<Duration>,
    retries: u64,
}

impl ServeClient {
    /// Connects to a running [`TcpServer`].
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        Ok(ServeClient { stream, peer, read_timeout: None, retries: 0 })
    }

    /// Bounds every subsequent read; a stalled server then surfaces as
    /// [`ClientError::Io`] (`WouldBlock`/`TimedOut`) instead of hanging the
    /// caller forever. `None` restores unbounded reads. Chaos tests use
    /// this to turn "hung" into an assertable outcome. The setting
    /// survives [`RetryPolicy`]-driven reconnects.
    ///
    /// # Errors
    ///
    /// Propagates socket configuration failures.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        self.stream.set_read_timeout(timeout)
    }

    /// Total retries this client has performed across every `*_retry`
    /// call (reconnect-and-replay included). In-process harnesses fold
    /// this into the server's
    /// [`Metrics::record_retries`](crate::metrics::Metrics::record_retries)
    /// before rendering the exposition.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Drops the current connection and dials the same peer again,
    /// restoring the recorded read timeout.
    fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.peer)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.read_timeout)?;
        self.stream = stream;
        Ok(())
    }

    /// Requests the server's [`EngineHealth`] snapshot ([`OP_HEALTH`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`]/[`ClientError::Protocol`] for transport and
    /// framing failures; [`ClientError::Server`] for non-OK statuses.
    pub fn health(&mut self) -> Result<EngineHealth, ClientError> {
        self.stream.write_all(&protocol::encode_message(OP_HEALTH, &[]))?;
        let (code, payload) = self.read_reply()?;
        if code != status::OK {
            return Err(ClientError::Server {
                code,
                message: String::from_utf8_lossy(&payload).into_owned(),
            });
        }
        protocol::decode_health_payload(&payload).map_err(ClientError::Protocol)
    }

    /// Requests the server's Prometheus-style metrics exposition
    /// ([`OP_METRICS`]) — the text [`Engine::metrics_text`] renders.
    ///
    /// # Errors
    ///
    /// As [`ServeClient::health`]; additionally [`ClientError::Protocol`]
    /// when the body is not UTF-8.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        self.text_request(OP_METRICS)
    }

    /// Drains the server's flight recorder ([`OP_TRACE_DUMP`]) as Chrome
    /// trace-event JSON (load into `chrome://tracing` or Perfetto).
    /// Draining consumes: a second dump returns only newer events.
    ///
    /// # Errors
    ///
    /// As [`ServeClient::metrics_text`].
    pub fn trace_dump(&mut self) -> Result<String, ClientError> {
        self.text_request(OP_TRACE_DUMP)
    }

    fn text_request(&mut self, opcode: u8) -> Result<String, ClientError> {
        self.stream.write_all(&protocol::encode_message(opcode, &[]))?;
        let (code, payload) = self.read_reply()?;
        if code != status::OK {
            return Err(ClientError::Server {
                code,
                message: String::from_utf8_lossy(&payload).into_owned(),
            });
        }
        String::from_utf8(payload)
            .map_err(|_| ClientError::Protocol(WireError("response body is not UTF-8")))
    }

    /// Sends one [`Priority::Normal`] frame and blocks for its result.
    ///
    /// # Errors
    ///
    /// As [`ServeClient::process_with_priority`].
    pub fn process(
        &mut self,
        cloud: &fractalcloud_pointcloud::PointCloud,
        config: &fractalcloud_core::PipelineConfig,
    ) -> Result<WireResponse, ClientError> {
        self.process_with_priority(cloud, config, Priority::Normal)
    }

    /// Sends one frame at the given [`Priority`] (encoded in the kind
    /// byte's high nibble) and blocks for its result.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for shed/rejected requests,
    /// [`ClientError::Io`]/[`ClientError::Protocol`] for transport and
    /// framing failures.
    pub fn process_with_priority(
        &mut self,
        cloud: &fractalcloud_pointcloud::PointCloud,
        config: &fractalcloud_core::PipelineConfig,
        priority: Priority,
    ) -> Result<WireResponse, ClientError> {
        self.process_with_options(cloud, config, priority, 0)
    }

    /// [`ServeClient::process_with_priority`] with a per-request deadline
    /// in milliseconds (0 = use the server's default). A non-zero deadline
    /// rides the optional payload trailer; an expired request comes back as
    /// the retryable [`status::DEADLINE_EXCEEDED`].
    ///
    /// # Errors
    ///
    /// As [`ServeClient::process_with_priority`].
    pub fn process_with_options(
        &mut self,
        cloud: &fractalcloud_pointcloud::PointCloud,
        config: &fractalcloud_core::PipelineConfig,
        priority: Priority,
        deadline_ms: u32,
    ) -> Result<WireResponse, ClientError> {
        let payload = protocol::encode_request_payload_deadline(cloud, config, deadline_ms);
        self.stream
            .write_all(&protocol::encode_message(protocol::request_kind(priority), &payload))?;
        let (code, payload) = self.read_reply()?;
        if code != status::OK {
            return Err(ClientError::Server {
                code,
                message: String::from_utf8_lossy(&payload).into_owned(),
            });
        }
        protocol::decode_response_payload(&payload).map_err(ClientError::Protocol)
    }

    /// [`ServeClient::process_with_options`] wrapped in the self-healing
    /// retry loop: shed statuses (including [`status::GOAWAY`]) and
    /// transport failures are retried on `policy`'s backoff schedule —
    /// reconnecting and replaying the request when the connection died or
    /// the server said go away — and never past the request's own
    /// deadline. Non-retryable rejections ([`status::INVALID`],
    /// [`status::MALFORMED`], [`status::INTERNAL_ERROR`]) surface
    /// immediately.
    ///
    /// # Errors
    ///
    /// The final attempt's error, as [`ServeClient::process_with_options`].
    pub fn process_retry(
        &mut self,
        cloud: &fractalcloud_pointcloud::PointCloud,
        config: &fractalcloud_core::PipelineConfig,
        priority: Priority,
        deadline_ms: u32,
        policy: &mut RetryPolicy,
    ) -> Result<WireResponse, ClientError> {
        let deadline = (deadline_ms > 0)
            .then(|| std::time::Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
        let mut attempt = 0u32;
        loop {
            let err = match self.process_with_options(cloud, config, priority, deadline_ms) {
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            let (retryable, reconnect) = match &err {
                ClientError::Server { code, .. } => (err.is_shed(), *code == status::GOAWAY),
                // A dead or desynced transport (EOF mid-reply, reset,
                // timeout) is always replayed on a fresh connection.
                ClientError::Io(_) => (true, true),
                ClientError::Protocol(_) => (false, false),
            };
            let Some(delay) = retryable.then(|| policy.next_delay(attempt, deadline)).flatten()
            else {
                return Err(err);
            };
            attempt += 1;
            self.retries += 1;
            std::thread::sleep(delay);
            if reconnect {
                if let Err(e) = self.reconnect() {
                    return Err(ClientError::Io(e));
                }
            }
        }
    }

    /// [`ServeClient::process_with_options`] with a sample budget: a
    /// non-zero `budget` asks the server to answer with only the first
    /// `budget` samples of the frame's coarse-to-fine quality ordering —
    /// byte-identical to the prefix of the full response, at
    /// proportionally lower cost (0 = full depth).
    ///
    /// # Errors
    ///
    /// As [`ServeClient::process_with_priority`].
    pub fn process_budget(
        &mut self,
        cloud: &fractalcloud_pointcloud::PointCloud,
        config: &fractalcloud_core::PipelineConfig,
        priority: Priority,
        deadline_ms: u32,
        budget: u32,
    ) -> Result<WireResponse, ClientError> {
        let payload = protocol::encode_request_payload_budget(cloud, config, deadline_ms, budget);
        self.stream
            .write_all(&protocol::encode_message(protocol::request_kind(priority), &payload))?;
        let (code, payload) = self.read_reply()?;
        if code != status::OK {
            return Err(ClientError::Server {
                code,
                message: String::from_utf8_lossy(&payload).into_owned(),
            });
        }
        protocol::decode_response_payload(&payload).map_err(ClientError::Protocol)
    }

    /// Opens a progressive-LOD stream ([`OP_STREAM`]) for one frame. The
    /// server answers with a first-paint [`StreamEvent::Chunk`] at this
    /// request's priority, then refinement chunks (cut from the held
    /// ordering on the connection, no further admission) as credits allow
    /// — read them with
    /// [`ServeClient::stream_next`], replenish with
    /// [`ServeClient::stream_credit`], stop early with
    /// [`ServeClient::cancel`]. Zero fields in `open` select the server's
    /// configured defaults.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] for transport failures.
    pub fn stream_open(
        &mut self,
        cloud: &fractalcloud_pointcloud::PointCloud,
        config: &fractalcloud_core::PipelineConfig,
        priority: Priority,
        deadline_ms: u32,
        open: &WireStreamOpen,
    ) -> Result<(), ClientError> {
        let payload = protocol::encode_stream_request_payload(cloud, config, deadline_ms, open);
        self.stream.write_all(&protocol::encode_message(
            protocol::stream_request_kind(priority),
            &payload,
        ))?;
        Ok(())
    }

    /// Reads the next frame of the open stream.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the server aborts the stream with an
    /// error status; [`ClientError::Io`]/[`ClientError::Protocol`] for
    /// transport and framing failures.
    pub fn stream_next(&mut self) -> Result<StreamEvent, ClientError> {
        let (code, payload) = self.read_reply()?;
        match code {
            status::CHUNK => protocol::decode_stream_chunk_payload(&payload)
                .map(StreamEvent::Chunk)
                .map_err(ClientError::Protocol),
            status::STREAM_END => protocol::decode_stream_end_payload(&payload)
                .map(StreamEvent::End)
                .map_err(ClientError::Protocol),
            code => Err(ClientError::Server {
                code,
                message: String::from_utf8_lossy(&payload).into_owned(),
            }),
        }
    }

    /// Grants the server one more refinement chunk ([`OP_STREAM_CREDIT`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] for transport failures.
    pub fn stream_credit(&mut self) -> Result<(), ClientError> {
        self.stream.write_all(&protocol::encode_message(OP_STREAM_CREDIT, &[]))?;
        Ok(())
    }

    /// Asks the server to stop refining the open stream
    /// ([`OP_STREAM_CANCEL`]). The server still terminates the stream with
    /// a [`StreamEvent::End`] — keep reading [`ServeClient::stream_next`]
    /// (skipping chunks already in flight) until it arrives. Cancelling a
    /// stream that just completed naturally is harmless: the stray frame is
    /// ignored server-side.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] for transport failures.
    pub fn cancel(&mut self) -> Result<(), ClientError> {
        self.stream.write_all(&protocol::encode_message(OP_STREAM_CANCEL, &[]))?;
        Ok(())
    }

    /// Drives one frame's stream to completion: opens it, folds every
    /// chunk into a [`protocol::StreamAccumulator`] (replenishing one
    /// credit per consumed refinement so the window never starves), and
    /// returns the accumulated response — byte-identical to a direct
    /// request with `budget = depth reached` — plus the stream summary.
    ///
    /// # Errors
    ///
    /// As [`ServeClient::stream_next`]; additionally
    /// [`ClientError::Protocol`] when chunks arrive non-contiguous or
    /// geometry-inconsistent.
    pub fn stream_frame(
        &mut self,
        cloud: &fractalcloud_pointcloud::PointCloud,
        config: &fractalcloud_core::PipelineConfig,
        priority: Priority,
        deadline_ms: u32,
        open: &WireStreamOpen,
    ) -> Result<(WireResponse, WireStreamEnd), ClientError> {
        self.stream_open(cloud, config, priority, deadline_ms, open)?;
        let mut acc = protocol::StreamAccumulator::new();
        loop {
            match self.stream_next()? {
                StreamEvent::Chunk(chunk) => {
                    acc.push(&chunk).map_err(ClientError::Protocol)?;
                    if acc.depth() < acc.total() {
                        self.stream_credit()?;
                    }
                }
                StreamEvent::End(end) => return Ok((acc.response(), end)),
            }
        }
    }

    /// Sends one [`Priority::Normal`] inference request ([`OP_INFER`]) and
    /// blocks for its logits.
    ///
    /// # Errors
    ///
    /// As [`ServeClient::infer_with_options`].
    pub fn infer(
        &mut self,
        cloud: &fractalcloud_pointcloud::PointCloud,
        req: &WireInferRequest,
    ) -> Result<WireInferResponse, ClientError> {
        self.infer_with_options(cloud, req, Priority::Normal, 0)
    }

    /// Sends one inference request at the given [`Priority`] with an
    /// optional deadline in milliseconds (0 = server default). The reply's
    /// logits are bit-identical to what [`Engine::submit_infer`] returns
    /// in-process for the same cloud, model, seed, and schedule.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for shed/rejected requests (an unknown model
    /// notation comes back as [`status::INVALID`]),
    /// [`ClientError::Io`]/[`ClientError::Protocol`] for transport and
    /// framing failures.
    pub fn infer_with_options(
        &mut self,
        cloud: &fractalcloud_pointcloud::PointCloud,
        req: &WireInferRequest,
        priority: Priority,
        deadline_ms: u32,
    ) -> Result<WireInferResponse, ClientError> {
        let payload = protocol::encode_infer_request_payload(cloud, req, deadline_ms);
        self.stream.write_all(&protocol::encode_message(
            protocol::infer_request_kind(priority),
            &payload,
        ))?;
        let (code, payload) = self.read_reply()?;
        if code != status::OK {
            return Err(ClientError::Server {
                code,
                message: String::from_utf8_lossy(&payload).into_owned(),
            });
        }
        protocol::decode_infer_response_payload(&payload).map_err(ClientError::Protocol)
    }

    /// Reads one response frame: `(status, payload)`.
    fn read_reply(&mut self) -> Result<(u8, Vec<u8>), ClientError> {
        let mut header = [0u8; 9];
        self.stream.read_exact(&mut header)?;
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(ClientError::Protocol(WireError("bad response magic")));
        }
        let code = header[4];
        let payload_len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")) as usize;
        if payload_len > protocol::MAX_RESPONSE_PAYLOAD {
            // A declared length this large means a corrupt/hostile stream;
            // refuse before allocating (the connection is desynced anyway).
            return Err(ClientError::Protocol(WireError("response payload exceeds sanity limit")));
        }
        // Read straight into fresh capacity: no zero-fill pass per reply.
        let mut payload = Vec::with_capacity(payload_len);
        (&mut self.stream).take(payload_len as u64).read_to_end(&mut payload)?;
        if payload.len() < payload_len {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
        }
        Ok((code, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_get_nodelay_and_both_idle_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "the platform default is Nagle on");

        configure_accepted(&accepted, 1500).unwrap();
        assert!(accepted.nodelay().unwrap());
        let idle = Some(Duration::from_millis(1500));
        assert_eq!(accepted.read_timeout().unwrap(), idle);
        assert_eq!(accepted.write_timeout().unwrap(), idle);

        // Zero disables the reaper: no timeout is armed.
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        configure_accepted(&accepted, 0).unwrap();
        assert!(accepted.nodelay().unwrap());
        assert_eq!(accepted.read_timeout().unwrap(), None);
        assert_eq!(accepted.write_timeout().unwrap(), None);
    }

    const IDLE: Option<Duration> = Some(Duration::from_millis(1500));

    /// A connected pair: the accepted side configured as a handler's, and
    /// the peer that plays the viewer.
    fn loopback_pair(idle_ms: u64) -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        configure_accepted(&accepted, idle_ms).unwrap();
        (accepted, peer)
    }

    fn assert_idle_timeouts(stream: &TcpStream) {
        assert_eq!(stream.read_timeout().unwrap(), IDLE, "read timeout not restored");
        assert_eq!(stream.write_timeout().unwrap(), IDLE, "write timeout changed");
    }

    #[test]
    fn credit_wait_resolves_on_what_the_peer_sends() {
        // The frame is written by a second thread released just before the
        // wait starts, so the wait usually parks first — but whichever side
        // wins, the verdict is the frame's (no wall-clock assertion).
        for (frame, want) in [
            (Some(OP_STREAM_CREDIT), ControlRead::Credit),
            (Some(OP_STREAM_CANCEL), ControlRead::Cancel),
            (None, ControlRead::Eof), // a clean close
        ] {
            let (mut accepted, mut peer) = loopback_pair(1500);
            let (go, released) = std::sync::mpsc::channel::<()>();
            let writer = std::thread::spawn(move || {
                released.recv().unwrap();
                if let Some(op) = frame {
                    peer.write_all(&protocol::encode_message(op, &[])).unwrap();
                    // Hold the socket open until the verdict is in.
                    let _ = released.recv();
                }
            });
            go.send(()).unwrap();
            assert_eq!(wait_for_credit(&mut accepted, &None, None, IDLE), want);
            assert_idle_timeouts(&accepted);
            drop(go);
            writer.join().unwrap();
        }
    }

    #[test]
    fn credit_wait_leaves_a_partial_header_queued() {
        let (mut accepted, mut peer) = loopback_pair(1500);
        let credit = protocol::encode_message(OP_STREAM_CREDIT, &[]);
        peer.write_all(&credit[..5]).unwrap();
        // Five of nine bytes resolve nothing: the wait runs out its
        // deadline and the bytes are still there, unconsumed.
        let soon = std::time::Instant::now() + Duration::from_millis(20);
        assert_eq!(wait_for_credit(&mut accepted, &None, Some(soon), IDLE), ControlRead::None);
        assert_idle_timeouts(&accepted);
        assert_eq!(poll_control(&mut accepted), ControlRead::None);
        assert_eq!(accepted.peek(&mut [0u8; 9]).unwrap(), 5);
        // The remaining four complete the frame.
        peer.write_all(&credit[5..]).unwrap();
        assert_eq!(wait_for_credit(&mut accepted, &None, None, IDLE), ControlRead::Credit);
        assert_idle_timeouts(&accepted);
    }

    #[test]
    fn credit_wait_gives_up_at_an_expired_deadline_and_on_an_injected_stall() {
        let (mut accepted, mut peer) = loopback_pair(1500);
        // Nothing will ever arrive: only the deadline check can return.
        let past = std::time::Instant::now();
        assert_eq!(wait_for_credit(&mut accepted, &None, Some(past), IDLE), ControlRead::None);
        assert_idle_timeouts(&accepted);
        // An injected `err@credit_stall` drops the read before it starts.
        let stall = FaultLayer::new(faults::FaultPlan::OFF.with_fault(
            faults::FaultKind::Err,
            FaultPoint::CreditStall,
            1.0,
        ));
        assert_eq!(wait_for_credit(&mut accepted, &stall, None, IDLE), ControlRead::Bad);
        assert_idle_timeouts(&accepted);
        // A frame that is not stream control is a framing violation.
        peer.write_all(&protocol::encode_message(OP_HEALTH, &[])).unwrap();
        assert_eq!(wait_for_credit(&mut accepted, &None, None, IDLE), ControlRead::Bad);
        assert_idle_timeouts(&accepted);

        // With the reaper off (`idle_timeout_ms = 0`) "restored" means none.
        let (mut accepted, _peer) = loopback_pair(0);
        assert_eq!(wait_for_credit(&mut accepted, &None, Some(past), None), ControlRead::None);
        assert_eq!(accepted.read_timeout().unwrap(), None);
        assert_eq!(accepted.write_timeout().unwrap(), None);
    }

    #[test]
    fn retry_backoff_is_deterministic_per_seed() {
        let mut a = RetryPolicy::new(8, 42);
        let mut b = RetryPolicy::new(8, 42);
        let seq_a: Vec<_> = (0..8).map(|i| a.next_delay(i, None).unwrap()).collect();
        let seq_b: Vec<_> = (0..8).map(|i| b.next_delay(i, None).unwrap()).collect();
        assert_eq!(seq_a, seq_b);
        // Delays start in the base window, grow exponentially, and stay
        // within the cap …
        assert!(seq_a[0] >= Duration::from_millis(5) && seq_a[0] < Duration::from_millis(10));
        assert!(*seq_a.last().unwrap() <= Duration::from_secs(1));
        assert!(seq_a[4] > seq_a[0]);
        // … and a different seed jitters differently.
        let mut c = RetryPolicy::new(8, 43);
        let seq_c: Vec<_> = (0..8).map(|i| c.next_delay(i, None).unwrap()).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn retry_budget_and_deadline_both_stop_the_loop() {
        let mut p = RetryPolicy::new(2, 7);
        assert!(p.next_delay(0, None).is_some());
        assert!(p.next_delay(1, None).is_some());
        assert!(p.next_delay(2, None).is_none()); // budget exhausted
        assert!(p.next_delay(100, None).is_none());
        // A deadline closer than the backoff delay stops retrying even
        // with budget left — sleeping past it cannot help.
        let mut p = RetryPolicy::new(10, 7).base_delay(Duration::from_millis(50));
        let near = std::time::Instant::now() + Duration::from_millis(1);
        assert!(p.next_delay(0, Some(near)).is_none());
        // A generous deadline leaves the schedule untouched.
        let far = std::time::Instant::now() + Duration::from_secs(60);
        assert!(p.next_delay(0, Some(far)).is_some());
    }

    #[test]
    fn goaway_is_retryable_by_contract() {
        let goaway = ClientError::Server { code: status::GOAWAY, message: "draining".to_owned() };
        assert!(goaway.is_shed());
        let internal =
            ClientError::Server { code: status::INTERNAL_ERROR, message: "boom".to_owned() };
        assert!(!internal.is_shed());
    }
}
