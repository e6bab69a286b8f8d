//! Decomposition as a service: a long-lived HTTP/NDJSON endpoint over
//! one warm, shared [`Engine`], with durable, resumable jobs.
//!
//! The server loads a trained framework once, compiles the frozen
//! inference heads once ([`Engine::new`]), and then serves any number of
//! requests from a fixed worker pool — every request shares the engine's
//! cross-request routing memo and solution caches, so repeated layouts
//! skip inference and tail solves entirely while staying bit-identical
//! to a cold run (the engine's parity contract).
//!
//! Deliberately dependency-free: `std::net::TcpListener`, hand-rolled
//! *bounded* HTTP/1.1 parsing ([`http`]) for the routes it owns, and
//! newline-delimited JSON for streaming. The protocol:
//!
//! - `GET /healthz` — liveness (`ok`, or `draining` once shutdown has
//!   been requested) + queue depth, uptime, and engine cache counters.
//! - `GET /stats` — cache, job, and journal counters.
//! - `POST /decompose` — either a JSON body
//!   `{"circuit":"C432","seed":7,"time_limit_ms":500,"job_id":"a1"}`
//!   (everything but `circuit` optional) or a **raw layout upload** in
//!   the workspace layout format, with `seed`/`time_limit_ms`/`job_id`
//!   as query parameters. Responds `200` with
//!   `Content-Type: application/x-ndjson` and streams a `job` event
//!   naming the job id, one `routed` event, one `unit` event per
//!   ILP/EC-tail unit, then a final `done` line whose `summary` field is
//!   the [`RunSummary`] object also emitted by `mpld adaptive --json`.
//!   Deadlines return best-so-far incumbents, never errors.
//! - `GET /jobs/<id>` — reattach to an in-flight or finished job: its
//!   NDJSON event log replays from the start, then follows live.
//!
//! # Durable jobs
//!
//! Every decomposition is a **job** with a stable id — client-supplied
//! or derived from the request content — that is idempotent at three
//! scopes. In-process, the [`jobs::JobRegistry`] maps a re-submitted id
//! to the already-running (or finished) job and replays its event log
//! instead of re-solving. On disk, when [`ServerConfig::journal_dir`] is
//! set, each job's settled ILP/EC-tail units stream into a job journal
//! (`<dir>/<job id>.jsonl`, an `mpld-store` file in the same format
//! `mpld adaptive --checkpoint` writes), flushed in batches and once
//! more before the `done` event; a server killed mid-job and restarted
//! over the same directory resumes the re-submitted job from the journal
//! — each restored record is audited against the present unit graph,
//! torn final lines are tolerated, a kill loses at most one unflushed
//! batch, and a header mismatch (different model, layout, k, alpha, or
//! unit count) moves the journal aside as `.stale` and restarts from
//! scratch rather than reusing foreign records. The resumed run's
//! digests are bit-identical to an uninterrupted run. Uploads are capped
//! ([`ServerConfig::upload`]) and parse failures answer with typed 400s
//! carrying the offending line number. Every response body, error or
//! not, and every event line is JSON written by the [`mpld::json`] codec.
//!
//! Admission control is a bounded queue: when every worker is busy and
//! the backlog is full, new connections are rejected immediately with
//! `429 Too Many Requests` instead of queueing without bound. Shutdown
//! (SIGTERM/SIGINT, or the shutdown flag in-process) drains: queued
//! requests finish while `/healthz` reports `draining` and new work is
//! refused with `503`, then workers join and the process exits cleanly.
//! A panic inside a request (including injected chaos panics) is caught
//! at the connection boundary: the connection drops, the job is marked
//! failed and forgotten (so a retry re-runs it), and the worker lives on.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod http;
pub mod jobs;

pub use client::{submit, ClientConfig, ClientError, SubmitBody, SubmitOutcome, SubmitRequest};
pub use http::HttpLimits;
pub use jobs::{derive_job_id, valid_job_id};

use http::HttpError;
use jobs::{Claim, Job, JobRegistry};
use mpld::json::{self, Value};
use mpld::{
    prepare, BudgetPolicy, Engine, Journal, PreparedLayout, Progress, Recovery, RunSummary, Session,
};
use mpld_graph::{fnv64, MpldError};
use mpld_layout::{circuit_by_name, read_layout_limited, ReadLimits};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of one [`serve`] loop.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Request worker threads (each drives its own [`Session`]).
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker; beyond this
    /// the acceptor answers `429` immediately.
    pub queue_depth: usize,
    /// Per-connection socket read timeout (a stalled client releases
    /// its worker after this long).
    pub read_timeout: Duration,
    /// Directory for per-job JSONL journals; `None` disables journaling
    /// (jobs are still idempotent in-process, but not across restarts).
    pub journal_dir: Option<PathBuf>,
    /// Request parsing caps (request line, headers, body size).
    pub http: HttpLimits,
    /// Layout upload parsing caps (line length, rect/feature counts).
    pub upload: ReadLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 16,
            read_timeout: Duration::from_secs(10),
            journal_dir: None,
            http: HttpLimits::default(),
            upload: ReadLimits::UNTRUSTED,
        }
    }
}

/// Default seed for requests that do not pin one: the one every entry
/// point shares, so served digests line up with CLI runs.
pub use mpld::DEFAULT_SEED;

/// Process-wide drain flag set by the SIGTERM/SIGINT handlers installed
/// by [`install_signal_handlers`].
static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    // Provided by libc, which std always links on this platform.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
}

/// Longest the acceptor waits for a connection before it checks the
/// shutdown flag again. A signal interrupts the wait at once (`poll(2)`
/// returns `EINTR` and is never restarted), so this bounds only an
/// in-process shutdown, or a signal handled on another thread.
const ACCEPT_WAIT: Duration = Duration::from_millis(50);

/// How often the drain loop checks whether the workers have finished;
/// connections arriving meanwhile wake it at once.
const DRAIN_WAIT: Duration = Duration::from_millis(5);

/// Blocks until `listener` has a connection to accept, `timeout` passes,
/// or a signal arrives — whichever comes first. Errors (including
/// `EINTR`) return early; the caller's `accept` sorts them out.
fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::os::fd::AsRawFd;
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fd` is one valid `pollfd` that outlives the call, and the
    // listener's descriptor stays open for its duration.
    unsafe {
        poll(&mut fd, 1, ms);
    }
}

/// Installs SIGTERM/SIGINT handlers that flip the returned flag; pass it
/// to [`serve`] as the shutdown flag for signal-driven graceful drain.
pub fn install_signal_handlers() -> &'static AtomicBool {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: on_signal is async-signal-safe (a single atomic store) and
    // stays alive for the program's lifetime.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
    &SIGNALED
}

/// Monotonic serving counters surfaced by `/stats` and `/healthz`.
#[derive(Debug, Default)]
struct Counters {
    jobs_started: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    resumed_units: AtomicU64,
    journal_records: AtomicU64,
    journal_restarts: AtomicU64,
    rejected_busy: AtomicU64,
    bad_requests: AtomicU64,
    request_panics: AtomicU64,
}

/// Everything one serving loop shares between acceptor and workers.
struct ServerState {
    engine: Arc<Engine>,
    /// Per-circuit prepared-layout cache: preparation is deterministic,
    /// so one shared copy serves every request for the same circuit.
    preps: Mutex<HashMap<String, Arc<PreparedLayout>>>,
    /// Prepared uploads keyed by a content hash; crudely bounded.
    upload_preps: Mutex<HashMap<u64, Arc<PreparedLayout>>>,
    registry: JobRegistry,
    journal_dir: Option<PathBuf>,
    upload_limits: ReadLimits,
    http_limits: HttpLimits,
    started: Instant,
    queued: AtomicU64,
    active: AtomicU64,
    draining: AtomicBool,
    counters: Counters,
}

/// Uploads kept prepared in memory at once (beyond this the cache is
/// simply cleared; preparation is deterministic so a re-prepare is only
/// a cost, never a behavior change).
const MAX_UPLOAD_PREPS: usize = 32;

impl ServerState {
    fn prep_circuit(&self, circuit: &str) -> Option<Arc<PreparedLayout>> {
        if let Some(p) = self.preps.lock().ok().and_then(|m| m.get(circuit).cloned()) {
            return Some(p);
        }
        let generator = circuit_by_name(circuit)?;
        let entry = Arc::new(prepare(
            &generator.generate(),
            &self.engine.framework().params,
        ));
        if let Ok(mut m) = self.preps.lock() {
            // First writer wins; a racing prepare produced the same value.
            return Some(m.entry(circuit.to_string()).or_insert(entry).clone());
        }
        Some(entry)
    }

    /// Parses and prepares an uploaded layout under the configured caps.
    /// The body is already whole in memory, so it is swept whole.
    fn prep_upload(&self, body: &[u8]) -> Result<Arc<PreparedLayout>, MpldError> {
        let key = fnv64(body);
        if let Some(p) = self
            .upload_preps
            .lock()
            .ok()
            .and_then(|m| m.get(&key).cloned())
        {
            return Ok(p);
        }
        let layout = read_layout_limited(body, &self.upload_limits)?;
        let entry = Arc::new(prepare(&layout, &self.engine.framework().params));
        if let Ok(mut m) = self.upload_preps.lock() {
            if m.len() >= MAX_UPLOAD_PREPS {
                m.clear();
            }
            return Ok(m.entry(key).or_insert(entry).clone());
        }
        Ok(entry)
    }

    fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn journal_path(&self, job_id: &str) -> Option<PathBuf> {
        self.journal_dir
            .as_ref()
            .map(|d| d.join(format!("{job_id}.jsonl")))
    }
}

/// Runs the accept/drain loop until `shutdown` turns true, serving
/// requests from `workers` threads that share `engine`. Returns once
/// every queued request has finished and all workers have joined.
///
/// The listener is switched to non-blocking, and the acceptor waits for
/// connections with `poll(2)`, waking at least every 50 ms to check the
/// shutdown flag, so a connection is accepted as soon as it arrives.
/// Worker sockets themselves stay blocking (with `read_timeout`). During
/// the drain the acceptor keeps answering: `/healthz` reports
/// `draining`, everything else gets `503`.
///
/// # Errors
///
/// Only listener-level failures (e.g. `set_nonblocking`) surface as
/// errors; per-connection failures are logged to stderr and dropped.
pub fn serve(
    engine: Arc<Engine>,
    listener: TcpListener,
    cfg: &ServerConfig,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    if let Some(dir) = &cfg.journal_dir {
        std::fs::create_dir_all(dir)?;
    }
    let (tx, rx) = sync_channel::<TcpStream>(cfg.queue_depth);
    let rx = Arc::new(Mutex::new(rx));
    let state = Arc::new(ServerState {
        engine,
        preps: Mutex::new(HashMap::new()),
        upload_preps: Mutex::new(HashMap::new()),
        registry: JobRegistry::default(),
        journal_dir: cfg.journal_dir.clone(),
        upload_limits: cfg.upload,
        http_limits: cfg.http,
        started: Instant::now(),
        queued: AtomicU64::new(0),
        active: AtomicU64::new(0),
        draining: AtomicBool::new(false),
        counters: Counters::default(),
    });

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            let read_timeout = cfg.read_timeout;
            handles.push(scope.spawn(move || worker_loop(&rx, &state, read_timeout)));
        }

        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => match tx.try_send(stream) {
                    Ok(()) => {
                        state.queued.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(TrySendError::Full(stream)) => {
                        state.counters.rejected_busy.fetch_add(1, Ordering::Relaxed);
                        respond_busy(stream);
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                },
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    wait_for_connection(&listener, ACCEPT_WAIT);
                }
                Err(e) => eprintln!("mpld-server: accept failed: {e}"),
            }
        }

        // Graceful drain: close the queue so workers finish what is
        // queued and return, while the acceptor keeps answering probes
        // (`draining` health, `503` for new work) until they have.
        state.draining.store(true, Ordering::SeqCst);
        drop(tx);
        while handles.iter().any(|h| !h.is_finished()) {
            match listener.accept() {
                Ok((stream, _)) => respond_draining(stream, &state),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    wait_for_connection(&listener, DRAIN_WAIT);
                }
                Err(_) => std::thread::sleep(DRAIN_WAIT),
            }
        }
        for h in handles {
            let _ = h.join();
        }
    });
    Ok(())
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    state: &Arc<ServerState>,
    read_timeout: Duration,
) {
    loop {
        // Hold the receiver lock only for the dequeue, not the request.
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(stream) = stream else { return }; // queue closed: drain done
        state.queued.fetch_sub(1, Ordering::Relaxed);
        state.active.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_read_timeout(Some(read_timeout));
        let _ = stream.set_write_timeout(Some(read_timeout));
        // Panic isolation: an injected (or real) panic inside a request
        // drops that connection but never takes the worker down with it.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(stream, state)
        }));
        state.active.fetch_sub(1, Ordering::Relaxed);
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("mpld-server: request failed: {e}"),
            Err(_) => {
                state
                    .counters
                    .request_panics
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!("mpld-server: request panicked; connection dropped, worker continues");
            }
        }
    }
}

/// The one admission-control response, written straight from the
/// acceptor thread so a saturated pool still answers instantly.
fn respond_busy(stream: TcpStream) {
    let _ = respond_json(
        stream,
        "429 Too Many Requests",
        &error_json("queue is full", []),
    );
}

/// Inline responder used by the acceptor while draining: health probes
/// still get real answers, new work gets `503`.
fn respond_draining(stream: TcpStream, state: &ServerState) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut reader = BufReader::new(stream);
    let Ok(req) = http::read_request(&mut reader, &state.http_limits) else {
        return;
    };
    let stream = reader.into_inner();
    let _ = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => respond_json(stream, "200 OK", &health_json(state)),
        ("GET", "/stats") => respond_json(stream, "200 OK", &stats_json(state)),
        _ => respond_json(
            stream,
            "503 Service Unavailable",
            &error_json("draining", []),
        ),
    };
}

fn handle_connection(stream: TcpStream, state: &Arc<ServerState>) -> std::io::Result<()> {
    #[cfg(feature = "failpoints")]
    mpld_graph::failpoints::tick("server.worker.request");

    let mut reader = BufReader::new(stream);
    let req = match http::read_request(&mut reader, &state.http_limits) {
        Ok(r) => r,
        Err(HttpError::Io(e)) => return Err(e),
        Err(e) => {
            state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            let status = e.status().unwrap_or("400 Bad Request");
            return respond_json(reader.into_inner(), status, &e.body());
        }
    };
    let stream = reader.into_inner();

    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => respond_json(stream, "200 OK", &health_json(state)),
        ("GET", "/stats") => respond_json(stream, "200 OK", &stats_json(state)),
        ("GET", path) if path.starts_with("/jobs/") => {
            let id = &path["/jobs/".len()..];
            match state.registry.get(id) {
                Some(job) => stream_job(stream, &job),
                None => respond_json(
                    stream,
                    "404 Not Found",
                    &error_json("unknown job", [("id", id.into())]),
                ),
            }
        }
        ("POST", "/decompose") => handle_decompose(stream, state, &req),
        _ => respond_json(stream, "404 Not Found", &error_json("unknown route", [])),
    }
}

fn respond_json(mut stream: TcpStream, status: &str, body: &str) -> std::io::Result<()> {
    // One write: closing a socket whose client is still sending a
    // rejected request resets the connection, and a response written in
    // pieces could lose its tail to that reset.
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}\n",
        body.len() + 1
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// An error body: `{"error":<error>, <details>…}`.
pub(crate) fn error_json<'a>(
    error: &'a str,
    details: impl IntoIterator<Item = (&'a str, Value<'a>)>,
) -> String {
    Value::obj(std::iter::once(("error", error.into())).chain(details)).to_string()
}

/// An NDJSON event line: `{"event":<kind>, <fields>…}`.
fn event_line<'a>(kind: &'a str, fields: impl IntoIterator<Item = (&'a str, Value<'a>)>) -> String {
    Value::obj(std::iter::once(("event", kind.into())).chain(fields)).to_string()
}

/// A counter's current value.
fn counter(a: &AtomicU64) -> Value<'static> {
    a.load(Ordering::Relaxed).into()
}

fn health_json(state: &ServerState) -> String {
    let s = state.engine.stats();
    let status = if state.draining.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ok"
    };
    Value::obj([
        ("status", status.into()),
        ("uptime_ms", state.uptime_ms().into()),
        ("queue_depth", counter(&state.queued)),
        ("active_requests", counter(&state.active)),
        ("routing_entries", s.routing.entries.into()),
        ("routing_hits", s.routing.hits.into()),
        (
            "solution_entries",
            (s.solutions_ilp_first.entries + s.solutions_ec_first.entries).into(),
        ),
    ])
    .to_string()
}

fn stats_json(state: &ServerState) -> String {
    let s = state.engine.stats();
    let c = &state.counters;
    let map = |m: mpld::ShardedMapStats| {
        Value::obj([
            ("hits", m.hits.into()),
            ("misses", m.misses.into()),
            ("entries", m.entries.into()),
            ("evictions", m.evictions.into()),
            ("high_water", m.high_water.into()),
        ])
    };
    let store = s.store.map(|(load, w)| {
        Value::obj([
            ("loaded_solves", load.solves.into()),
            ("skipped_corrupt", load.skipped_corrupt.into()),
            ("skipped_audit", load.skipped_audit.into()),
            ("superseded", load.superseded.into()),
            ("orphaned", load.orphaned.into()),
            ("rekeyed", load.rekeyed.into()),
            ("torn_tail", load.torn_tail.into()),
            ("read_only", w.read_only.into()),
            ("lib_loaded", load.lib_complete.into()),
            ("load_ms", load.load_ms.into()),
            ("appended", w.appended.into()),
            ("dropped", w.dropped.into()),
            ("flushes", w.flushes.into()),
            ("io_errors", w.io_errors.into()),
            ("entries", w.entries.into()),
        ])
    });
    Value::obj([
        ("routing", map(s.routing)),
        ("solutions_ilp_first", map(s.solutions_ilp_first)),
        ("solutions_ec_first", map(s.solutions_ec_first)),
        ("uptime_ms", state.uptime_ms().into()),
        ("queue_depth", counter(&state.queued)),
        ("active_requests", counter(&state.active)),
        ("draining", state.draining.load(Ordering::SeqCst).into()),
        (
            "jobs",
            Value::obj([
                ("registered", state.registry.len().into()),
                ("started", counter(&c.jobs_started)),
                ("completed", counter(&c.jobs_completed)),
                ("failed", counter(&c.jobs_failed)),
                ("resumed_units", counter(&c.resumed_units)),
                ("journal_records", counter(&c.journal_records)),
                ("journal_restarts", counter(&c.journal_restarts)),
            ]),
        ),
        (
            "http",
            Value::obj([
                ("rejected_busy", counter(&c.rejected_busy)),
                ("bad_requests", counter(&c.bad_requests)),
                ("request_panics", counter(&c.request_panics)),
            ]),
        ),
        ("store", store.into()),
    ])
    .to_string()
}

/// Answers a typed 400 carrying the parse failure's line number (the
/// `MpldError::Parse` contract for untrusted uploads).
fn respond_parse_error(stream: TcpStream, e: &MpldError) -> std::io::Result<()> {
    let (line, reason) = match e {
        MpldError::Parse { line, reason } => (*line, reason.clone()),
        other => (0, other.to_string()),
    };
    respond_json(
        stream,
        "400 Bad Request",
        &error_json("parse", [("line", line.into()), ("reason", reason.into())]),
    )
}

fn handle_decompose(
    stream: TcpStream,
    state: &Arc<ServerState>,
    req: &http::Request,
) -> std::io::Result<()> {
    // Dispatch on the body's first non-whitespace byte: `{` is the JSON
    // circuit request, anything else is a raw layout upload.
    let first = req.body.iter().find(|b| !b.is_ascii_whitespace());
    let prep: Arc<PreparedLayout>;
    let seed: u64;
    let time_limit_ms: Option<u64>;
    let explicit_id: Option<String>;
    let kind: &str;
    match first {
        Some(b'{') => {
            // Only the body's top-level keys count.
            let text = String::from_utf8_lossy(&req.body);
            let Some(body) = json::parse(&text) else {
                return respond_json(
                    stream,
                    "400 Bad Request",
                    &error_json("malformed JSON body", []),
                );
            };
            let Some(circuit) = body.get("circuit").and_then(Value::as_str) else {
                return respond_json(
                    stream,
                    "400 Bad Request",
                    &error_json("missing \"circuit\"", []),
                );
            };
            let Some(p) = state.prep_circuit(circuit) else {
                return respond_json(
                    stream,
                    "404 Not Found",
                    &error_json("unknown circuit", [("circuit", circuit.into())]),
                );
            };
            prep = p;
            seed = body
                .get("seed")
                .and_then(Value::num)
                .unwrap_or(DEFAULT_SEED);
            time_limit_ms = body.get("time_limit_ms").and_then(Value::num);
            explicit_id = body
                .get("job_id")
                .and_then(Value::as_str)
                .map(str::to_string);
            kind = "circuit";
        }
        Some(_) => {
            match state.prep_upload(&req.body) {
                Ok(p) => prep = p,
                Err(e) => return respond_parse_error(stream, &e),
            }
            seed = req
                .query_param("seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(DEFAULT_SEED);
            time_limit_ms = req
                .query_param("time_limit_ms")
                .and_then(|v| v.parse().ok());
            explicit_id = req.query_param("job_id").map(str::to_string);
            kind = "upload";
        }
        None => {
            return respond_json(stream, "400 Bad Request", &error_json("empty body", []));
        }
    }

    let job_id = match explicit_id {
        Some(id) if !valid_job_id(&id) => {
            return respond_json(
                stream,
                "400 Bad Request",
                &error_json(
                    "invalid job_id: want 1-64 chars of [A-Za-z0-9._-], not starting with a dot",
                    [("job_id", id.as_str().into())],
                ),
            );
        }
        Some(id) => id,
        None => derive_job_id(kind, &req.body, seed, time_limit_ms),
    };

    match state.registry.claim(&job_id) {
        Claim::Attach(job) => stream_job(stream, &job),
        Claim::Run(job) => run_job(stream, state, &job_id, &job, &prep, seed, time_limit_ms),
    }
}

/// Marks a job failed-and-forgotten if its runner unwinds (panic or
/// early return) before completing it, so attached followers terminate
/// and a retry re-runs instead of replaying a half-finished log.
struct JobGuard<'a> {
    state: &'a ServerState,
    id: &'a str,
    job: &'a Arc<Job>,
    completed: bool,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.job
                .append(&event_line("error", [("message", "job aborted".into())]));
            self.job.finish(true);
            self.state.registry.remove(self.id);
            self.state
                .counters
                .jobs_failed
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run_job(
    mut stream: TcpStream,
    state: &Arc<ServerState>,
    job_id: &str,
    job: &Arc<Job>,
    prep: &PreparedLayout,
    seed: u64,
    time_limit_ms: Option<u64>,
) -> std::io::Result<()> {
    state.counters.jobs_started.fetch_add(1, Ordering::Relaxed);
    let params = state.engine.framework().params;
    let mut guard = JobGuard {
        state,
        id: job_id,
        job,
        completed: false,
    };

    // The job's journal: resumed from when a previous process left one
    // for this job, moved aside (and the restart counted) when it belongs
    // to another model, layout or parameters.
    let journal = state.journal_path(job_id).and_then(|path| {
        Journal::open(&path, &state.engine.journal_key(prep))
            .map_err(|e| eprintln!("mpld-server: journal {} disabled: {e}", path.display()))
            .ok()
    });
    let restarted = journal.as_ref().is_some_and(|j| j.report.rekeyed);
    if restarted {
        state
            .counters
            .journal_restarts
            .fetch_add(1, Ordering::Relaxed);
    }

    // Streaming NDJSON: no Content-Length, the body ends when the
    // connection closes (Connection: close).
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;

    let mut stream_err: Option<std::io::Error> = None;
    // Dual-write: every event goes to the job log (for reattaching
    // followers) first, then to this connection's own stream. A dead
    // client never aborts the solve — the job finishes and stays
    // attachable.
    let mut emit = |line: &str| {
        job.append(line);
        #[cfg(feature = "failpoints")]
        if stream_err.is_none() && mpld_graph::failpoints::fire("server.stream.drop") {
            stream_err = Some(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "failpoint server.stream.drop: injected mid-stream disconnect",
            ));
        }
        if stream_err.is_none() {
            if let Err(e) = writeln!(stream, "{line}").and_then(|()| stream.flush()) {
                stream_err = Some(e);
            }
        }
    };

    emit(&event_line(
        "job",
        [
            ("id", job_id.into()),
            ("journal", journal.is_some().into()),
            ("restarted", restarted.into()),
        ],
    ));

    let policy = BudgetPolicy {
        total: time_limit_ms.map(Duration::from_millis),
        ..BudgetPolicy::unlimited()
    };
    let mut session = Session::with_policy(seed, policy);
    session.recovery = Recovery {
        journal: journal.as_ref(),
    };

    let result = {
        let mut on_event = |e: Progress| {
            let line = match e {
                Progress::Routed {
                    units,
                    matched,
                    colorgnn,
                    routing_memo_hits,
                } => event_line(
                    "routed",
                    [
                        ("units", units.into()),
                        ("matched", matched.into()),
                        ("colorgnn", colorgnn.into()),
                        ("routing_memo_hits", routing_memo_hits.into()),
                    ],
                ),
                Progress::Unit {
                    index,
                    engine,
                    certainty,
                    cached,
                } => event_line(
                    "unit",
                    [
                        ("index", index.into()),
                        ("engine", format!("{engine:?}").into()),
                        ("certainty", format!("{certainty:?}").into()),
                        ("cached", cached.into()),
                    ],
                ),
            };
            emit(&line);
        };
        state
            .engine
            .decompose_with_progress(prep, &mut session, &mut on_event)
    };

    match result {
        Ok(r) => {
            let summary = RunSummary::from_result(&prep.name, &r, params.alpha, 1, Some(seed));
            emit(&event_line(
                "done",
                [("job", job_id.into()), ("summary", summary.to_value())],
            ));
            guard.completed = true;
            job.finish(false);
            let c = &state.counters;
            c.jobs_completed.fetch_add(1, Ordering::Relaxed);
            c.resumed_units
                .fetch_add(r.resumed_units as u64, Ordering::Relaxed);
            if let Some(j) = &journal {
                c.journal_records
                    .fetch_add(j.writer.stats().appended, Ordering::Relaxed);
            }
        }
        Err(e) => {
            emit(&event_line("error", [("message", e.to_string().into())]));
            guard.completed = true;
            job.finish(true);
            state.registry.remove(job_id);
            state.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    match stream_err {
        Some(e) => Err(e),
        None => stream.flush(),
    }
}

/// Replays a job's NDJSON event log from the start over `stream`, then
/// follows live appends until the job finishes. The runner's own
/// connection never comes here — only reattaching followers.
fn stream_job(mut stream: TcpStream, job: &Arc<Job>) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    let mut from = 0usize;
    loop {
        let (lines, done) = job.wait_events(from, Duration::from_millis(250));
        for line in &lines {
            writeln!(stream, "{line}")?;
        }
        if !lines.is_empty() {
            stream.flush()?;
        }
        from += lines.len();
        if done && lines.is_empty() {
            return stream.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Request bodies are read with the codec, top-level keys only.
    #[test]
    fn body_fields_parse() {
        let field = |b: &str, key: &str| {
            json::parse(b).and_then(|v| {
                v.get(key)
                    .map(|f| f.to_string().trim_matches('"').to_string())
            })
        };
        let b = r#"{"circuit":"C432","seed":7,"time_limit_ms":500,"job_id":"a.b-c"}"#;
        assert_eq!(field(b, "circuit").as_deref(), Some("C432"));
        assert_eq!(field(b, "seed").as_deref(), Some("7"));
        assert_eq!(field(b, "time_limit_ms").as_deref(), Some("500"));
        assert_eq!(field(b, "job_id").as_deref(), Some("a.b-c"));
        assert_eq!(field(b, "missing"), None);
        // Whitespace-tolerant.
        let b = r#"{ "circuit" : "C499" , "seed" : 12 }"#;
        assert_eq!(field(b, "circuit").as_deref(), Some("C499"));
        assert_eq!(field(b, "seed").as_deref(), Some("12"));
        // A key's text appearing earlier as a value is not the key.
        let b = r#"{"job_id":"circuit","circuit":"C432"}"#;
        assert_eq!(field(b, "circuit").as_deref(), Some("C432"));
        assert_eq!(field(b, "job_id").as_deref(), Some("circuit"));
        // Escapes decode, nested keys do not count, and a body that is
        // not JSON is rejected whole.
        let b = r#"{"circuit":"C\u0034\u0033\u0032"}"#;
        assert_eq!(field(b, "circuit").as_deref(), Some("C432"));
        let b = r#"{"meta":{"circuit":"C880"},"circuit":"C432"}"#;
        assert_eq!(field(b, "circuit").as_deref(), Some("C432"));
        assert_eq!(field(r#"{"circuit":"C432""#, "circuit"), None);
    }

    #[test]
    fn error_bodies_are_json() {
        let odd = "a\"b\\c\u{1}\u{7f}é";
        let body = error_json("unknown circuit", [("circuit", odd.into())]);
        let v = json::parse(&body).expect("error body parses");
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("unknown circuit")
        );
        assert_eq!(v.get("circuit").and_then(Value::as_str), Some(odd));
        for e in [
            HttpError::Malformed(odd.to_string()),
            HttpError::TooLarge("request line"),
            HttpError::Io(std::io::Error::other(odd)),
        ] {
            assert!(json::parse(&e.body()).is_some(), "{}", e.body());
        }
    }

    /// The `error` event lines no served job reaches in a healthy run (an
    /// engine error, a runner that unwinds), pinned byte for byte.
    #[test]
    fn error_event_lines_are_pinned() {
        assert_eq!(
            event_line("error", [("message", "job aborted".into())]),
            r#"{"event":"error","message":"job aborted"}"#
        );
        let e = MpldError::Io("disk \"full\"\n".into()).to_string();
        assert_eq!(
            event_line("error", [("message", e.clone().into())]),
            format!(
                r#"{{"event":"error","message":"{}"}}"#,
                e.replace('"', "\\\"").replace('\n', "\\u000a")
            )
        );
    }

    #[test]
    fn default_config_is_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_depth >= 1);
        assert!(c.journal_dir.is_none());
        assert_eq!(c.upload, ReadLimits::UNTRUSTED);
    }
}
