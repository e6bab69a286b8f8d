//! In-process end-to-end test of the decomposition server: a warm
//! shared engine behind a real TCP listener, driven by raw
//! `TcpStream` clients. Covers the streaming protocol, cross-request
//! cache reuse, admission control (429), and graceful drain.

use mpld::json::{self, Value};
use mpld::{prepare, train_framework, Engine, OfflineConfig, RunSummary, TrainingData};
use mpld_graph::DecomposeParams;
use mpld_layout::circuit_by_name;
use mpld_server::{serve, ServerConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One server shared by every test in this file (spawned once, reaped
/// with the process): its address and shutdown flag.
struct TestServer {
    addr: std::net::SocketAddr,
    #[allow(dead_code)]
    shutdown: Arc<AtomicBool>,
}

/// A quickly trained engine (and its training cap, for reference).
fn tiny_engine() -> (Arc<Engine>, usize) {
    let params = DecomposeParams::tpl();
    let layout = circuit_by_name("C432").expect("exists").generate();
    let prep = prepare(&layout, &params);
    let mut data = TrainingData::default();
    data.add_layout_capped(&prep, &params, 8);
    let mut cfg = OfflineConfig::default();
    cfg.rgcn.epochs = 1;
    cfg.colorgnn.epochs = 1;
    cfg.library = mpld_matching::LibraryConfig {
        max_parent_size: 4,
        max_splits: 1,
        max_nodes: 5,
        stitches: false,
    };
    (
        Arc::new(Engine::new(train_framework(&data, &params, &cfg))),
        8,
    )
}

fn server() -> &'static TestServer {
    static SERVER: OnceLock<TestServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        let (engine, _) = tiny_engine();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let cfg = ServerConfig {
                workers: 2,
                queue_depth: 4,
                read_timeout: Duration::from_secs(5),
                ..ServerConfig::default()
            };
            serve(engine, listener, &cfg, &flag).expect("serve");
        });
        TestServer { addr, shutdown }
    })
}

fn request(addr: std::net::SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    out
}

fn post_decompose(addr: std::net::SocketAddr, body: &str) -> String {
    request(
        addr,
        &format!(
            "POST /decompose HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The final `done` line of a streamed decomposition response.
fn done_line(response: &str) -> &str {
    response
        .lines()
        .find(|l| l.starts_with("{\"event\":\"done\""))
        .unwrap_or_else(|| panic!("no done event in response:\n{response}"))
}

#[test]
fn healthz_answers_ok() {
    let s = server();
    let r = request(s.addr, "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(r.starts_with("HTTP/1.1 200 OK"), "{r}");
    assert!(r.contains("\"status\":\"ok\""), "{r}");
}

#[test]
fn unknown_route_is_404_and_bad_body_is_400() {
    let s = server();
    let r = request(s.addr, "GET /nope HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(r.starts_with("HTTP/1.1 404"), "{r}");
    let r = post_decompose(s.addr, "{}");
    assert!(r.starts_with("HTTP/1.1 400"), "{r}");
    let r = post_decompose(s.addr, r#"{"circuit":"NOT_A_CIRCUIT"}"#);
    assert!(r.starts_with("HTTP/1.1 404"), "{r}");
}

#[test]
fn repeated_requests_share_the_warm_engine() {
    let s = server();
    let body = r#"{"circuit":"C432","seed":7}"#;

    let first = post_decompose(s.addr, body);
    assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
    assert!(first.contains("application/x-ndjson"), "{first}");
    assert!(first.contains("{\"event\":\"job\""), "{first}");
    assert!(first.contains("{\"event\":\"routed\""), "{first}");
    let a = RunSummary::parse(done_line(&first)).expect("summary parses");

    // A distinct job id forces a fresh run (a byte-identical re-POST
    // would idempotently replay the first job's log instead).
    let second = post_decompose(s.addr, r#"{"circuit":"C432","seed":7,"job_id":"warm-2"}"#);
    let b = RunSummary::parse(done_line(&second)).expect("summary parses");

    // Identical request, identical digest…
    assert_eq!(a.layout, "C432");
    assert_eq!((a.conflicts, a.stitches), (b.conflicts, b.stitches));
    assert_eq!(
        (a.matching, a.colorgnn, a.ec, a.ilp),
        (b.matching, b.colorgnn, b.ec, b.ilp)
    );
    assert_eq!(a.seed, Some(7));
    // …and the repeat was served from the cross-request routing memo.
    assert!(
        b.routing_memo_hits > 0,
        "second request must hit the shared routing memo: {b:?}"
    );
    assert_eq!(b.units_inferred, 0, "{b:?}");

    // The stats route reflects the shared-cache traffic.
    let stats = request(s.addr, "GET /stats HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(stats.contains("\"routing\":{\"hits\":"), "{stats}");
}

#[test]
fn deadline_requests_stream_incumbents_not_errors() {
    let s = server();
    let r = post_decompose(s.addr, r#"{"circuit":"C432","seed":7,"time_limit_ms":0}"#);
    assert!(r.starts_with("HTTP/1.1 200 OK"), "{r}");
    let summary = RunSummary::parse(done_line(&r)).expect("summary parses");
    // Every unit still resolved; budget pressure shows up as certainty
    // accounting, never as an error event.
    assert_eq!(
        summary.certified + summary.heuristic + summary.budget_exhausted + summary.quarantined,
        summary.units
    );
    assert!(!r.contains("{\"event\":\"error\""), "{r}");
}

#[test]
fn saturated_queue_rejects_with_429_and_recovers() {
    // A private single-worker server so saturating it cannot interfere
    // with the shared instance used by the other tests.
    let (engine, _) = tiny_engine();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || {
        let cfg = ServerConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        };
        serve(engine, listener, &cfg, &flag)
    });

    // Wedge the worker and the queue slot with connections that never
    // send a request line (released by the server's read timeout).
    let held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let c = TcpStream::connect(addr).expect("connect");
            std::thread::sleep(Duration::from_millis(100));
            c
        })
        .collect();
    // With the pool and backlog full, a new connection is turned away
    // immediately. Retry briefly in case a held slot had not yet been
    // dequeued when we connected.
    let mut saw_429 = false;
    for _ in 0..20 {
        let mut c = TcpStream::connect(addr).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        c.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            .expect("send");
        let mut out = String::new();
        let _ = c.read_to_string(&mut out);
        if out.starts_with("HTTP/1.1 429") {
            assert!(out.contains("queue is full"), "{out}");
            saw_429 = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(held);
    assert!(saw_429, "saturation never produced a 429");
    // After the held connections time out, service recovers.
    let mut ok = false;
    for _ in 0..60 {
        let mut c = TcpStream::connect(addr).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        c.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            .expect("send");
        let mut out = String::new();
        let _ = c.read_to_string(&mut out);
        if out.starts_with("HTTP/1.1 200") {
            ok = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    assert!(ok, "server did not recover after saturation");
    shutdown.store(true, Ordering::SeqCst);
    assert!(handle.join().expect("no panic").is_ok());
}

/// Sends raw bytes best-effort (the server may close mid-write on a
/// rejected request) and returns whatever response came back.
fn send_raw(addr: std::net::SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let _ = stream.write_all(raw); // EPIPE is fine: rejection beat the write
    let _ = stream.flush();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

#[test]
fn malformed_and_oversized_requests_get_fast_typed_errors() {
    let s = server();

    // A multi-megabyte request line with no newline must be cut off at
    // the cap with a 431, never buffered whole.
    let mut raw = b"GET /".to_vec();
    raw.extend(std::iter::repeat_n(b'a', 1 << 20));
    let r = send_raw(s.addr, &raw);
    assert!(r.starts_with("HTTP/1.1 431"), "{r}");

    // Same for one giant header line and for a header flood.
    let mut raw = b"GET /healthz HTTP/1.1\r\nX-Big: ".to_vec();
    raw.extend(std::iter::repeat_n(b'a', 1 << 20));
    let r = send_raw(s.addr, &raw);
    assert!(r.starts_with("HTTP/1.1 431"), "{r}");
    let mut raw = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..500 {
        raw.extend(format!("X-{i}: v\r\n").into_bytes());
    }
    raw.extend(b"\r\n");
    let r = send_raw(s.addr, &raw);
    assert!(r.starts_with("HTTP/1.1 431"), "{r}");

    // An absurd Content-Length is rejected up front (413), a POST with
    // none at all gets 411, and binary garbage gets 400.
    let r = send_raw(
        s.addr,
        b"POST /decompose HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n",
    );
    assert!(r.starts_with("HTTP/1.1 413"), "{r}");
    let r = send_raw(s.addr, b"POST /decompose HTTP/1.1\r\n\r\n");
    assert!(r.starts_with("HTTP/1.1 411"), "{r}");
    let r = send_raw(s.addr, b"\x00\x01\x02\x03\r\n\r\n");
    assert!(r.starts_with("HTTP/1.1 400"), "{r}");

    // The server is still healthy and counted the abuse.
    let health = request(s.addr, "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    let stats = request(s.addr, "GET /stats HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(stats.contains("\"bad_requests\":"), "{stats}");
}

/// Request bodies are strict JSON read by top-level key, and every
/// error body is JSON whatever text it quotes back.
#[test]
fn request_bodies_are_json_and_every_error_body_parses() {
    let s = server();
    let error_of = |r: &str| {
        let body = r.split_once("\r\n\r\n").map_or("", |(_, b)| b).trim();
        let v = json::parse(body).unwrap_or_else(|| panic!("error body is not JSON: {r}"));
        v.get("error")
            .and_then(Value::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no error field: {r}"))
    };
    let post = |body: &str| post_decompose(s.addr, body);
    for (r, status) in [
        (post(r#"{"circuit":"nope"}"#), "404"),
        (post(r#"{"circuit":"no\"pe\u0001\u007f\u00e9"}"#), "404"),
        (post(r#"{"circuit":"C432","job_id":"bad id\u0007"}"#), "400"),
        (post(r#"{"circuit":"C432""#), "400"),
        (post(r#"{"meta":{"circuit":"C432"}}"#), "400"),
        (
            request(
                s.addr,
                "GET /jobs/a\"b\u{7f} HTTP/1.1\r\nHost: test\r\n\r\n",
            ),
            "404",
        ),
        (send_raw(s.addr, b"\x01\x7f GET\r\n\r\n"), "400"),
    ] {
        assert!(r.starts_with(&format!("HTTP/1.1 {status}")), "{r}");
        error_of(&r);
    }
    let unknown = post(r#"{"circuit":"no\"pe"}"#);
    let body = unknown.split_once("\r\n\r\n").expect("body").1;
    let v = json::parse(body.trim()).expect("404 body parses");
    assert_eq!(v.get("circuit").and_then(Value::as_str), Some("no\"pe"));

    // Escapes decode: C\u0034\u0033\u0032 is C432.
    let r = post(r#"{"circuit":"C\u0034\u0033\u0032","job_id":"escaped-name"}"#);
    assert!(r.starts_with("HTTP/1.1 200 OK"), "{r}");
    assert_eq!(
        RunSummary::parse(done_line(&r)).expect("parses").layout,
        "C432"
    );
    // Only top-level keys count.
    let r = post(r#"{"meta":{"circuit":"C880"},"circuit":"C432","job_id":"nested-key"}"#);
    assert!(r.starts_with("HTTP/1.1 200 OK"), "{r}");
    assert_eq!(
        RunSummary::parse(done_line(&r)).expect("parses").layout,
        "C432"
    );
}

#[test]
fn stats_reports_queue_uptime_and_job_counters() {
    let s = server();
    let stats = request(s.addr, "GET /stats HTTP/1.1\r\nHost: test\r\n\r\n");
    for key in [
        "\"uptime_ms\":",
        "\"queue_depth\":",
        "\"active_requests\":",
        "\"draining\":false",
        "\"jobs\":{",
        "\"journal_records\":",
        "\"journal_restarts\":",
    ] {
        assert!(stats.contains(key), "missing {key} in {stats}");
    }
    let health = request(s.addr, "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(health.contains("\"uptime_ms\":"), "{health}");
    assert!(health.contains("\"queue_depth\":"), "{health}");
}

#[test]
fn raw_upload_decomposes_like_the_named_circuit() {
    let s = server();
    let layout = circuit_by_name("C432").expect("exists").generate();
    let mut text = Vec::new();
    mpld_layout::write_layout(&layout, &mut text).expect("serialize");
    let text = String::from_utf8(text).expect("utf8");

    let r = send_raw(
        s.addr,
        format!(
            "POST /decompose?seed=7&job_id=upload-e2e HTTP/1.1\r\nHost: test\r\n\
             Content-Length: {}\r\n\r\n{text}",
            text.len()
        )
        .as_bytes(),
    );
    assert!(r.starts_with("HTTP/1.1 200 OK"), "{r}");
    let up = RunSummary::parse(done_line(&r)).expect("summary parses");

    // Same geometry, same seed — the served digests must match the
    // named-circuit path bit for bit.
    let named = post_decompose(
        s.addr,
        r#"{"circuit":"C432","seed":7,"job_id":"named-e2e"}"#,
    );
    let nm = RunSummary::parse(done_line(&named)).expect("summary parses");
    assert_eq!(up.layout, "C432");
    assert_eq!((up.conflicts, up.stitches), (nm.conflicts, nm.stitches));
    assert_eq!(
        (up.matching, up.colorgnn, up.ec, up.ilp),
        (nm.matching, nm.colorgnn, nm.ec, nm.ilp)
    );

    // A garbage upload gets a typed 400 carrying the offending line.
    let bad = "# mpld layout interchange v1\nlayout X d=100\nrect 1 2 three 4\n";
    let r = send_raw(
        s.addr,
        format!(
            "POST /decompose HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{bad}",
            bad.len()
        )
        .as_bytes(),
    );
    assert!(r.starts_with("HTTP/1.1 400"), "{r}");
    assert!(r.contains("\"line\":3"), "{r}");
}

#[test]
fn draining_server_reports_draining_and_refuses_new_work() {
    // Private instance: wedge its only worker so the drain phase stays
    // observable, then flip shutdown and probe from the acceptor side.
    let (engine, _) = tiny_engine();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || {
        let cfg = ServerConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout: Duration::from_secs(3),
            ..ServerConfig::default()
        };
        serve(engine, listener, &cfg, &flag)
    });
    // Wedge the worker with a connection that never sends its request.
    let held = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));
    shutdown.store(true, Ordering::SeqCst);

    let mut saw_draining = false;
    let mut saw_refusal = false;
    for _ in 0..50 {
        let health = send_raw(addr, b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
        if health.contains("\"status\":\"draining\"") {
            saw_draining = true;
            let post = send_raw(
                addr,
                b"POST /decompose HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
            );
            saw_refusal = post.starts_with("HTTP/1.1 503");
            break;
        }
        if health.is_empty() {
            break; // drain finished: listener gone
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(held);
    assert!(saw_draining, "never observed draining health status");
    assert!(saw_refusal, "draining server must refuse new work with 503");
    assert!(handle.join().expect("no panic").is_ok());
}

#[test]
fn graceful_drain_joins_workers() {
    // A private server instance so the shared one keeps running for the
    // other tests.
    let (engine, _) = tiny_engine();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || {
        let cfg = ServerConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout: Duration::from_secs(1),
            ..ServerConfig::default()
        };
        serve(engine, listener, &cfg, &flag)
    });
    std::thread::sleep(Duration::from_millis(100));
    shutdown.store(true, Ordering::SeqCst);
    let joined = handle.join().expect("no panic");
    assert!(joined.is_ok());
}
