//! Byte-exact pins of everything the server writes as JSON: each NDJSON
//! event kind a served job streams, every error body (with its full
//! HTTP response), and the key paths of `/healthz` and `/stats` in
//! order, for an in-memory and for a store-backed engine.

mod util;

use mpld::json::{self, Value};
use mpld::{engine_with_store, prepare, train_framework, OfflineConfig, RunSummary, TrainingData};
use mpld_graph::DecomposeParams;
use mpld_layout::circuit_by_name;
use mpld_server::ServerConfig;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use util::{post_decompose, scratch_dir, send_raw, tiny_engine, TestServer};

/// A quickly trained model's serialized bytes and its offline config.
fn tiny_model() -> &'static (Vec<u8>, OfflineConfig) {
    static MODEL: OnceLock<(Vec<u8>, OfflineConfig)> = OnceLock::new();
    MODEL.get_or_init(|| {
        let params = DecomposeParams::tpl();
        let prep = prepare(
            &circuit_by_name("C432").expect("exists").generate(),
            &params,
        );
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
        let mut bytes = Vec::new();
        train_framework(&data, &params, &cfg)
            .save(&mut bytes)
            .expect("serialize model");
        (bytes, cfg)
    })
}

/// A server over a store-backed engine that journals its jobs.
fn store_server(tag: &str) -> (TestServer, std::path::PathBuf) {
    let dir = scratch_dir(tag);
    let (bytes, cfg) = tiny_model();
    let (engine, _) = engine_with_store(
        bytes,
        &DecomposeParams::tpl(),
        cfg,
        &dir.join("store"),
        mpld_store::StoreCaps::default(),
        None,
    )
    .expect("store opens");
    let journals = dir.join("journals");
    let server = TestServer::start(
        Arc::new(engine),
        ServerConfig {
            journal_dir: Some(journals.clone()),
            ..ServerConfig::default()
        },
    );
    (server, journals)
}

fn body(response: &str) -> &str {
    response.split_once("\r\n\r\n").map_or("", |(_, b)| b)
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::num).expect(key)
}

/// Checks every line of a streamed job against the template its kind
/// must follow, and returns the event kinds in order.
fn check_event_lines(response: &str, job: &str, journal: bool, restarted: bool) -> Vec<String> {
    assert!(response.starts_with(
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    ));
    let mut kinds = Vec::new();
    for line in body(response).lines() {
        let v = json::parse(line).unwrap_or_else(|| panic!("not JSON: {line}"));
        let kind = v.get("event").and_then(Value::as_str).expect("event");
        let want = match kind {
            "job" => format!(
                r#"{{"event":"job","id":"{job}","journal":{journal},"restarted":{restarted}}}"#
            ),
            "routed" => format!(
                r#"{{"event":"routed","units":{},"matched":{},"colorgnn":{},"routing_memo_hits":{}}}"#,
                num(&v, "units"),
                num(&v, "matched"),
                num(&v, "colorgnn"),
                num(&v, "routing_memo_hits"),
            ),
            "unit" => {
                let engine = v.get("engine").and_then(Value::as_str).expect("engine");
                let certainty = v.get("certainty").and_then(Value::as_str).expect("cert");
                assert!(["Ilp", "Ec"].contains(&engine), "{line}");
                assert!(
                    ["Certified", "Heuristic", "BudgetExhausted"].contains(&certainty),
                    "{line}"
                );
                format!(
                    r#"{{"event":"unit","index":{},"engine":"{engine}","certainty":"{certainty}","cached":{}}}"#,
                    num(&v, "index"),
                    v.get("cached").and_then(Value::as_bool).expect("cached"),
                )
            }
            "done" => format!(
                r#"{{"event":"done","job":"{job}","summary":{}}}"#,
                RunSummary::parse(line).expect("summary").to_json()
            ),
            other => panic!("unexpected event {other}: {line}"),
        };
        assert_eq!(line, want);
        kinds.push(kind.to_string());
    }
    kinds
}

#[test]
fn every_event_kind_has_pinned_bytes() {
    let (server, journals) = store_server("events");
    let r = post_decompose(
        server.addr,
        r#"{"circuit":"C432","seed":7,"job_id":"gold-1"}"#,
    );
    let kinds = check_event_lines(&r, "gold-1", true, false);
    assert_eq!(kinds[..2], ["job", "routed"]);
    assert_eq!(kinds.last().map(String::as_str), Some("done"));
    assert!(kinds[2..kinds.len() - 1].iter().all(|k| k == "unit"));
    assert!(kinds.len() > 3, "C432 must stream tail units: {r}");

    // A re-POST and a reattach replay the same bytes.
    let again = post_decompose(
        server.addr,
        r#"{"circuit":"C432","seed":7,"job_id":"gold-1"}"#,
    );
    assert_eq!(body(&again), body(&r));
    let attach = send_raw(server.addr, b"GET /jobs/gold-1 HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(body(&attach), body(&r));

    // A journal left by something else is moved aside: `restarted`.
    std::fs::write(journals.join("gold-2.jsonl"), "not a journal header\n").expect("write");
    let r = post_decompose(
        server.addr,
        r#"{"circuit":"C432","seed":7,"job_id":"gold-2"}"#,
    );
    check_event_lines(&r, "gold-2", true, true);

    // An upload whose layout name needs escaping, on an in-memory engine
    // without journals, under a derived job id.
    let memory = TestServer::start(tiny_engine(true), ServerConfig::default());
    let mut layout = circuit_by_name("C432").expect("exists").generate();
    layout.name = "we\"ird\\C432".into();
    let mut text = Vec::new();
    mpld_layout::write_layout(&layout, &mut text).expect("serialize");
    let mut raw = format!(
        "POST /decompose?seed=3 HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        text.len()
    )
    .into_bytes();
    raw.extend(text);
    let r = send_raw(memory.addr, &raw);
    let first = body(&r).lines().next().expect("job line");
    let id = json::parse(first)
        .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
        .expect("job id");
    check_event_lines(&r, &id, false, false);
    let done = RunSummary::parse(body(&r).lines().last().expect("done")).expect("summary");
    assert_eq!(done.layout, "we\"ird\\C432");
    memory.stop();
    server.stop();
}

/// The full response a JSON body is answered with.
fn json_response(status: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}\n",
        body.len() + 1
    )
}

fn post_raw(addr: std::net::SocketAddr, body: &str) -> String {
    send_raw(
        addr,
        format!(
            "POST /decompose HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

#[test]
fn every_error_body_has_pinned_bytes() {
    let server = TestServer::start(tiny_engine(true), ServerConfig::default());
    let a = server.addr;
    let cases: Vec<(String, &str, &str)> = vec![
        (
            send_raw(a, b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"),
            "404 Not Found",
            r#"{"error":"unknown route"}"#,
        ),
        (
            post_raw(a, ""),
            "400 Bad Request",
            r#"{"error":"empty body"}"#,
        ),
        (
            post_raw(a, " \n\t "),
            "400 Bad Request",
            r#"{"error":"empty body"}"#,
        ),
        (
            post_raw(a, "layout t d=100\nfeature 0\nrect zero 0 1 1\nend\n"),
            "400 Bad Request",
            r#"{"error":"parse","line":3,"reason":"cannot parse line 3: \"rect zero 0 1 1\""}"#,
        ),
        (
            post_raw(a, "layout t d=100\nrect 1 2 3 4\n"),
            "400 Bad Request",
            r#"{"error":"parse","line":2,"reason":"line 2: rect before any feature"}"#,
        ),
        (
            send_raw(
                a,
                b"POST /decompose HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n",
            ),
            "413 Content Too Large",
            r#"{"error":"body too large","declared":1073741824,"limit":2097152}"#,
        ),
        (
            post_raw(a, r#"{"circuit":"C432""#),
            "400 Bad Request",
            r#"{"error":"malformed JSON body"}"#,
        ),
        (
            post_raw(a, r#"{"meta":{"circuit":"C432"}}"#),
            "400 Bad Request",
            r#"{"error":"missing \"circuit\""}"#,
        ),
        (
            post_raw(a, r#"{"circuit":"no\"pe\u0001\u007fé"}"#),
            "404 Not Found",
            "{\"error\":\"unknown circuit\",\"circuit\":\"no\\\"pe\\u0001\u{7f}é\"}",
        ),
        (
            post_raw(a, r#"{"circuit":"C432","job_id":"bad id"}"#),
            "400 Bad Request",
            r#"{"error":"invalid job_id: want 1-64 chars of [A-Za-z0-9._-], not starting with a dot","job_id":"bad id"}"#,
        ),
        (
            send_raw(a, b"GET /jobs/a\"b HTTP/1.1\r\nHost: t\r\n\r\n"),
            "404 Not Found",
            r#"{"error":"unknown job","id":"a\"b"}"#,
        ),
        (
            send_raw(a, b"\x01\x7f GET\r\n\r\n"),
            "400 Bad Request",
            r#"{"error":"bad request","reason":"not an HTTP/1.x request line: \"\\u{1}\\u{7f} GET\""}"#,
        ),
        (
            send_raw(a, b"POST /decompose HTTP/1.1\r\n\r\n"),
            "411 Length Required",
            r#"{"error":"content-length required"}"#,
        ),
        (
            send_raw(a, &[b"GET /".as_slice(), &[b'a'; 9000]].concat()),
            "431 Request Header Fields Too Large",
            r#"{"error":"request too large","what":"request line"}"#,
        ),
    ];
    for (response, status, want) in cases {
        assert_eq!(response, json_response(status, want));
    }
    server.stop();
}

#[test]
fn busy_and_draining_bodies_have_pinned_bytes() {
    // One worker, one queue slot: two silent connections fill both, so
    // the next one is turned away by the acceptor.
    let server = TestServer::start(
        tiny_engine(true),
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    );
    let held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let c = TcpStream::connect(server.addr).expect("connect");
            std::thread::sleep(Duration::from_millis(100));
            c
        })
        .collect();
    let busy = (0..20)
        .map(|_| {
            let r = send_raw(server.addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            std::thread::sleep(Duration::from_millis(50));
            r
        })
        .find(|r| r.starts_with("HTTP/1.1 429"))
        .expect("saturation answers 429");
    assert_eq!(
        busy,
        json_response("429 Too Many Requests", r#"{"error":"queue is full"}"#)
    );

    // Shut down with a silent connection wedging the worker: the
    // acceptor answers new work with 503 until the drain completes.
    drop(held);
    std::thread::sleep(Duration::from_millis(200));
    let mut wedge = TcpStream::connect(server.addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));
    server
        .shutdown
        .store(true, std::sync::atomic::Ordering::SeqCst);
    let draining = (0..50)
        .map(|_| {
            let r = post_raw(server.addr, "{}");
            std::thread::sleep(Duration::from_millis(20));
            r
        })
        .find(|r| r.starts_with("HTTP/1.1 503") || r.is_empty())
        .expect("drain answers");
    assert_eq!(
        draining,
        json_response("503 Service Unavailable", r#"{"error":"draining"}"#)
    );
    let _ = wedge.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
    let _ = wedge.read_to_end(&mut Vec::new());
    server.stop();
}

/// `path:kind` for every leaf of `v`, in document order.
fn key_paths(v: &Value, prefix: &str, out: &mut Vec<String>) {
    let kind = match v {
        Value::Obj(fields) => {
            for (k, f) in fields {
                let path = if prefix.is_empty() {
                    k.to_string()
                } else {
                    format!("{prefix}.{k}")
                };
                key_paths(f, &path, out);
            }
            return;
        }
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Num(text) => {
            assert!(text.bytes().all(|b| b.is_ascii_digit()), "{prefix}: {text}");
            "int"
        }
        Value::Str(_) => "str",
        Value::Arr(_) => "arr",
    };
    out.push(format!("{prefix}:{kind}"));
}

/// The body of `GET <route>`: a compact JSON object (re-rendering it
/// changes no byte) and its key paths.
fn probe(addr: std::net::SocketAddr, route: &str) -> Vec<String> {
    let r = send_raw(
        addr,
        format!("GET {route} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    );
    let text = body(&r).trim_end_matches('\n');
    assert_eq!(r, json_response("200 OK", text));
    let v = json::parse(text).expect("JSON body");
    assert_eq!(v.to_string(), text);
    let mut paths = Vec::new();
    key_paths(&v, "", &mut paths);
    paths
}

#[test]
fn health_and_stats_key_paths_are_pinned() {
    let map = |name: &str| {
        ["hits", "misses", "entries", "evictions", "high_water"].map(|k| format!("{name}.{k}:int"))
    };
    let mut stats: Vec<String> = [
        map("routing"),
        map("solutions_ilp_first"),
        map("solutions_ec_first"),
    ]
    .concat();
    stats.extend(
        [
            "uptime_ms:int",
            "queue_depth:int",
            "active_requests:int",
            "draining:bool",
            "jobs.registered:int",
            "jobs.started:int",
            "jobs.completed:int",
            "jobs.failed:int",
            "jobs.resumed_units:int",
            "jobs.journal_records:int",
            "jobs.journal_restarts:int",
            "http.rejected_busy:int",
            "http.bad_requests:int",
            "http.request_panics:int",
        ]
        .map(String::from),
    );
    let health: Vec<String> = [
        "status:str",
        "uptime_ms:int",
        "queue_depth:int",
        "active_requests:int",
        "routing_entries:int",
        "routing_hits:int",
        "solution_entries:int",
    ]
    .map(String::from)
    .to_vec();

    let memory = TestServer::start(tiny_engine(true), ServerConfig::default());
    assert_eq!(probe(memory.addr, "/healthz"), health);
    let mut want = stats.clone();
    want.push("store:null".into());
    assert_eq!(probe(memory.addr, "/stats"), want);
    memory.stop();

    let (server, _) = store_server("paths");
    let r = post_decompose(server.addr, r#"{"circuit":"C432","seed":7}"#);
    assert!(r.starts_with("HTTP/1.1 200 OK"), "{r}");
    assert_eq!(probe(server.addr, "/healthz"), health);
    let mut want = stats;
    want.extend(
        [
            "store.loaded_solves:int",
            "store.skipped_corrupt:int",
            "store.skipped_audit:int",
            "store.superseded:int",
            "store.orphaned:int",
            "store.rekeyed:bool",
            "store.torn_tail:bool",
            "store.read_only:bool",
            "store.lib_loaded:bool",
            "store.load_ms:int",
            "store.appended:int",
            "store.dropped:int",
            "store.flushes:int",
            "store.io_errors:int",
            "store.entries:int",
        ]
        .map(String::from),
    );
    assert_eq!(probe(server.addr, "/stats"), want);
    server.stop();
}
