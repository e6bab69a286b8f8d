//! Durable-job integration tests: journaled resume across a simulated
//! kill -9 + restart, header-mismatch restarts, idempotent re-POSTs,
//! and concurrent `GET /jobs/<id>` reattach.
//!
//! A "restart" here is a new `serve` loop over a freshly trained engine
//! (training is deterministic, so it is bit-identical to the first) and
//! the same journal directory — exactly what a respawned process would
//! hold. The kill is simulated by truncating the journal mid-record,
//! which is the on-disk state a SIGKILL mid-append leaves behind; the
//! real-process variant (actual `kill -9`) runs in
//! `scripts/server_smoke.sh`.

mod util;

use mpld::RunSummary;
use mpld_layout::{circuit_by_name, write_layout};
use mpld_server::ServerConfig;
use std::path::Path;
use std::time::Duration;
use util::{done_line, post_decompose, scratch_dir, send_raw, tiny_engine, TestServer};

fn cfg_with_journal(dir: &Path) -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 8,
        read_timeout: Duration::from_secs(5),
        journal_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// The digest fields that must be bit-identical between runs.
fn digest(s: &RunSummary) -> (u32, u32, String, usize, usize, usize, usize) {
    (
        s.conflicts,
        s.stitches,
        format!("{:.17e}", s.objective),
        s.matching,
        s.colorgnn,
        s.ec,
        s.ilp,
    )
}

/// Chops the journal to its header plus two whole records plus a torn
/// half-record — the on-disk state of a journal whose writer was killed
/// mid-append.
fn tear_journal(path: &Path) {
    let text = std::fs::read_to_string(path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 4,
        "need a header and >=3 records to tear, got {} lines",
        lines.len()
    );
    let mut torn = lines[..3].join("\n");
    torn.push('\n');
    torn.push_str(&lines[3][..lines[3].len() / 2]); // no trailing newline
    std::fs::write(path, torn).expect("tear journal");
}

#[test]
fn killed_job_resumes_bit_identical_after_restart() {
    let dir = scratch_dir("resume");
    let body = r#"{"circuit":"C432","seed":7,"job_id":"killjob"}"#;

    // Uninterrupted oracle run on server A (all units forced to the
    // journaled ILP/EC tail).
    let server_a = TestServer::start(tiny_engine(false), cfg_with_journal(&dir));
    let r1 = post_decompose(server_a.addr, body);
    assert!(r1.starts_with("HTTP/1.1 200 OK"), "{r1}");
    assert!(r1.contains("\"journal\":true,\"restarted\":false"), "{r1}");
    let oracle = RunSummary::parse(done_line(&r1)).expect("summary parses");
    assert_eq!(oracle.resumed_units, 0, "{oracle:?}");
    server_a.stop();

    // Simulated kill -9: the journal survives with a torn tail.
    let journal = dir.join("killjob.jsonl");
    assert!(journal.exists(), "journal must exist at {journal:?}");
    tear_journal(&journal);

    // Server B: fresh (bit-identical) engine, same journal dir. The
    // re-POSTed job resumes from the journal instead of starting over.
    let server_b = TestServer::start(tiny_engine(false), cfg_with_journal(&dir));
    let r2 = post_decompose(server_b.addr, body);
    assert!(r2.starts_with("HTTP/1.1 200 OK"), "{r2}");
    let resumed = RunSummary::parse(done_line(&r2)).expect("summary parses");
    assert!(
        resumed.resumed_units >= 2,
        "torn journal kept 2 whole records: {resumed:?}"
    );
    assert_eq!(
        digest(&resumed),
        digest(&oracle),
        "resumed digest must be bit-identical to the uninterrupted run"
    );

    // Reattaching to the finished job replays the same done line.
    let attach = send_raw(
        server_b.addr,
        b"GET /jobs/killjob HTTP/1.1\r\nHost: test\r\n\r\n",
    );
    assert_eq!(done_line(&attach), done_line(&r2));

    // Journal counters surfaced via /stats.
    let stats = send_raw(server_b.addr, b"GET /stats HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(stats.contains("\"resumed_units\":"), "{stats}");
    server_b.stop();
}

#[test]
fn header_mismatch_restarts_job_from_scratch() {
    let dir = scratch_dir("mismatch");

    // Seed the journal for job id "hdr" with a C432 run.
    let server_a = TestServer::start(tiny_engine(false), cfg_with_journal(&dir));
    let r = post_decompose(
        server_a.addr,
        r#"{"circuit":"C432","seed":7,"job_id":"hdr"}"#,
    );
    assert!(r.starts_with("HTTP/1.1 200 OK"), "{r}");
    server_a.stop();
    assert!(dir.join("hdr.jsonl").exists());

    // Re-use the id for a *different layout*: the C432 journal's header
    // no longer matches, so the job must restart from scratch — no
    // silent reuse of foreign records.
    let server_b = TestServer::start(tiny_engine(false), cfg_with_journal(&dir));
    let r = post_decompose(
        server_b.addr,
        r#"{"circuit":"C499","seed":7,"job_id":"hdr"}"#,
    );
    assert!(r.starts_with("HTTP/1.1 200 OK"), "{r}");
    assert!(r.contains("\"restarted\":true"), "{r}");
    let restarted = RunSummary::parse(done_line(&r)).expect("summary parses");
    assert_eq!(restarted.layout, "C499");
    assert_eq!(
        restarted.resumed_units, 0,
        "no record of the foreign journal may be reused: {restarted:?}"
    );

    // The restarted job's digest equals a clean C499 run.
    let clean = post_decompose(
        server_b.addr,
        r#"{"circuit":"C499","seed":7,"job_id":"hdr-clean"}"#,
    );
    let clean = RunSummary::parse(done_line(&clean)).expect("summary parses");
    assert_eq!(digest(&restarted), digest(&clean));

    let stats = send_raw(server_b.addr, b"GET /stats HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(
        stats.contains("\"journal_restarts\":1"),
        "restart must be counted: {stats}"
    );
    server_b.stop();
}

/// A journal's header survives any layout name: an upload named `a"b`
/// resumes on a restarted server instead of being restarted from
/// scratch.
#[test]
fn uploaded_layout_with_a_quoted_name_resumes() {
    let dir = scratch_dir("quoted");
    let mut layout = circuit_by_name("C432").expect("exists").generate();
    layout.name = "a\"b".to_string();
    let mut text = Vec::new();
    write_layout(&layout, &mut text).expect("serialize");
    let text = String::from_utf8(text).expect("utf8");
    let raw = format!(
        "POST /decompose?seed=7&job_id=quoted HTTP/1.1\r\nHost: test\r\n\
         Content-Length: {}\r\n\r\n{text}",
        text.len()
    );

    let server_a = TestServer::start(tiny_engine(false), cfg_with_journal(&dir));
    let first = send_raw(server_a.addr, raw.as_bytes());
    assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
    let oracle = RunSummary::parse(done_line(&first)).expect("summary parses");
    assert_eq!(oracle.layout, "a\"b");
    server_a.stop();

    let server_b = TestServer::start(tiny_engine(false), cfg_with_journal(&dir));
    let again = send_raw(server_b.addr, raw.as_bytes());
    assert!(again.contains("\"restarted\":false"), "{again}");
    let resumed = RunSummary::parse(done_line(&again)).expect("summary parses");
    assert!(resumed.ec + resumed.ilp > 0, "{resumed:?}");
    assert_eq!(
        resumed.resumed_units,
        resumed.ec + resumed.ilp,
        "{resumed:?}"
    );
    assert_eq!(digest(&resumed), digest(&oracle));
    server_b.stop();
}

#[test]
fn identical_reposts_are_idempotent_and_seeds_derive_distinct_ids() {
    let server = TestServer::start(tiny_engine(true), ServerConfig::default());
    let body = r#"{"circuit":"C432","seed":11}"#;

    let first = post_decompose(server.addr, body);
    assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
    let second = post_decompose(server.addr, body);

    // Byte-identical request, no explicit id: the derived id maps the
    // re-POST onto the same job, whose log is replayed verbatim.
    assert_eq!(done_line(&first), done_line(&second));
    let job_line = |r: &str| {
        r.lines()
            .find(|l| l.starts_with("{\"event\":\"job\""))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no job event in {r}"))
    };
    assert_eq!(job_line(&first), job_line(&second));

    // A different seed derives a different job id (and a fresh run).
    let other = post_decompose(server.addr, r#"{"circuit":"C432","seed":12}"#);
    assert_ne!(job_line(&first), job_line(&other));

    // Invalid explicit ids are rejected with a typed 400.
    let bad = post_decompose(server.addr, r#"{"circuit":"C432","job_id":"../escape"}"#);
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
    assert!(bad.contains("invalid job_id"), "{bad}");
    server.stop();
}

#[test]
fn concurrent_reattach_replays_the_full_event_log() {
    let cfg = ServerConfig {
        workers: 3,
        queue_depth: 8,
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let server = TestServer::start(tiny_engine(false), cfg);
    let addr = server.addr;

    // Run the job on one connection while this thread races GETs at it.
    let runner = std::thread::spawn(move || {
        post_decompose(addr, r#"{"circuit":"C499","seed":3,"job_id":"attach"}"#)
    });

    // Poll until the job is claimable, then stream it to completion —
    // whether we land mid-flight or after the job finished, the reattach
    // must replay the log from the first event.
    let mut attach = String::new();
    for _ in 0..200 {
        let r = send_raw(addr, b"GET /jobs/attach HTTP/1.1\r\nHost: test\r\n\r\n");
        if r.starts_with("HTTP/1.1 200 OK") {
            attach = r;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let posted = runner.join().expect("runner thread");
    assert!(posted.starts_with("HTTP/1.1 200 OK"), "{posted}");
    assert!(!attach.is_empty(), "reattach never succeeded");

    // Full replay: the attach stream starts at the job event and ends
    // with the same done line the runner saw.
    let first_event = attach
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_default();
    assert!(first_event.starts_with("{\"event\":\"job\""), "{attach}");
    assert_eq!(done_line(&attach), done_line(&posted));

    // Both streams carry the same unit events, in order.
    let units = |r: &str| {
        r.lines()
            .filter(|l| l.starts_with("{\"event\":\"unit\""))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(units(&attach), units(&posted));
    assert!(!units(&posted).is_empty());

    // Unknown ids stay 404.
    let missing = send_raw(addr, b"GET /jobs/never-was HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    server.stop();
}
