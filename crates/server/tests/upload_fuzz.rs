//! Hostile-upload fuzzing: deterministic garbage, truncation, and
//! oversize attacks against `POST /decompose` must always produce a
//! fast typed response — no panic, no hang, no unbounded buffering —
//! and leave the server healthy.

mod util;

use mpld_graph::splitmix64;
use mpld_layout::{circuit_by_name, write_layout, ReadLimits};
use mpld_server::{HttpLimits, ServerConfig};
use std::time::{Duration, Instant};
use util::{send_raw, tiny_engine, TestServer};

/// Resident set size in bytes, from /proc (0 where unavailable).
fn rss_bytes() -> u64 {
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
        return 0;
    };
    statm
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse::<u64>().ok())
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

fn post_raw_upload(addr: std::net::SocketAddr, body: &[u8]) -> String {
    let mut raw = format!(
        "POST /decompose HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    send_raw(addr, &raw)
}

#[test]
fn hostile_uploads_never_panic_hang_or_balloon() {
    // Tight caps so the fuzz bodies cross every limit cheaply.
    let cfg = ServerConfig {
        workers: 2,
        queue_depth: 8,
        read_timeout: Duration::from_secs(5),
        http: HttpLimits {
            max_body_bytes: 64 << 10,
            ..HttpLimits::default()
        },
        upload: ReadLimits {
            max_line_bytes: 256,
            max_rects: 2000,
            max_features: 2000,
        },
        ..ServerConfig::default()
    };
    let server = TestServer::start(tiny_engine(true), cfg);
    let addr = server.addr;

    // A valid layout to mutate (truncations, splices).
    let layout = circuit_by_name("C432").expect("exists").generate();
    let mut valid = Vec::new();
    write_layout(&layout, &mut valid).expect("serialize");

    let rss_before = rss_bytes();
    let started = Instant::now();
    let mut responses = 0usize;

    for case in 0u64..60 {
        let h = splitmix64(0xF0CC ^ case);
        let body: Vec<u8> = match case % 6 {
            // Random binary garbage of varying size.
            0 => (0..(h % 4096))
                .map(|i| (splitmix64(h ^ i) & 0xFF) as u8)
                .collect(),
            // The valid layout truncated at a pseudo-random byte.
            1 => valid[..(h as usize % valid.len().max(1))].to_vec(),
            // Valid prefix spliced with garbage lines.
            2 => {
                let mut b = valid[..valid.len() / 3].to_vec();
                b.extend_from_slice(b"rect 1 2 NaN 4\nfeature -9\npoly\n");
                b
            }
            // A newline-free flood longer than the line cap.
            3 => std::iter::repeat_n(b'x', 1024 + (h as usize % 4096)).collect(),
            // A rect-count bomb within the body cap.
            4 => {
                let mut b =
                    b"# mpld layout interchange v1\nlayout bomb d=100\nfeature 0\n".to_vec();
                for i in 0..3000u32 {
                    b.extend_from_slice(
                        format!("rect {i} 0 {} 10\n", i + 1).into_bytes().as_slice(),
                    );
                }
                b
            }
            // Valid header, then tokens that parse as the wrong types.
            _ => b"# mpld layout interchange v1\nlayout x d=abc\nrect a b c d\n".to_vec(),
        };

        let r = post_raw_upload(addr, &body);
        assert!(
            !r.is_empty(),
            "case {case}: server dropped the connection silently"
        );
        // Every hostile body must resolve to a typed 4xx (a truncation
        // can also legitimately parse as a smaller valid layout → 200).
        assert!(
            r.starts_with("HTTP/1.1 400")
                || r.starts_with("HTTP/1.1 413")
                || r.starts_with("HTTP/1.1 200"),
            "case {case}: unexpected response {r}"
        );
        if r.starts_with("HTTP/1.1 400") {
            assert!(
                r.contains("\"error\":\"parse\"") || r.contains("\"error\":\""),
                "case {case}: 400 must be typed: {r}"
            );
        }
        responses += 1;
    }

    // Oversized declared body: rejected before any allocation.
    let r = send_raw(
        addr,
        b"POST /decompose HTTP/1.1\r\nHost: fuzz\r\nContent-Length: 999999999\r\n\r\n",
    );
    assert!(r.starts_with("HTTP/1.1 413"), "{r}");

    // No hang: 60+ hostile requests settle quickly.
    assert_eq!(responses, 60);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "fuzz round took {:?}",
        started.elapsed()
    );

    // No panic anywhere in the worker pool, and memory stayed bounded:
    // caps hold every body to <=64 KiB, so RSS growth beyond a small
    // slack means something buffered without bound.
    let stats = send_raw(addr, b"GET /stats HTTP/1.1\r\nHost: fuzz\r\n\r\n");
    assert!(stats.contains("\"request_panics\":0"), "{stats}");
    assert!(
        stats.contains("\"status\"") || stats.starts_with("HTTP/1.1 200"),
        "{stats}"
    );
    let rss_after = rss_bytes();
    if rss_before > 0 && rss_after > 0 {
        let grown = rss_after.saturating_sub(rss_before);
        assert!(
            grown < 256 << 20,
            "RSS grew {} MiB across the fuzz round",
            grown >> 20
        );
    }

    // And an honest upload still works afterwards.
    let r = post_raw_upload(addr, &valid);
    assert!(
        r.starts_with("HTTP/1.1 200 OK") || r.starts_with("HTTP/1.1 400"),
        "{r}"
    );
    server.stop();
}

#[test]
fn parse_errors_carry_line_numbers() {
    let server = TestServer::start(tiny_engine(true), ServerConfig::default());
    let bad = "# mpld layout interchange v1\nlayout x d=100\nfeature 0\nrect 1 2 three 4\n";
    let r = post_raw_upload(server.addr, bad.as_bytes());
    assert!(r.starts_with("HTTP/1.1 400"), "{r}");
    assert!(r.contains("\"error\":\"parse\""), "{r}");
    assert!(r.contains("\"line\":4"), "{r}");
    server.stop();
}
