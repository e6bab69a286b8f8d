//! Retrying submit client for `mpld-server` (the `mpld submit` CLI).
//!
//! One call to [`submit`] drives a job to completion across transport
//! faults: connect and read timeouts bound every socket operation,
//! `429 Too Many Requests` and connection failures back off
//! exponentially with deterministic jitter, and once the server has
//! acknowledged a job id the client reattaches to the same job after a
//! disconnect — `GET /jobs/<id>` while the server still remembers it,
//! falling back to an idempotent re-`POST` of the identical request
//! (same job id) when it does not, which resumes from the job's journal
//! on a restarted server. The NDJSON event stream replays from the
//! start on every reattach; the caller sees every line via `on_event`
//! and the final `done` line exactly once, as the return value.

use mpld::json::{self, Value};
use mpld_graph::splitmix64;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Transport and retry tuning for [`submit`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Socket read timeout — the longest tolerated silence between
    /// streamed event lines before the attempt counts as failed.
    pub read_timeout: Duration,
    /// Total connection attempts before giving up.
    pub max_attempts: u32,
    /// First backoff delay; doubles per failed attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(30),
            max_attempts: 8,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            jitter_seed: 0,
        }
    }
}

/// What to decompose: a named benchmark circuit (JSON request body) or a
/// raw layout upload (text body, parameters in the query string).
#[derive(Debug, Clone)]
pub enum SubmitBody {
    /// A benchmark circuit by name (`"C432"`, ...).
    Circuit(String),
    /// Raw layout text in the workspace layout format.
    Upload(String),
}

/// One submission: the payload plus optional seed/budget/job-id pins.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Payload.
    pub body: SubmitBody,
    /// RNG seed (server default when absent).
    pub seed: Option<u64>,
    /// Wall-clock budget in milliseconds (unlimited when absent).
    pub time_limit_ms: Option<u64>,
    /// Client-chosen job id; when absent the server derives one from the
    /// request content and echoes it in the first streamed event.
    pub job_id: Option<String>,
}

/// Result of a completed submission.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// The job id the server settled on.
    pub job_id: String,
    /// The final `done` NDJSON line, verbatim.
    pub done_line: String,
    /// Event lines seen across all attempts (replays included).
    pub events: usize,
    /// Connections opened (1 = clean first-try run).
    pub attempts: u32,
    /// Reattach attempts (`GET /jobs/<id>`) after a dropped stream.
    pub reattaches: u32,
    /// `429` rejections absorbed by backing off.
    pub busy_retries: u32,
}

/// Why a submission gave up.
#[derive(Debug)]
pub enum ClientError {
    /// The server rejected the request with a non-retryable status.
    Rejected {
        /// HTTP status line (e.g. `400 Bad Request`).
        status: String,
        /// Response body.
        body: String,
    },
    /// The job itself failed (the server streamed an `error` event).
    Job {
        /// The error event line, verbatim.
        line: String,
    },
    /// All attempts exhausted without reaching a `done` event.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// Description of the last failure.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rejected { status, body } => {
                write!(f, "server rejected request: {status}: {}", body.trim())
            }
            ClientError::Job { line } => write!(f, "job failed: {}", line.trim()),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

/// Exponential backoff with deterministic jitter: doubles from
/// `backoff_base` up to `backoff_cap`, scaled by a factor in
/// `[0.5, 1.0)` hashed from `(jitter_seed, attempt)` — reproducible
/// schedules for tests, no thundering herd in fleets.
fn backoff_delay(cfg: &ClientConfig, attempt: u32) -> Duration {
    let exp = cfg
        .backoff_base
        .saturating_mul(1u32 << attempt.min(16))
        .min(cfg.backoff_cap);
    let h = splitmix64(cfg.jitter_seed ^ u64::from(attempt));
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
    exp.mul_f64(0.5 + 0.5 * frac)
}

/// Builds the raw `POST /decompose` request bytes for `req`, pinning
/// `job_id` so a re-POST after a disconnect is idempotent.
fn post_request(req: &SubmitRequest, job_id: Option<&str>) -> Vec<u8> {
    let mut query_pairs: Vec<String> = Vec::new();
    if let Some(s) = req.seed {
        query_pairs.push(format!("seed={s}"));
    }
    if let Some(t) = req.time_limit_ms {
        query_pairs.push(format!("time_limit_ms={t}"));
    }
    if let Some(id) = job_id {
        query_pairs.push(format!("job_id={id}"));
    }
    match &req.body {
        SubmitBody::Circuit(name) => {
            let fields = [
                Some(("circuit", Value::from(name.as_str()))),
                req.seed.map(|s| ("seed", Value::from(s))),
                req.time_limit_ms.map(|t| ("time_limit_ms", Value::from(t))),
                job_id.map(|id| ("job_id", Value::from(id))),
            ];
            let body = Value::obj(fields.into_iter().flatten()).to_string();
            format!(
                "POST /decompose HTTP/1.1\r\nHost: mpld\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        }
        SubmitBody::Upload(text) => {
            let query = if query_pairs.is_empty() {
                String::new()
            } else {
                format!("?{}", query_pairs.join("&"))
            };
            let mut raw = format!(
                "POST /decompose{query} HTTP/1.1\r\nHost: mpld\r\nContent-Length: {}\r\n\r\n",
                text.len()
            )
            .into_bytes();
            raw.extend_from_slice(text.as_bytes());
            raw
        }
    }
}

/// Opens a connection and returns a reader after sending `raw`.
fn open_and_send(cfg: &ClientConfig, raw: &[u8]) -> std::io::Result<BufReader<TcpStream>> {
    let addr = cfg
        .addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other(format!("unresolvable address {:?}", cfg.addr)))?;
    let mut stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)?;
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    stream.set_write_timeout(Some(cfg.read_timeout))?;
    stream.write_all(raw)?;
    stream.flush()?;
    Ok(BufReader::new(stream))
}

/// Reads the status line and headers; returns the status line (e.g.
/// `200 OK`).
fn read_status(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before status line",
        ));
    }
    let status = status_line
        .trim_end()
        .strip_prefix("HTTP/1.1 ")
        .unwrap_or(status_line.trim_end())
        .to_string();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
            break;
        }
    }
    Ok(status)
}

fn read_body_capped(reader: &mut BufReader<TcpStream>) -> String {
    let mut body = String::new();
    let _ = reader.take(64 << 10).read_to_string(&mut body);
    body
}

/// A streamed line's `event` name and top-level `id`, if it is a JSON
/// event at all.
fn event_and_id(line: &str) -> Option<(String, Option<String>)> {
    let v = json::parse(line)?;
    let event = v.get("event")?.as_str()?.to_string();
    Some((
        event,
        v.get("id").and_then(Value::as_str).map(str::to_string),
    ))
}

/// What one connection attempt produced.
enum Attempt {
    Done(String),
    JobFailed(String),
    Busy,
    AttachMiss,
    Fatal { status: String, body: String },
    Dropped(String),
}

/// Streams one response, feeding events to `on_event` and tracking the
/// acknowledged job id in `job_id`.
fn stream_events(
    reader: &mut BufReader<TcpStream>,
    job_id: &mut Option<String>,
    events: &mut usize,
    on_event: &mut dyn FnMut(&str),
) -> Attempt {
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Attempt::Dropped("stream ended before done event".to_string()),
            Ok(_) => {}
            Err(e) => return Attempt::Dropped(format!("stream read failed: {e}")),
        }
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        *events += 1;
        on_event(line);
        match event_and_id(line) {
            Some((event, Some(id))) if event == "job" => *job_id = Some(id),
            Some((event, _)) if event == "done" => return Attempt::Done(line.to_string()),
            Some((event, _)) if event == "error" => return Attempt::JobFailed(line.to_string()),
            _ => {}
        }
    }
}

/// Submits `req` and drives it to completion with retries (module docs).
///
/// `on_event` sees every streamed NDJSON line, including replays after a
/// reattach.
///
/// # Errors
///
/// [`ClientError::Rejected`] on a non-retryable HTTP status,
/// [`ClientError::Job`] when the server streams an `error` event, and
/// [`ClientError::Exhausted`] when `max_attempts` connections fail.
pub fn submit(
    cfg: &ClientConfig,
    req: &SubmitRequest,
    on_event: &mut dyn FnMut(&str),
) -> Result<SubmitOutcome, ClientError> {
    let mut job_id: Option<String> = req.job_id.clone();
    // Only reattach once the server has acknowledged the id (the `job`
    // event): a 404 on an unacknowledged id would just waste an attempt.
    let mut acknowledged = false;
    let mut attempts = 0u32;
    let mut reattaches = 0u32;
    let mut busy_retries = 0u32;
    let mut events = 0usize;
    let mut last = String::from("no attempt made");

    while attempts < cfg.max_attempts.max(1) {
        attempts += 1;
        let attach_id = job_id.clone().filter(|_| acknowledged);
        let raw = match &attach_id {
            Some(id) => {
                reattaches += 1;
                format!("GET /jobs/{id} HTTP/1.1\r\nHost: mpld\r\n\r\n").into_bytes()
            }
            None => post_request(req, job_id.as_deref()),
        };

        let outcome = match open_and_send(cfg, &raw) {
            Err(e) => Attempt::Dropped(format!("connect/send failed: {e}")),
            Ok(mut reader) => match read_status(&mut reader) {
                Err(e) => Attempt::Dropped(format!("no response: {e}")),
                Ok(status) if status.starts_with("200") => {
                    let before = events;
                    let a = stream_events(&mut reader, &mut job_id, &mut events, on_event);
                    if events > before {
                        acknowledged = acknowledged || job_id.is_some();
                    }
                    a
                }
                Ok(status) if status.starts_with("429") => Attempt::Busy,
                Ok(status) if status.starts_with("404") && attach_id.is_some() => {
                    Attempt::AttachMiss
                }
                Ok(status) => Attempt::Fatal {
                    body: read_body_capped(&mut reader),
                    status,
                },
            },
        };

        match outcome {
            Attempt::Done(done_line) => {
                return Ok(SubmitOutcome {
                    job_id: job_id.unwrap_or_default(),
                    done_line,
                    events,
                    attempts,
                    reattaches,
                    busy_retries,
                })
            }
            Attempt::JobFailed(line) => return Err(ClientError::Job { line }),
            Attempt::Fatal { status, body } => return Err(ClientError::Rejected { status, body }),
            Attempt::Busy => {
                busy_retries += 1;
                last = "429 queue full".to_string();
                std::thread::sleep(backoff_delay(cfg, attempts));
            }
            Attempt::AttachMiss => {
                // The server no longer remembers the job (restart or
                // eviction): fall back to an idempotent re-POST with the
                // same id, which resumes from the journal if one exists.
                acknowledged = false;
                last = format!("job {job_id:?} unknown to server; re-posting");
            }
            Attempt::Dropped(reason) => {
                last = reason;
                std::thread::sleep(backoff_delay(cfg, attempts));
            }
        }
    }
    Err(ClientError::Exhausted { attempts, last })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_is_capped_and_jittered() {
        let cfg = ClientConfig {
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
            ..ClientConfig::default()
        };
        let d1 = backoff_delay(&cfg, 1);
        let d5 = backoff_delay(&cfg, 5);
        let d16 = backoff_delay(&cfg, 16);
        // Jitter scales into [0.5, 1.0) of the exponential value.
        assert!(d1 >= Duration::from_millis(100) && d1 < Duration::from_millis(200));
        assert!(d5 > d1);
        assert!(d16 <= Duration::from_secs(2), "capped");
        assert_eq!(
            backoff_delay(&cfg, 3),
            backoff_delay(&cfg, 3),
            "deterministic"
        );
    }

    #[test]
    fn post_request_pins_job_id_and_params() {
        let req = SubmitRequest {
            body: SubmitBody::Circuit("C432".to_string()),
            seed: Some(7),
            time_limit_ms: Some(500),
            job_id: None,
        };
        let raw = String::from_utf8(post_request(&req, Some("jid"))).expect("utf8");
        assert!(raw.contains("\"circuit\":\"C432\""));
        assert!(raw.contains("\"seed\":7"));
        assert!(raw.contains("\"time_limit_ms\":500"));
        assert!(raw.contains("\"job_id\":\"jid\""));

        let req = SubmitRequest {
            body: SubmitBody::Upload("layout demo 100\n".to_string()),
            seed: Some(7),
            time_limit_ms: None,
            job_id: None,
        };
        let raw = String::from_utf8(post_request(&req, Some("u1"))).expect("utf8");
        assert!(raw.starts_with("POST /decompose?seed=7&job_id=u1 "));
        assert!(raw.ends_with("layout demo 100\n"));

        // Any circuit name survives the trip: the body is codec-built
        // JSON, not Rust debug formatting.
        let name = "we\"ird\\\u{1}é\u{7f}";
        let req = SubmitRequest {
            body: SubmitBody::Circuit(name.to_string()),
            seed: None,
            time_limit_ms: None,
            job_id: None,
        };
        let raw = String::from_utf8(post_request(&req, None)).expect("utf8");
        let body = raw.split_once("\r\n\r\n").expect("head").1;
        let v = json::parse(body).expect("body is JSON");
        assert_eq!(v.get("circuit").and_then(Value::as_str), Some(name));
    }

    #[test]
    fn job_event_id_extracts() {
        let job = |id: Option<&str>| Some(("job".to_string(), id.map(str::to_string)));
        assert_eq!(
            event_and_id("{\"event\":\"job\",\"id\":\"j01\",\"journal\":true}"),
            job(Some("j01"))
        );
        assert_eq!(event_and_id("{\"event\":\"job\"}"), job(None));
        // Escapes decode; a nested "id" is not the job's.
        assert_eq!(
            event_and_id(r#"{"event":"job","meta":{"id":"x"},"id":"a\"b"}"#),
            job(Some("a\"b"))
        );
        assert_eq!(
            event_and_id(r#"{"meta":{"id":"x"},"event":"job"}"#),
            job(None)
        );
        assert_eq!(
            event_and_id(r#"{"job":"j","event":"done"}"#),
            Some(("done".to_string(), None))
        );
        assert_eq!(event_and_id("{\"event\":\"job\""), None);
    }
}
