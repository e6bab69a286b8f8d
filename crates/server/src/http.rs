//! Bounded HTTP/1.1 request parsing for the handful of routes the
//! server owns.
//!
//! Every read is capped *before* it happens: the request line and each
//! header line are read through a byte-limited `take`, the header count
//! is bounded, and a `Content-Length` larger than the body cap is
//! rejected without allocating or reading the body. A hostile client can
//! therefore never force an unbounded read or allocation — malformed or
//! oversized requests get a fast typed status (400/411/413/431) and the
//! connection is closed.

use crate::error_json;
use std::io::BufRead;

/// Hard caps applied while parsing one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Longest accepted request line (method + path + version), bytes.
    pub max_request_line_bytes: usize,
    /// Longest accepted single header line, bytes.
    pub max_header_line_bytes: usize,
    /// Most headers accepted on one request.
    pub max_headers: usize,
    /// Largest accepted request body, bytes (checked against
    /// `Content-Length` before any body byte is read).
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self {
            max_request_line_bytes: 8 << 10,
            max_header_line_bytes: 8 << 10,
            max_headers: 64,
            max_body_bytes: 2 << 20,
        }
    }
}

/// Typed request-rejection outcome: maps one-to-one onto the HTTP status
/// the connection is answered with before being closed.
#[derive(Debug)]
pub enum HttpError {
    /// `400 Bad Request` — syntactically broken request.
    Malformed(String),
    /// `411 Length Required` — body-bearing request without a
    /// `Content-Length` (chunked encoding is not supported).
    LengthRequired,
    /// `413 Content Too Large` — declared body exceeds the cap.
    BodyTooLarge { declared: usize, limit: usize },
    /// `431 Request Header Fields Too Large` — request line, a header
    /// line, or the header count exceeds its cap.
    TooLarge(&'static str),
    /// Transport failure mid-request (no response is owed).
    Io(std::io::Error),
}

impl HttpError {
    /// The HTTP status line this rejection is answered with (`None` for
    /// transport failures, which get no response).
    pub fn status(&self) -> Option<&'static str> {
        match self {
            HttpError::Malformed(_) => Some("400 Bad Request"),
            HttpError::LengthRequired => Some("411 Length Required"),
            HttpError::BodyTooLarge { .. } => Some("413 Content Too Large"),
            HttpError::TooLarge(_) => Some("431 Request Header Fields Too Large"),
            HttpError::Io(_) => None,
        }
    }

    /// One-line JSON error body describing the rejection.
    pub fn body(&self) -> String {
        match self {
            HttpError::Malformed(m) => error_json("bad request", [("reason", m.as_str().into())]),
            HttpError::LengthRequired => error_json("content-length required", []),
            HttpError::BodyTooLarge { declared, limit } => error_json(
                "body too large",
                [("declared", (*declared).into()), ("limit", (*limit).into())],
            ),
            HttpError::TooLarge(what) => {
                error_json("request too large", [("what", (*what).into())])
            }
            HttpError::Io(e) => error_json("i/o", [("reason", e.to_string().into())]),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// One parsed request: start line, query, and (for POST) the body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string (without the `?`), empty when absent.
    pub query: String,
    /// Body bytes (empty for bodyless methods).
    pub body: Vec<u8>,
}

impl Request {
    /// The first `key=value` query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Reads one line (up to `\n`) of at most `cap` bytes; longer lines are
/// a [`HttpError::TooLarge`] attributed to `what`, not an unbounded read.
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    cap: usize,
    what: &'static str,
) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    let n =
        std::io::Read::take(reader, cap.saturating_add(1) as u64).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.len() > cap && !buf.ends_with(b"\n") {
        return Err(HttpError::TooLarge(what));
    }
    let line = String::from_utf8_lossy(&buf);
    Ok(Some(line.trim_end_matches(['\n', '\r']).to_string()))
}

/// Reads and validates one request under `limits` (see module docs).
///
/// # Errors
///
/// A typed [`HttpError`] naming the status the connection should be
/// answered with before closing.
pub fn read_request<R: BufRead>(reader: &mut R, limits: &HttpLimits) -> Result<Request, HttpError> {
    let request_line = read_line_capped(reader, limits.max_request_line_bytes, "request line")?
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(HttpError::Malformed(format!(
            "not an HTTP/1.x request line: {request_line:?}"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length: Option<usize> = None;
    let mut headers = 0usize;
    loop {
        let line = read_line_capped(reader, limits.max_header_line_bytes, "header line")?
            .ok_or_else(|| HttpError::Malformed("truncated headers".into()))?;
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > limits.max_headers {
            return Err(HttpError::TooLarge("header count"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("malformed header {line:?}")));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed(format!("bad content-length {value:?}")))?,
            );
        }
    }

    let body = if method == "POST" || method == "PUT" {
        let declared = content_length.ok_or(HttpError::LengthRequired)?;
        if declared > limits.max_body_bytes {
            // Rejected before reading or allocating a single body byte.
            return Err(HttpError::BodyTooLarge {
                declared,
                limit: limits.max_body_bytes,
            });
        }
        let mut body = vec![0u8; declared];
        std::io::Read::read_exact(reader, &mut body)?;
        body
    } else {
        Vec::new()
    };

    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw), &HttpLimits::default())
    }

    #[test]
    fn well_formed_requests_parse() {
        let r = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").expect("parses");
        assert_eq!((r.method.as_str(), r.path.as_str()), ("GET", "/healthz"));
        let r = parse(b"POST /decompose?seed=7&job_id=a HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody")
            .expect("parses");
        assert_eq!(r.body, b"body");
        assert_eq!(r.query_param("seed"), Some("7"));
        assert_eq!(r.query_param("job_id"), Some("a"));
        assert_eq!(r.query_param("missing"), None);
    }

    #[test]
    fn oversized_request_line_is_431() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 64 << 10));
        let err = parse(&raw).expect_err("rejected");
        assert!(
            matches!(err, HttpError::TooLarge("request line")),
            "{err:?}"
        );
        assert_eq!(err.status(), Some("431 Request Header Fields Too Large"));
    }

    #[test]
    fn oversized_header_and_header_flood_are_431() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 64 << 10));
        assert!(matches!(
            parse(&raw).expect_err("rejected"),
            HttpError::TooLarge("header line")
        ));
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..1000 {
            raw.extend(format!("X-{i}: v\r\n").into_bytes());
        }
        raw.extend(b"\r\n");
        assert!(matches!(
            parse(&raw).expect_err("rejected"),
            HttpError::TooLarge("header count")
        ));
    }

    #[test]
    fn oversized_body_is_413_without_reading_it() {
        // Declared 1 GiB with no actual body bytes behind it: must reject
        // on the declaration alone.
        let raw = b"POST /decompose HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n";
        let err = parse(raw).expect_err("rejected");
        assert!(matches!(err, HttpError::BodyTooLarge { .. }), "{err:?}");
        assert_eq!(err.status(), Some("413 Content Too Large"));
    }

    #[test]
    fn missing_length_and_garbage_are_typed() {
        assert!(matches!(
            parse(b"POST /decompose HTTP/1.1\r\n\r\n").expect_err("rejected"),
            HttpError::LengthRequired
        ));
        assert!(matches!(
            parse(b"\x00\x01\x02\r\n\r\n").expect_err("rejected"),
            HttpError::Malformed(_)
        ));
        assert!(matches!(
            parse(b"GET /x NOTHTTP\r\n\r\n").expect_err("rejected"),
            HttpError::Malformed(_)
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n").expect_err("rejected"),
            HttpError::Malformed(_)
        ));
    }
}
