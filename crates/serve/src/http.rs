//! Minimal HTTP/1.1 framing over `std::io` streams.
//!
//! Implements exactly the subset the planning service and its load
//! generator need: request/response lines, headers, `Content-Length`
//! bodies and keep-alive. No chunked transfer encoding (a request with
//! `Transfer-Encoding` is rejected with 411), no TLS, no HTTP/2 — this is
//! a service for trusted infrastructure, not the open internet, and the
//! framing layer is deliberately small enough to audit in one sitting.
//!
//! Hard limits ([`MAX_HEAD_BYTES`], [`MAX_BODY_BYTES`]) bound the memory
//! any single connection can pin, so a malformed or hostile peer cannot
//! balloon the server; [`MAX_RESPONSE_BODY_BYTES`] bounds what the client
//! half reads back.

use std::io::{BufRead, Write};
use std::sync::Arc;

/// Largest accepted request/status line + headers block, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Largest response body the client half ([`read_response`]) accepts,
/// bytes. Responses are much larger than requests: a plan lists every
/// target once per mule at ≈ 110 bytes per pretty-printed waypoint, so one
/// cycle of [`MAX_SPEC_TARGETS`](crate::api::MAX_SPEC_TARGETS) (50 000)
/// targets is ≈ 5.5 MB, and 64 MiB holds a plan of that size for up to
/// 12 mules (the paper's fleets have at most 10).
pub const MAX_RESPONSE_BODY_BYTES: usize = 64 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path; query strings are not split off).
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to keep the connection open (HTTP/1.1
    /// default) or to close it.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending a (complete)
    /// request. A clean EOF before the first byte is *not* an error —
    /// [`read_request`] returns `Ok(None)` for that.
    Closed,
    /// Request line or headers are malformed (maps to 400).
    BadRequest(String),
    /// Head or body exceeds the hard limits (maps to 431/413).
    TooLarge(&'static str),
    /// The request needs a length we do not implement (maps to 411).
    LengthRequired,
    /// The underlying transport failed (including read timeouts).
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed mid-request"),
            HttpError::BadRequest(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TooLarge(what) => write!(f, "{what} too large"),
            HttpError::LengthRequired => write!(f, "length required"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one line terminated by `\n` (tolerating a trailing `\r`),
/// bounding the total bytes consumed. Returns `None` on EOF before any
/// byte.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Closed);
            }
            Ok(_) => {
                if *budget == 0 {
                    return Err(HttpError::TooLarge("request head"));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line)
                        .map_err(|_| HttpError::BadRequest("non-UTF-8 header line".into()))?;
                    return Ok(Some(text));
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Reads one request from the stream. `Ok(None)` means the peer closed
/// the connection cleanly between requests (normal keep-alive shutdown).
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = match read_line(reader, &mut budget)? {
        None => return Ok(None),
        Some(line) => line,
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
        _ => return Err(HttpError::BadRequest("bad request line".into())),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest("unsupported HTTP version".into()));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut budget)?.ok_or(HttpError::Closed)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest("header without colon".into()))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };

    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::LengthRequired);
    }
    if let Some(len_text) = request.header("content-length") {
        let len: usize = len_text
            .parse()
            .map_err(|_| HttpError::BadRequest("bad content-length".into()))?;
        if len > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge("request body"));
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                HttpError::Closed
            } else {
                HttpError::Io(e)
            }
        })?;
        request.body = body;
    }
    Ok(Some(request))
}

/// An HTTP response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length`, `Content-Type` and `Connection`
    /// are emitted automatically).
    pub headers: Vec<(String, String)>,
    /// Body bytes, shared so a cached plan is written out without a copy.
    pub body: Arc<Vec<u8>>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response::json_shared(status, Arc::new(body.into()))
    }

    /// A JSON response over bytes shared with their owner (the plan
    /// cache), without copying them.
    pub fn json_shared(status: u16, body: Arc<Vec<u8>>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body,
        }
    }

    /// A response with an explicit `Content-Type` (suppresses the default
    /// `application/json`). Used by the Prometheus `/metrics` endpoint.
    pub fn text(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".to_string(), content_type.to_string())],
            body: Arc::new(body.into()),
        }
    }

    /// A JSON error document `{"error": …}` with the given status.
    pub fn error(status: u16, message: &str) -> Self {
        let doc = crate::json::JsonValue::object(vec![
            ("error", crate::json::JsonValue::from(message)),
            ("status", crate::json::JsonValue::from(u64::from(status))),
        ]);
        Response::json(status, doc.to_pretty_string())
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serialises the response to the wire, flushing at the end.
    /// `keep_alive` controls the emitted `Connection` header.
    pub fn write_to(&self, writer: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            status_reason(self.status)
        );
        let has_content_type = self
            .headers
            .iter()
            .any(|(name, _)| name.eq_ignore_ascii_case("content-type"));
        if !has_content_type {
            head.push_str("Content-Type: application/json\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n"
        } else {
            "Connection: close\r\n"
        });
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// Reason phrase for the status codes this service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A response read back by a client: status, headers (lower-cased names)
/// and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response from the stream (the client half of the protocol,
/// used by `loadgen` and the tests).
pub fn read_response(reader: &mut impl BufRead) -> Result<ClientResponse, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let status_line = read_line(reader, &mut budget)?.ok_or(HttpError::Closed)?;
    let mut parts = status_line.split_whitespace();
    let (version, status) = (parts.next(), parts.next());
    if !version.is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(HttpError::BadRequest("bad status line".into()));
    }
    let status: u16 = status
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::BadRequest("bad status code".into()))?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut budget)?.ok_or(HttpError::Closed)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let response = ClientResponse {
        status,
        headers,
        body: Vec::new(),
    };
    let len: usize = response
        .header("content-length")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if len > MAX_RESPONSE_BODY_BYTES {
        return Err(HttpError::TooLarge("response body"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;
    Ok(ClientResponse { body, ..response })
}

/// Writes a request (the client half), flushing at the end.
pub fn write_request(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: mule-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse_bytes(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn a_full_post_request_parses() {
        let raw = b"POST /v1/plan HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let req = parse_bytes(raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/plan");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn bare_lf_lines_and_connection_close_are_honoured() {
        let raw = b"GET /healthz HTTP/1.1\nConnection: CLOSE\n\n";
        let req = parse_bytes(raw).unwrap().unwrap();
        assert_eq!(req.path, "/healthz");
        assert!(!req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none_and_truncation_is_closed() {
        assert!(parse_bytes(b"").unwrap().is_none());
        assert!(matches!(
            parse_bytes(b"GET / HTTP/1.1\r\nHost"),
            Err(HttpError::Closed)
        ));
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(matches!(
            parse_bytes(b"GARBAGE\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_bytes(b"GET / SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_bytes(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::LengthRequired)
        ));
    }

    #[test]
    fn oversized_heads_and_bodies_are_bounded() {
        let mut huge = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
        huge.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert!(matches!(
            parse_bytes(&huge),
            Err(HttpError::TooLarge("request head"))
        ));
        let big_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_bytes(big_body.as_bytes()),
            Err(HttpError::TooLarge("request body"))
        ));
        let big_response = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_RESPONSE_BODY_BYTES + 1
        );
        assert!(matches!(
            read_response(&mut BufReader::new(big_response.as_bytes())),
            Err(HttpError::TooLarge("response body"))
        ));
    }

    #[test]
    fn responses_roundtrip_through_the_client_reader() {
        let response = Response::json(200, "{\"ok\":true}")
            .with_header("X-Cache", "hit")
            .with_header("Retry-After", "1");
        let mut wire = Vec::new();
        response.write_to(&mut wire, true).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));

        let back = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(back.header("x-cache"), Some("hit"));
        assert_eq!(back.header("retry-after"), Some("1"));
        assert_eq!(back.body_text(), "{\"ok\":true}");
    }

    #[test]
    fn error_responses_carry_a_json_document() {
        let response = Response::error(422, "no mules");
        assert_eq!(response.status, 422);
        let text = String::from_utf8(response.body.to_vec()).unwrap();
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("error").and_then(crate::json::JsonValue::as_str),
            Some("no mules")
        );
        assert_eq!(
            doc.get("status").and_then(crate::json::JsonValue::as_u64),
            Some(422)
        );
    }

    #[test]
    fn request_writer_produces_parseable_requests() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/v1/plan", b"{\"targets\":5}").unwrap();
        let req = parse_bytes(&wire).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/plan");
        assert_eq!(req.body, b"{\"targets\":5}");
    }

    #[test]
    fn status_reasons_cover_the_emitted_codes() {
        for code in [200, 400, 404, 405, 411, 413, 422, 431, 500, 503, 504] {
            assert_ne!(status_reason(code), "Unknown", "{code}");
        }
        assert_eq!(status_reason(599), "Unknown");
    }
}
