//! A deliberately small HTTP/1.1 implementation — just enough protocol
//! for a JSON job API over `std::net`, consistent with the workspace's
//! vendored-only dependency policy.
//!
//! Supported: request line + headers + `Content-Length` bodies, bounded
//! sizes, `Connection: close` responses. Not supported (and not needed):
//! chunked transfer, keep-alive, TLS, multipart. Every connection carries
//! one request and is closed after the response — `serve_load` measures
//! this full open→respond→close cycle, which is the honest unit of cost
//! for a poll-style client.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use ipsim_obs::json;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body; a job spec at [`MAX_RUNS_PER_JOB`] runs
/// is far below this.
///
/// [`MAX_RUNS_PER_JOB`]: ipsim_harness::wire::MAX_RUNS_PER_JOB
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path with any `?query` suffix stripped.
    pub path: String,
    /// The raw query string (empty when absent).
    pub query: String,
    /// Headers, keys lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when there was none).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header (case-insensitive name).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or an error message.
    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "body is not valid UTF-8".to_string())
    }
}

/// Why a request could not be parsed; maps onto a response status.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed request line or headers → 400.
    Bad(String),
    /// Head or body over the size bounds → 413.
    TooLarge(String),
    /// I/O error or premature close; no response possible.
    Io(String),
}

/// Reads one request from the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ParseError> {
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    // Request line.
    read_line_bounded(&mut reader, &mut head)?;
    let mut parts = head.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Bad("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Bad("request line has no target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Bad("request line has no version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("unsupported version {version}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), query.to_string()),
        None => (target.to_string(), String::new()),
    };

    // Headers.
    let mut headers = Vec::new();
    let mut head_bytes = head.len();
    loop {
        let mut line = String::new();
        read_line_bounded(&mut reader, &mut line)?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        head_bytes += line.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ParseError::TooLarge("request head too large".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Bad(format!("malformed header `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body, if Content-Length says so.
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ParseError::Bad(format!("bad Content-Length `{v}`")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| ParseError::Io(format!("reading body: {e}")))?;

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// Reads one CRLF-terminated line, bounding its length.
fn read_line_bounded<R: BufRead>(reader: &mut R, out: &mut String) -> Result<(), ParseError> {
    let mut taken = reader.take(MAX_HEAD_BYTES as u64 + 1);
    match taken.read_line(out) {
        Ok(0) => Err(ParseError::Io("connection closed mid-request".into())),
        Ok(n) if n > MAX_HEAD_BYTES => Err(ParseError::TooLarge("request line too long".into())),
        Ok(_) => Ok(()),
        Err(e) => Err(ParseError::Io(format!("reading request: {e}"))),
    }
}

/// Writes one response and flushes. `content_type` defaults to JSON.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let reason = reason_phrase(status);
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The standard reason phrase for the statuses this server emits.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// A `{"error": "..."}` body.
pub fn error_body(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json::escape(message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Round-trips one request through a real socket pair.
    fn parse_via_socket(raw: &[u8]) -> Result<Request, ParseError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_via_socket(
            b"POST /v1/jobs?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 4\r\n\
              X-Client-Id: c9\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.header("x-client-id"), Some("c9"));
        assert_eq!(req.header("X-Client-Id"), Some("c9"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse_via_socket(b"GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(
            parse_via_socket(b"NOT-HTTP\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse_via_socket(b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            Err(ParseError::TooLarge(_))
        ));
        assert!(matches!(
            parse_via_socket(b"GET / HTTP/2\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
    }
}
