//! A minimal blocking HTTP client for the v1 API — used by `serve_load`,
//! the integration tests, and anyone scripting against the daemon from
//! Rust without pulling in an HTTP dependency.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ipsim_obs::json::{self, Json};

/// One response: status code and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body bytes as UTF-8.
    pub body: String,
}

impl Response {
    /// Parses the body as JSON.
    pub fn json(&self) -> Result<Json, String> {
        json::parse(&self.body).map_err(|e| format!("bad JSON body: {e}"))
    }
}

/// Performs one request against `addr` (e.g. `127.0.0.1:7791`).
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> Result<Response, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let mut stream = stream;

    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if let Some(body) = body {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.unwrap_or("").as_bytes()))
        .map_err(|e| format!("send: {e}"))?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status: {e}"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line `{}`", status_line.trim_end()))?;
    // Headers (only Content-Length matters; the server always closes).
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read headers: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader
                .read_exact(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
        }
        None => {
            reader
                .read_to_end(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
        }
    }
    Ok(Response {
        status,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// `POST /v1/jobs` with a JSON spec body.
pub fn submit_json(addr: &str, spec_json: &str) -> Result<Response, String> {
    request(
        addr,
        "POST",
        "/v1/jobs",
        &[("Content-Type", "application/json")],
        Some(spec_json),
    )
}

/// Polls `GET /v1/jobs/{id}` until the job is terminal; returns the final
/// state string (`done` / `failed`).
pub fn wait_terminal(addr: &str, id: &str, timeout: Duration) -> Result<String, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let response = request(addr, "GET", &format!("/v1/jobs/{id}"), &[], None)?;
        if response.status != 200 {
            return Err(format!(
                "job {id}: HTTP {} {}",
                response.status, response.body
            ));
        }
        let state = response
            .json()?
            .get("state")
            .and_then(Json::as_str)
            .ok_or("status body missing `state`")?
            .to_string();
        if state == "done" || state == "failed" {
            return Ok(state);
        }
        if Instant::now() > deadline {
            return Err(format!("job {id}: still `{state}` after {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
