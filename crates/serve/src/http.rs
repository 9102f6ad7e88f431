//! A minimal HTTP/1.1 subset on `std::net::TcpStream` — just enough for
//! the serving endpoints: request line + headers + `Content-Length`
//! body in, status + JSON/text body out, `Connection: close` on every
//! response. No chunked encoding, no keep-alive, no TLS; a reverse
//! proxy in front is the expected production posture (ROADMAP north
//! star), this layer is the engine-side contract.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers). Anything
/// larger is a 431-class client error, not a buffering exercise.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string, percent-decoded per segment is
    /// *not* applied (relation names are plain identifiers).
    pub path: String,
    /// Decoded `key=value` pairs from the query string.
    pub query: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be served; maps onto an HTTP status.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line/headers/body framing → 400.
    BadRequest(String),
    /// Body longer than the server's limit → 413.
    TooLarge(usize),
    /// The client did not deliver its request within the read deadline
    /// (slow-loris or a stalled sender) → 408.
    Timeout,
    /// Socket-level failure other than a timeout — connection is
    /// dropped without a response body worth sending.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::TooLarge(n) => write!(f, "request body of {n} bytes exceeds the limit"),
            HttpError::Timeout => write!(f, "client did not deliver the request in time"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        // A read deadline on the socket surfaces as WouldBlock (most
        // Unixes) or TimedOut; both mean the *client* was too slow.
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        }
    }
}

/// Decodes `%XX` escapes and `+`-as-space in a query component.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    // Malformed escape: keep the literal bytes.
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a raw query string into decoded pairs.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// Reads and parses one request from the stream. `max_body` bounds the
/// `Content-Length` the server will buffer.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    // Read until the blank line terminating the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut head_end = None;
    let mut chunk = [0u8; 1024];
    while head_end.is_none() {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest("request head too large".into()));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::BadRequest("connection closed mid-request".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
        head_end = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
    }
    let head_end = head_end.unwrap();
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_owned();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("request line has no target".into()))?;
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(HttpError::BadRequest("not an HTTP/1.x request".into()));
    }

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::BadRequest("bad Content-Length".into()))?;
            }
        }
    }
    if content_length > max_body {
        return Err(HttpError::TooLarge(content_length));
    }

    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::BadRequest("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q),
        None => (target.to_owned(), ""),
    };
    Ok(Request { method, path, query: parse_query(raw_query), body })
}

/// One response, written with `Connection: close` framing.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Emits a `Retry-After: <seconds>` header — set on 503s for
    /// transient conditions (a shed request, an exhausted lazy query
    /// budget) so well-behaved clients back off instead of hammering.
    pub retry_after: Option<u64>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(status, format!("{{\"error\":{}}}", json_string(message)))
    }

    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let retry = match self.retry_after {
            Some(secs) => format!("Retry-After: {secs}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            retry,
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Renders a string as a JSON string literal (quotes + escapes).
pub fn json_string(s: &str) -> String {
    serde_json::Value::String(s.to_owned()).to_json_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parsing_decodes_escapes() {
        let q = parse_query("args=1&name=a%20b&flag&plus=x+y");
        assert_eq!(q[0], ("args".to_owned(), "1".to_owned()));
        assert_eq!(q[1], ("name".to_owned(), "a b".to_owned()));
        assert_eq!(q[2], ("flag".to_owned(), String::new()));
        assert_eq!(q[3], ("plus".to_owned(), "x y".to_owned()));
    }

    #[test]
    fn percent_decode_tolerates_malformed_escapes() {
        assert_eq!(percent_decode("%"), "%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%41"), "A");
    }

    #[test]
    fn json_string_escapes_quotes() {
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }

    use std::net::TcpListener;
    use std::time::Duration;

    /// A connected (server, client) socket pair on loopback.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (server, client)
    }

    /// The status line [`handle_connection`](crate::server) would write
    /// for this read_request error (408 for timeouts, 413 for oversize).
    fn status_for(err: &HttpError) -> u16 {
        match err {
            HttpError::BadRequest(_) => 400,
            HttpError::Timeout => 408,
            HttpError::TooLarge(_) => 413,
            HttpError::Io(_) => 0,
        }
    }

    #[test]
    fn slow_loris_times_out_as_408() {
        let (mut server, mut client) = socket_pair();
        server.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        // A partial request head, then silence: the classic slow-loris.
        client.write_all(b"GET /healthz HT").unwrap();
        client.flush().unwrap();
        let err = read_request(&mut server, 1024).expect_err("must not hang");
        assert!(matches!(err, HttpError::Timeout), "got {err:?}");
        assert_eq!(status_for(&err), 408);
    }

    #[test]
    fn oversized_body_is_rejected_as_413_without_buffering() {
        let (mut server, mut client) = socket_pair();
        server.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        // Content-Length over the limit: rejected from the header alone,
        // before any body bytes arrive.
        client
            .write_all(b"POST /v1/evidence HTTP/1.1\r\nContent-Length: 4096\r\n\r\n")
            .unwrap();
        client.flush().unwrap();
        let err = read_request(&mut server, 1024).expect_err("oversized body must be refused");
        assert!(matches!(err, HttpError::TooLarge(4096)), "got {err:?}");
        assert_eq!(status_for(&err), 413);
    }

    #[test]
    fn well_formed_request_still_parses_under_the_same_deadline() {
        let (mut server, mut client) = socket_pair();
        server.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        client
            .write_all(b"POST /v1/query?x=1 HTTP/1.1\r\nContent-Length: 2\r\n\r\nok")
            .unwrap();
        client.flush().unwrap();
        let req = read_request(&mut server, 1024).expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/query");
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn retry_after_header_is_emitted_on_demand() {
        let (mut server, mut client) = socket_pair();
        client.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        Response::error(503, "query budget exhausted")
            .with_retry_after(5)
            .write_to(&mut server)
            .unwrap();
        drop(server);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("\r\nRetry-After: 5\r\n"), "{text}");
        assert!(text.contains("query budget exhausted"), "{text}");

        // And stays absent when not requested.
        let (mut server, mut client) = socket_pair();
        client.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        Response::error(404, "nope").write_to(&mut server).unwrap();
        drop(server);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert!(!text.contains("Retry-After"), "{text}");
    }
}
