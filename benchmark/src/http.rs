//! A blocking HTTP/1.1 client that notes when each stage of a request
//! ended. The server answers one request per connection and closes it,
//! so a request is: connect, write, read to the end.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// When the client began to connect.
    pub started: Instant,
    pub connected: Instant,
    pub first_byte: Instant,
    pub ended: Instant,
}

impl Reply {
    /// The body as JSON, when the status is 200 and it parses.
    pub fn json(&self) -> Option<serde_json::Value> {
        (self.status == 200)
            .then(|| serde_json::from_str(&self.body).ok())
            .flatten()
    }
}

pub fn get(addr: SocketAddr, path: &str) -> Result<Reply, String> {
    request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"),
    )
}

pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> Result<Reply, String> {
    request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn request(addr: SocketAddr, raw: &str) -> Result<Reply, String> {
    let started = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let connected = Instant::now();
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| format!("write to {addr} failed: {e}"))?;

    let mut buf = vec![0u8; 4096];
    let n = stream
        .read(&mut buf)
        .map_err(|e| format!("read from {addr} failed: {e}"))?;
    let first_byte = Instant::now();
    buf.truncate(n);
    stream
        .read_to_end(&mut buf)
        .map_err(|e| format!("read from {addr} failed: {e}"))?;
    let ended = Instant::now();

    let text = String::from_utf8_lossy(&buf);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("response has no header/body separator: {text:?}"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok(Reply {
        status,
        body: body.to_owned(),
        started,
        connected,
        first_byte,
        ended,
    })
}
