//! A keep-alive HTTP/1.1 client that keeps every response body, so
//! each reply can be checked against the oracle. (The repository's load
//! generator discards bodies, which is why the benchmark has its own.)

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A reply slower than this counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// One response.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Headers, names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body text.
    pub body: String,
}

impl Reply {
    /// The first header named `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects to `addr` (`host:port`).
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let setup = |s: &TcpStream| -> std::io::Result<()> {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(TIMEOUT))?;
            s.set_write_timeout(Some(TIMEOUT))
        };
        setup(&stream).map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 << 10),
        })
    }

    /// Sends one request and reads its whole response.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("send {method} {path}: {e}"))?;
        self.read_reply()
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16 << 10];
        let n = self
            .stream
            .read(&mut chunk)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_reply(&mut self) -> Result<Reply, String> {
        let head_len = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_len])
            .map_err(|_| "response head is not utf-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| "malformed status line".to_string())?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let body_len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| "response without a content-length".to_string())?;
        while self.buf.len() < head_len + body_len {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[head_len..head_len + body_len].to_vec())
            .map_err(|_| "response body is not utf-8".to_string())?;
        self.buf.drain(..head_len + body_len);
        Ok(Reply {
            status,
            headers,
            body,
        })
    }
}
