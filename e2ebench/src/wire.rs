//! Client connections with a per-op deadline and reply checks.
//!
//! The library clients (`ChirpClient`, `HttpClient`) fix a 30 s read
//! timeout and buffer GET bodies; a benchmark client must fail an op at
//! its own deadline and check bodies as they stream. These clients speak
//! the same wire through the same codecs (`chirp::format_request`,
//! `HttpRequestHead::render`, `HttpResponseHead::read`).

use crate::gen::{Pattern, Proto};
use nest_proto::chirp::format_request;
use nest_proto::http::{HttpMethod, HttpRequestHead, HttpResponseHead};
use nest_proto::wire::read_line;
use nest_proto::NestRequest;
use std::collections::BTreeMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Longest a client waits on one op (connect, send or receive) before
/// counting it as failed.
pub const OP_DEADLINE: Duration = Duration::from_secs(5);

pub struct Conn {
    proto: Proto,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    host: String,
    buf: Vec<u8>,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Conn {
    pub fn connect(proto: Proto, addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, OP_DEADLINE)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_DEADLINE))?;
        stream.set_write_timeout(Some(OP_DEADLINE))?;
        Ok(Self {
            proto,
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(64 << 10, stream),
            host: addr.to_string(),
            buf: vec![0; 64 << 10],
        })
    }

    fn http_head(&self, method: HttpMethod, path: &str) -> HttpRequestHead {
        let mut headers = BTreeMap::new();
        headers.insert("host".into(), self.host.clone());
        HttpRequestHead::plain(method, path, headers)
    }

    fn chirp_status(&mut self) -> io::Result<(i32, String)> {
        let line = read_line(&mut self.reader)?
            .ok_or_else(|| bad("server closed the connection".into()))?;
        let (code, detail) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        let code = code
            .parse()
            .map_err(|_| bad(format!("bad status line {line:?}")))?;
        Ok((code, detail.to_owned()))
    }

    /// GETs `path`, checking that the body is exactly `len` bytes of the
    /// pattern from block offset `shift`.
    pub fn get(
        &mut self,
        path: &str,
        len: u64,
        pattern: &Arc<Pattern>,
        shift: usize,
    ) -> io::Result<()> {
        let announced = match self.proto {
            Proto::Chirp => {
                let line = format_request(&NestRequest::Get { path: path.into() });
                self.send_line(&line)?;
                let (code, detail) = self.chirp_status()?;
                if code != 0 {
                    return Err(bad(format!("chirp get {path}: status {code}")));
                }
                detail
                    .split_whitespace()
                    .next()
                    .and_then(|s| s.parse().ok())
            }
            Proto::Http => {
                let head = self.http_head(HttpMethod::Get, path).render();
                self.writer.write_all(head.as_bytes())?;
                let resp = HttpResponseHead::read(&mut self.reader)?;
                if resp.status != 200 {
                    return Err(bad(format!("http get {path}: status {}", resp.status)));
                }
                resp.content_length()
            }
        };
        if announced != Some(len) {
            return Err(bad(format!(
                "get {path}: announced {announced:?}, want {len}"
            )));
        }
        let mut check = pattern.checker(shift);
        let mut left = len;
        while left > 0 {
            let want = (self.buf.len() as u64).min(left) as usize;
            let n = self.reader.read(&mut self.buf[..want])?;
            if n == 0 {
                return Err(bad(format!("get {path}: short body, {left} bytes missing")));
            }
            check.feed(&self.buf[..n]);
            left -= n as u64;
        }
        if !check.complete(len) {
            return Err(bad(format!("get {path}: body does not match its pattern")));
        }
        Ok(())
    }

    /// PUTs `len` bytes of the pattern from block offset `shift`.
    pub fn put(&mut self, path: &str, len: u64, pattern: &Pattern, shift: usize) -> io::Result<()> {
        match self.proto {
            Proto::Chirp => {
                let line = format_request(&NestRequest::Put {
                    path: path.into(),
                    size: Some(len),
                });
                self.send_line(&line)?;
                let (code, _) = self.chirp_status()?;
                if code != 0 {
                    return Err(bad(format!("chirp put {path}: admission status {code}")));
                }
                self.send_body(len, pattern, shift)?;
                let (code, _) = self.chirp_status()?;
                if code != 0 {
                    return Err(bad(format!("chirp put {path}: status {code}")));
                }
            }
            Proto::Http => {
                let mut head = self.http_head(HttpMethod::Put, path);
                head.headers
                    .insert("content-length".into(), len.to_string());
                self.writer.write_all(head.render().as_bytes())?;
                self.send_body(len, pattern, shift)?;
                let resp = HttpResponseHead::read(&mut self.reader)?;
                let body = resp.content_length().unwrap_or(0);
                io::copy(&mut (&mut self.reader).take(body), &mut io::sink())?;
                if resp.status != 201 {
                    return Err(bad(format!("http put {path}: status {}", resp.status)));
                }
            }
        }
        Ok(())
    }

    /// Stats `path` (Chirp `stat`, HTTP `HEAD`) and checks its size.
    pub fn stat(&mut self, path: &str, len: u64) -> io::Result<()> {
        let size = match self.proto {
            Proto::Chirp => {
                let line = format_request(&NestRequest::Stat { path: path.into() });
                self.send_line(&line)?;
                let (code, detail) = self.chirp_status()?;
                if code != 0 {
                    return Err(bad(format!("chirp stat {path}: status {code}")));
                }
                detail
                    .split_whitespace()
                    .next()
                    .and_then(|s| s.parse().ok())
            }
            Proto::Http => {
                let head = self.http_head(HttpMethod::Head, path).render();
                self.writer.write_all(head.as_bytes())?;
                let resp = HttpResponseHead::read(&mut self.reader)?;
                if resp.status != 200 {
                    return Err(bad(format!("http head {path}: status {}", resp.status)));
                }
                resp.content_length()
            }
        };
        if size != Some(len) {
            return Err(bad(format!("stat {path}: size {size:?}, want {len}")));
        }
        Ok(())
    }

    /// Sends a request line and its CRLF in one write (`wire::write_line`
    /// would send them as two segments).
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        let mut out = Vec::with_capacity(line.len() + 2);
        out.extend_from_slice(line.as_bytes());
        out.extend_from_slice(b"\r\n");
        self.writer.write_all(&out)
    }

    fn send_body(&mut self, len: u64, pattern: &Pattern, shift: usize) -> io::Result<()> {
        let writer = &mut self.writer;
        pattern.for_each_slice(shift, len as usize, |s| writer.write_all(s))
    }
}
