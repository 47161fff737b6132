//! One request reader for lomon's minimal HTTP/1.1 endpoints: the metrics
//! listener and the `lomon serve` admin endpoint.
//!
//! Both serve their connections one at a time, so the whole request —
//! head and body — is read under one deadline. A per-read timeout would
//! not do: a client that sends one byte a second never trips it, and
//! would hold the endpoint for as long as it keeps trickling.

use std::io::{self, BufRead, BufReader, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Cap on the request head we are willing to buffer.
const MAX_HEAD: u64 = 8 * 1024;

/// One request, its head read and its body left to [`Request::body`].
#[derive(Debug)]
pub struct Request<'s> {
    /// The method of the request line, e.g. `GET`; empty if there was none.
    pub method: String,
    /// The target of the request line, e.g. `/metrics`; empty if there was
    /// none.
    pub target: String,
    /// The `Content-Length` header: `Some(0)` when absent (RFC 9112 §6.3),
    /// `None` when it does not parse.
    pub content_length: Option<usize>,
    reader: BufReader<Deadline<'s>>,
}

impl<'s> Request<'s> {
    /// Read the request head from `stream`, allowing the whole request,
    /// body included, `timeout` from now. The head is capped at 8 KiB.
    /// Headers past the cap or the deadline are dropped, as is a missing
    /// blank line: the request is answered from what arrived.
    ///
    /// # Errors
    ///
    /// Fails if the request line cannot be read in time.
    pub fn read(stream: &'s TcpStream, timeout: Duration) -> io::Result<Self> {
        let mut reader = BufReader::new(Deadline {
            stream,
            at: Instant::now() + timeout,
        });
        let mut head = (&mut reader).take(MAX_HEAD);
        let mut request_line = String::new();
        head.read_line(&mut request_line)?;
        let mut content_length = Some(0);
        loop {
            let mut line = String::new();
            match head.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) if line == "\r\n" || line == "\n" => break,
                Ok(_) => {
                    let lower = line.to_ascii_lowercase();
                    if let Some(value) = lower.strip_prefix("content-length:") {
                        content_length = value.trim().parse().ok();
                    }
                }
            }
        }
        let mut parts = request_line.split_whitespace();
        Ok(Request {
            method: parts.next().unwrap_or("").to_owned(),
            target: parts.next().unwrap_or("").to_owned(),
            content_length,
            reader,
        })
    }

    /// Read the next `len` bytes of the body under the request's deadline;
    /// the caller bounds `len`, which is allocated up front.
    ///
    /// # Errors
    ///
    /// Fails if the bytes do not all arrive before the deadline.
    pub fn body(&mut self, len: usize) -> io::Result<Vec<u8>> {
        let mut body = vec![0; len];
        self.reader.read_exact(&mut body)?;
        Ok(body)
    }
}

/// A stream whose every read times out at one fixed instant.
#[derive(Debug)]
struct Deadline<'s> {
    stream: &'s TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request deadline passed",
            ));
        }
        let mut stream = self.stream;
        stream.set_read_timeout(Some(left))?;
        stream.read(buf)
    }
}
