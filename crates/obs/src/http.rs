//! lomon's one minimal HTTP/1.1 endpoint, behind both the metrics
//! listener and the `lomon serve` admin endpoint.
//!
//! An [`Endpoint`] serves its connections one at a time from a background
//! thread: it reads each request whole under one deadline ([`Request`]),
//! hands it to its handler, and writes the handler's [`Response`] with a
//! `Content-Length` and `Connection: close`, so no keep-alive state is
//! tracked. Routes, bodies and content types are the handler's; the
//! endpoint never looks at them.
//!
//! The deadline covers the whole request, head and body. A per-read
//! timeout would not do: a client that sends one byte a second never trips
//! it, and would hold the endpoint for as long as it keeps trickling.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cap on the request head we are willing to buffer.
const MAX_HEAD: u64 = 8 * 1024;

/// A running HTTP endpoint. Dropping it shuts the listener down cleanly:
/// the accept loop is woken, the thread joined, the port released.
#[derive(Debug)]
pub struct Endpoint {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Endpoint {
    /// Bind `addr` (e.g. `"127.0.0.1:9898"`; port `0` picks a free port)
    /// and answer every request with `handler` from a background thread.
    /// Returns the bind error untouched, so callers can surface "address
    /// already in use" directly.
    ///
    /// The whole request must arrive within `io_timeout`, and each
    /// response write must finish within it: connections are served
    /// serially, so the deadline bounds how long a half-open, stalled or
    /// trickling client can hold the endpoint. The handler is given every
    /// request that arrived, malformed ones included (their method and
    /// target are empty); when it fails — a body that does not arrive in
    /// time — the connection is dropped unanswered.
    pub fn bind<H>(addr: &str, io_timeout: Duration, mut handler: H) -> io::Result<Endpoint>
    where
        H: FnMut(&mut Request<'_>) -> io::Result<Response> + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("lomon-http".to_owned())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        // Errors on one connection (reset, timeout) must not
                        // take the endpoint down.
                        let _ = serve_one(&stream, io_timeout, &mut handler);
                    }
                })?
        };
        Ok(Endpoint {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address actually bound — resolves port `0` to the real port.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // The accept loop is blocked in `incoming()`; poke it awake with a
        // throwaway connection to our own port.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Read one request, let `handler` answer it, write the answer.
fn serve_one<H>(mut stream: &TcpStream, io_timeout: Duration, handler: &mut H) -> io::Result<()>
where
    H: FnMut(&mut Request<'_>) -> io::Result<Response>,
{
    stream.set_write_timeout(Some(io_timeout))?;
    let response = handler(&mut Request::read(stream, io_timeout)?)?;
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.reason,
        response.content_type,
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// A handler's answer; the endpoint adds `Content-Length` and
/// `Connection: close`.
#[derive(Debug)]
pub struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
}

impl Response {
    /// A response with status line `status reason`, the given
    /// `Content-Type` and `body`.
    pub fn new(
        status: u16,
        reason: &'static str,
        content_type: &'static str,
        body: impl Into<String>,
    ) -> Response {
        Response {
            status,
            reason,
            content_type,
            body: body.into(),
        }
    }
}

/// One request, its head read and its body left to [`Request::body`].
#[derive(Debug)]
pub struct Request<'s> {
    /// The method of the request line, e.g. `GET`; empty if there was no
    /// request line or it is not UTF-8.
    pub method: String,
    /// The target of the request line, e.g. `/metrics`; empty if there was
    /// no request line or it is not UTF-8.
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
    /// blank line: the request is answered from what arrived. Head lines
    /// are bytes: a header value may hold any byte (RFC 9110 obs-text),
    /// and header names are matched ASCII-case-insensitively.
    ///
    /// # Errors
    ///
    /// Fails if the request line cannot be read in time.
    pub(crate) fn read(stream: &'s TcpStream, timeout: Duration) -> io::Result<Self> {
        let mut reader = BufReader::new(Deadline {
            stream,
            at: Instant::now() + timeout,
        });
        let mut head = (&mut reader).take(MAX_HEAD);
        let mut line = Vec::new();
        head.read_until(b'\n', &mut line)?;
        let request_line = String::from_utf8(std::mem::take(&mut line)).unwrap_or_default();
        let mut content_length = Some(0);
        loop {
            line.clear();
            match head.read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) if line == b"\r\n" || line == b"\n" => break,
                Ok(_) => {
                    const NAME: &[u8] = b"content-length:";
                    if line
                        .get(..NAME.len())
                        .is_some_and(|n| n.eq_ignore_ascii_case(NAME))
                    {
                        content_length = std::str::from_utf8(&line[NAME.len()..])
                            .ok()
                            .and_then(|value| value.trim().parse().ok());
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
