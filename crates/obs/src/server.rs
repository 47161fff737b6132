//! A minimal hand-rolled HTTP/1.1 listener serving metric snapshots.
//!
//! `GET /metrics` returns the Prometheus text exposition, `GET
//! /metrics.json` the NDJSON snapshot. One background thread accepts
//! connections serially — a scrape endpoint sees one poller every few
//! seconds, not a traffic front — and every response carries
//! `Connection: close` plus a `Content-Length`, so no keep-alive state is
//! tracked. Each request is read under one deadline for the whole request
//! ([`Request`]), so a client that trickles its bytes cannot hold the
//! listener. The handler never panics: malformed requests get `400`, a
//! draining server answers `503`, and registry reads go through relaxed
//! atomics that cannot tear.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::Request;
use crate::registry::Registry;

/// Default per-connection deadline: the whole request must arrive within
/// it, and each response write must finish within it, so one stalled,
/// half-open or trickling client cannot wedge the (single-threaded)
/// listener.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A running metrics endpoint. Dropping it shuts the listener down
/// cleanly: the accept loop is woken, the thread joined, the port
/// released.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9898"`; port `0` picks a free port)
    /// and start serving `registry` from a background thread. Returns the
    /// bind error untouched if the address is unavailable, so callers can
    /// surface "address already in use" directly.
    pub fn bind(addr: &str, registry: Arc<Registry>) -> io::Result<Self> {
        Self::bind_with_timeout(addr, registry, IO_TIMEOUT)
    }

    /// [`MetricsServer::bind`] with an explicit per-connection deadline:
    /// the whole request must arrive within it, however its bytes trickle
    /// in. The listener handles connections serially, so the deadline
    /// bounds how long a half-open, stalled or trickling client can starve
    /// every other scraper; tests shrink it to keep suites fast.
    pub fn bind_with_timeout(
        addr: &str,
        registry: Arc<Registry>,
        io_timeout: Duration,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            let draining = Arc::clone(&draining);
            std::thread::Builder::new()
                .name("lomon-metrics".to_owned())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        // Errors on one connection (reset, timeout) must not
                        // take the endpoint down.
                        let _ = serve_one(&stream, &registry, &draining, io_timeout);
                    }
                })?
        };
        Ok(MetricsServer {
            addr,
            stop,
            draining,
            thread: Some(thread),
        })
    }

    /// The address actually bound — resolves port `0` to the real port.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Switch the endpoint into draining mode: subsequent scrapes get
    /// `503 Service Unavailable` instead of a snapshot. Call this before
    /// printing a final report so a scrape racing completion sees a clean
    /// "gone" rather than a half-reset registry.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // The accept loop is blocked in `incoming()`; poke it awake with a
        // throwaway connection to our own port.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Read the request (method + target are all we need), route, respond.
fn serve_one(
    stream: &TcpStream,
    registry: &Registry,
    draining: &AtomicBool,
    io_timeout: Duration,
) -> io::Result<()> {
    stream.set_write_timeout(Some(io_timeout))?;
    let request = Request::read(stream, io_timeout)?;
    let (method, target) = (request.method.as_str(), request.target.as_str());

    if method.is_empty() || target.is_empty() {
        return respond(stream, 400, "Bad Request", "text/plain", "bad request\n");
    }
    if method != "GET" {
        return respond(
            stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
    }
    if draining.load(Ordering::Acquire) {
        return respond(
            stream,
            503,
            "Service Unavailable",
            "text/plain",
            "metrics endpoint is draining\n",
        );
    }
    match target {
        "/metrics" => {
            let body = registry.render_prometheus();
            respond(
                stream,
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/metrics.json" => {
            let body = registry.render_ndjson();
            respond(
                stream,
                200,
                "OK",
                "application/x-ndjson; charset=utf-8",
                &body,
            )
        }
        _ => respond(stream, 404, "Not Found", "text/plain", "not found\n"),
    }
}

fn respond(
    mut stream: &TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
