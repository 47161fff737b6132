//! The metrics listener: the metrics routes on an [`Endpoint`].
//!
//! `GET /metrics` returns the Prometheus text exposition, `GET
//! /metrics.json` the NDJSON snapshot. The endpoint serves one connection
//! at a time — a scrape endpoint sees one poller every few seconds, not a
//! traffic front. The handler never panics: malformed requests get `400`,
//! a draining server answers `503`, and registry reads go through relaxed
//! atomics that cannot tear.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::http::{Endpoint, Request, Response};
use crate::registry::Registry;

/// Default per-connection deadline: the whole request must arrive within
/// it, and each response write must finish within it.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A running metrics endpoint. Dropping it shuts the listener down
/// cleanly: the accept loop is woken, the thread joined, the port
/// released.
pub struct MetricsServer {
    endpoint: Endpoint,
    draining: Arc<AtomicBool>,
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
        let draining = Arc::new(AtomicBool::new(false));
        let endpoint = {
            let draining = Arc::clone(&draining);
            Endpoint::bind(addr, io_timeout, move |request| {
                Ok(route(request, &registry, &draining))
            })?
        };
        Ok(MetricsServer { endpoint, draining })
    }

    /// The address actually bound — resolves port `0` to the real port.
    pub fn local_addr(&self) -> SocketAddr {
        self.endpoint.local_addr()
    }

    /// Switch the endpoint into draining mode: subsequent scrapes get
    /// `503 Service Unavailable` instead of a snapshot. Call this before
    /// printing a final report so a scrape racing completion sees a clean
    /// "gone" rather than a half-reset registry.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
    }
}

/// Answer one request from `registry`.
fn route(request: &Request<'_>, registry: &Registry, draining: &AtomicBool) -> Response {
    let text = |status, reason, body| Response::new(status, reason, "text/plain", body);
    match (request.method.as_str(), request.target.as_str()) {
        ("", _) | (_, "") => text(400, "Bad Request", "bad request\n"),
        ("GET", _) if draining.load(Ordering::Acquire) => {
            text(503, "Service Unavailable", "metrics endpoint is draining\n")
        }
        ("GET", "/metrics") => Response::new(
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.render_prometheus(),
        ),
        ("GET", "/metrics.json") => Response::new(
            200,
            "OK",
            "application/x-ndjson; charset=utf-8",
            registry.render_ndjson(),
        ),
        ("GET", _) => text(404, "Not Found", "not found\n"),
        _ => text(405, "Method Not Allowed", "only GET is supported\n"),
    }
}
