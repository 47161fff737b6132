//! `lomon-serve` — a hardened monitoring daemon.
//!
//! The ROADMAP's "million users" deployment shape: one resident process
//! holding one compiled rulebook [`Engine`](lomon_engine::Engine),
//! multiplexing many concurrent NDJSON trace streams over TCP, each
//! stream monitored by a recycled zero-alloc
//! [`Session`](lomon_engine::Session). The stream protocol itself —
//! framing, parsing, the time check, verdict and summary frames — is
//! [`lomon_engine::StreamDriver`], shared with `lomon watch`; this crate
//! adds the sockets, the session pool and the daemon's policies.
//! Robustness is the design center — four cooperating mechanisms keep any
//! one client's misbehavior strictly its own problem:
//!
//! 1. **Per-stream fault isolation.** A parse error, protocol violation
//!    (time travel, oversized frame, invalid UTF-8) or mid-frame
//!    disconnect finalizes only the offending stream: it gets an
//!    `{"type": "error", …}` frame, its counter is bumped, its session is
//!    recycled. Handlers never panic; if one ever did, the `catch_unwind`
//!    fence contains it to that stream and `lomon_serve_panics_total`
//!    records the bug.
//! 2. **Backpressure and overload shedding.** The server never reads
//!    ahead of what it can process (TCP flow control is the per-stream
//!    ingest bound), frames are capped ([`lomon_trace::MAX_FRAME_BYTES`])
//!    and dropped unbuffered past the cap, a global in-flight budget
//!    ([`ServeConfig::max_streams`]) sheds excess connections with an
//!    explicit `{"type": "overload"}` frame, slow verdict readers are cut
//!    off by the write timeout, and silent streams are reaped by the idle
//!    timeout.
//! 3. **Graceful lifecycle.** `POST /reload` on the admin endpoint
//!    compiles the new rulebook *aside*, atomically swaps it for new
//!    streams only (in-flight streams keep the program they pinned), and
//!    on any compile/lint failure answers `422` with every structured
//!    diagnostic while the old program keeps serving. `POST /shutdown`
//!    (or [`Server::begin_shutdown`]) drains: accepting stops, every
//!    in-flight stream flushes its final report, then the process exits.
//! 4. **Chaos-proven degradation.** The e2e suite injects torn frames,
//!    garbage bytes, slow-loris writers, abrupt resets and oversized
//!    lines while healthy streams run alongside — and asserts the healthy
//!    streams' verdict output is byte-identical to a fault-free run and
//!    the panic counter stays zero.
//!
//! # Protocol
//!
//! Everything is NDJSON: one JSON object per `\n`-terminated line, both
//! directions. On connect the server sends
//!
//! ```json
//! {"type": "ready", "generation": 1, "properties": 3, "backend": "fused"}
//! ```
//!
//! The client streams event frames (the same grammar `lomon watch
//! --format ndjson` reads; `dir` is optional):
//!
//! ```json
//! {"time": "10ns", "dir": "in", "name": "set_imgAddr"}
//! ```
//!
//! Verdicts are pushed as they finalize, watch-style, tagged with the
//! connection-local stream index:
//!
//! ```json
//! {"type": "verdict", "stream": 0, "property": "…", "index": 2, "verdict": "violated", "diagnostic": "…"}
//! ```
//!
//! `{"end": "500ns"}` finalizes the stream: open obligations get their
//! final deadline check at that time, remaining verdicts and one
//! `"final": false` line per still-open property are flushed, then a
//! summary frame closes the stream:
//!
//! ```json
//! {"type": "summary", "stream": 0, "ok": true, "events": 42, "violations": 0, "stats": {…}}
//! ```
//!
//! After `end` the connection stays open and the next stream (index + 1)
//! begins on the same recycled session. A clean EOF mid-stream finalizes
//! like an `end` at the last seen timestamp; EOF mid-frame is a torn
//! frame (counted, error frame best-effort). Unknown event names are
//! deliberately **not** interned (a client cannot grow server memory by
//! inventing names); their timestamps still advance the deadline sweep.
//!
//! # Quickstart
//!
//! ```bash
//! lomon serve --listen 127.0.0.1:7450 --admin 127.0.0.1:7451 rules.lomon &
//! printf '%s\n' '{"time": "10ns", "name": "set_imgAddr"}' '{"end": "1us"}' \
//!   | nc 127.0.0.1 7450
//! curl -s http://127.0.0.1:7451/health
//! curl -s -X POST --data-binary @new.rules http://127.0.0.1:7451/reload
//! curl -s -X POST http://127.0.0.1:7451/shutdown
//! ```

mod admin;
mod conn;
mod metrics;
mod pool;
mod program;
mod server;

pub use lomon_core::analysis::Diagnostic;
pub use metrics::ServeMetrics;
pub use server::{ServeConfig, Server, StartError};
