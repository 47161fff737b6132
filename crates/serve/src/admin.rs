//! The admin endpoint: health, rulebook hot-reload, drain shutdown.
//!
//! A deliberately tiny HTTP/1.1 surface in the style of the
//! `lomon-obs` metrics listener: one background thread, serial
//! connections, each request read whole under one 2 s deadline by the
//! listener's own reader ([`lomon_obs::Request`]), `Connection: close` on
//! every response.
//!
//! | Route | Effect |
//! |---|---|
//! | `GET /health` | liveness + generation + stream counts |
//! | `POST /reload` | body = rulebook text; compile aside, swap for new streams, `422` + diagnostics on failure (program untouched); `400` on a malformed `Content-Length` |
//! | `POST /shutdown` | begin drain-then-exit |

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

use lomon_obs::Request;

use crate::server::Shared;

/// Cap on a reload body: a rulebook is text, not a dataset.
const MAX_BODY: usize = 1024 * 1024;
/// Per-connection deadline: the whole request, body included, must arrive
/// within it, and each response write must finish within it — a stalled
/// or trickling admin client cannot wedge the (single-threaded) endpoint.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Serve admin requests until the server stops.
pub(crate) fn run(listener: &TcpListener, shared: &Shared) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // One bad connection must not take the endpoint down.
        let _ = serve_one(&stream, shared);
        // /shutdown flips `stop` *after* its response is written; check
        // again so the endpoint dies with the server, not one request late.
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
    }
}

fn serve_one(stream: &TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut request = Request::read(stream, IO_TIMEOUT)?;
    let (method, target) = (request.method.as_str(), request.target.as_str());

    if method.is_empty() || target.is_empty() {
        return respond(stream, 400, "Bad Request", "{\"error\": \"bad request\"}\n");
    }
    match (method, target) {
        ("GET", "/health") => {
            let body = format!(
                "{{\"status\": \"{}\", \"generation\": {}, \"active_streams\": {}, \
                 \"pooled_sessions\": {}}}\n",
                if shared.draining.load(Ordering::Acquire) {
                    "draining"
                } else {
                    "ok"
                },
                shared.generation(),
                shared.in_flight.load(Ordering::Acquire),
                shared.pool.len(),
            );
            respond(stream, 200, "OK", &body)
        }
        ("POST", "/reload") => {
            let Some(content_length) = request.content_length else {
                return respond(
                    stream,
                    400,
                    "Bad Request",
                    "{\"ok\": false, \"error\": \"malformed Content-Length\"}\n",
                );
            };
            if content_length > MAX_BODY {
                return respond(
                    stream,
                    413,
                    "Payload Too Large",
                    "{\"ok\": false, \"error\": \"rulebook too large\"}\n",
                );
            }
            let Ok(text) = String::from_utf8(request.body(content_length)?) else {
                return respond(
                    stream,
                    400,
                    "Bad Request",
                    "{\"ok\": false, \"error\": \"rulebook is not valid UTF-8\"}\n",
                );
            };
            match shared.reload(&text) {
                Ok(program) => {
                    let body = format!(
                        "{{\"ok\": true, \"generation\": {}, \"properties\": {}}}\n",
                        program.generation,
                        program.engine.len(),
                    );
                    respond(stream, 200, "OK", &body)
                }
                Err(diagnostics) => {
                    // Structured rollback report: the old program is still
                    // serving; here is everything wrong with the new one.
                    let rendered: Vec<String> =
                        diagnostics.iter().map(|d| d.render_json()).collect();
                    let body = format!(
                        "{{\"ok\": false, \"generation\": {}, \"diagnostics\": [{}]}}\n",
                        shared.generation(),
                        rendered.join(", "),
                    );
                    respond(stream, 422, "Unprocessable Entity", &body)
                }
            }
        }
        ("POST", "/shutdown") => {
            respond(stream, 200, "OK", "{\"ok\": true, \"draining\": true}\n")?;
            shared.request_shutdown();
            Ok(())
        }
        _ => respond(stream, 404, "Not Found", "{\"error\": \"not found\"}\n"),
    }
}

fn respond(mut stream: &TcpStream, status: u16, reason: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
