//! The admin routes: health, rulebook hot-reload, drain shutdown.
//!
//! They run on a [`lomon_obs::Endpoint`], the one minimal HTTP/1.1
//! endpoint the metrics listener runs on too: serial connections, each
//! request read whole under one 2 s deadline ([`IO_TIMEOUT`]),
//! `Connection: close` on every response.
//!
//! | Route | Effect |
//! |---|---|
//! | `GET /health` | liveness + generation + stream count |
//! | `POST /reload` | body = rulebook text; compile aside, swap for new streams, `422` + diagnostics on failure (program untouched); `400` on a malformed `Content-Length` |
//! | `POST /shutdown` | begin drain-then-exit |

use std::io;
use std::sync::atomic::Ordering;
use std::time::Duration;

use lomon_obs::{Request, Response};

use crate::server::Shared;

/// Cap on a reload body: a rulebook is text, not a dataset.
const MAX_BODY: usize = 1024 * 1024;
/// Per-connection deadline: the whole request, body included, must arrive
/// within it, and each response write must finish within it — a stalled
/// or trickling admin client cannot wedge the (single-threaded) endpoint.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(2);

fn json(status: u16, reason: &'static str, body: impl Into<String>) -> Response {
    Response::new(status, reason, "application/json", body)
}

/// Answer one admin request.
pub(crate) fn route(shared: &Shared, request: &mut Request<'_>) -> io::Result<Response> {
    Ok(match (request.method.as_str(), request.target.as_str()) {
        ("", _) | (_, "") => json(400, "Bad Request", "{\"error\": \"bad request\"}\n"),
        ("GET", "/health") => json(
            200,
            "OK",
            format!(
                "{{\"status\": \"{}\", \"generation\": {}, \"active_streams\": {}}}\n",
                if shared.draining.load(Ordering::Acquire) {
                    "draining"
                } else {
                    "ok"
                },
                shared.generation(),
                shared.in_flight.load(Ordering::Acquire),
            ),
        ),
        ("POST", "/reload") => return reload(shared, request),
        ("POST", "/shutdown") => {
            // The server joins this endpoint's thread as it shuts down, so
            // the response below is still written.
            shared.request_shutdown();
            json(200, "OK", "{\"ok\": true, \"draining\": true}\n")
        }
        _ => json(404, "Not Found", "{\"error\": \"not found\"}\n"),
    })
}

fn reload(shared: &Shared, request: &mut Request<'_>) -> io::Result<Response> {
    let Some(content_length) = request.content_length else {
        return Ok(json(
            400,
            "Bad Request",
            "{\"ok\": false, \"error\": \"malformed Content-Length\"}\n",
        ));
    };
    if content_length > MAX_BODY {
        return Ok(json(
            413,
            "Payload Too Large",
            "{\"ok\": false, \"error\": \"rulebook too large\"}\n",
        ));
    }
    let Ok(text) = String::from_utf8(request.body(content_length)?) else {
        return Ok(json(
            400,
            "Bad Request",
            "{\"ok\": false, \"error\": \"rulebook is not valid UTF-8\"}\n",
        ));
    };
    Ok(match shared.reload(&text) {
        Ok(program) => json(
            200,
            "OK",
            format!(
                "{{\"ok\": true, \"generation\": {}, \"properties\": {}}}\n",
                program.generation,
                program.engine.len(),
            ),
        ),
        Err(diagnostics) => {
            // Structured rollback report: the old program is still
            // serving; here is everything wrong with the new one.
            let rendered: Vec<String> = diagnostics.iter().map(|d| d.render_json()).collect();
            json(
                422,
                "Unprocessable Entity",
                format!(
                    "{{\"ok\": false, \"generation\": {}, \"diagnostics\": [{}]}}\n",
                    shared.generation(),
                    rendered.join(", "),
                ),
            )
        }
    })
}
