//! Lifecycle e2e: protocol roundtrip, session recycling, hot-reload
//! (success and structured rollback), drain shutdown, overload shedding,
//! and the health/metrics endpoints — all over real sockets.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use common::{admin, start, test_config, wait_until, Client, RULEBOOK};
use lomon_serve::Server;

/// One connection, two streams: a violating one, then a clean one on the
/// same recycled session. Exercises ready/verdict/summary frames and the
/// per-connection stream index.
#[test]
fn roundtrip_verdicts_and_recycled_streams() {
    let server = start(RULEBOOK);
    let mut client = Client::connect(server.local_addr());

    let ready = client.read_line();
    assert!(ready.contains("\"type\": \"ready\""), "got: {ready}");
    assert!(ready.contains("\"generation\": 1"), "got: {ready}");
    assert!(ready.contains("\"properties\": 2"), "got: {ready}");
    assert!(ready.contains("\"backend\": \"fused\""), "got: {ready}");

    // Stream 0: `start` before the configuration triple — violated.
    client.send("{\"time\": \"10ns\", \"name\": \"start\"}");
    let verdict = client.read_line();
    assert!(verdict.contains("\"type\": \"verdict\""), "got: {verdict}");
    assert!(verdict.contains("\"stream\": 0"), "got: {verdict}");
    assert!(
        verdict.contains("\"verdict\": \"violated\""),
        "got: {verdict}"
    );
    assert!(verdict.contains("\"diagnostic\""), "got: {verdict}");

    client.send("{\"end\": \"1us\"}");
    let mut summary = client.read_line();
    // Skip the still-open properties' `"final": false` lines.
    while summary.contains("\"final\": false") {
        summary = client.read_line();
    }
    assert!(summary.contains("\"type\": \"summary\""), "got: {summary}");
    assert!(summary.contains("\"stream\": 0"), "got: {summary}");
    assert!(summary.contains("\"ok\": false"), "got: {summary}");
    assert!(summary.contains("\"violations\": 1"), "got: {summary}");

    // Stream 1, same connection, recycled session: clean configuration.
    for frame in [
        "{\"time\": \"20ns\", \"name\": \"set_imgAddr\"}",
        "{\"time\": \"30ns\", \"name\": \"set_glAddr\"}",
        "{\"time\": \"40ns\", \"name\": \"set_glSize\"}",
        "{\"time\": \"50ns\", \"name\": \"start\"}",
        "{\"end\": \"1us\"}",
    ] {
        client.send(frame);
    }
    let tail = client.finish();
    let summary = tail
        .lines()
        .find(|l| l.contains("\"type\": \"summary\""))
        .expect("second summary");
    assert!(summary.contains("\"stream\": 1"), "got: {summary}");
    assert!(summary.contains("\"ok\": true"), "got: {summary}");
    assert!(summary.contains("\"violations\": 0"), "got: {summary}");

    assert_eq!(server.metrics().streams.get(), 2);
    assert_eq!(server.metrics().panics.get(), 0);
    // The clean disconnect frees the connection's slot.
    wait_until("connection closed", Duration::from_secs(5), || {
        let (status, body) = admin(server.admin_addr(), "GET", "/health", "");
        status == 200 && body.contains("\"active_streams\": 0")
    });
}

/// A timed deadline expires through a time advance carried by an unknown
/// event name — unknown names are not interned, but their timestamps
/// still drive the deadline sweep.
#[test]
fn deadline_fires_on_unknown_name_time_advance() {
    let server = start(RULEBOOK);
    let mut client = Client::connect(server.local_addr());
    client.read_line(); // ready

    client.send("{\"time\": \"10ns\", \"name\": \"go\"}");
    client.send("{\"time\": \"200ns\", \"name\": \"never_subscribed\"}");
    let verdict = client.read_line();
    assert!(
        verdict.contains("\"verdict\": \"violated\""),
        "got: {verdict}"
    );
    assert!(verdict.contains("deadline"), "got: {verdict}");
    drop(client);
    drop(server);
}

/// A clean EOF mid-stream finalizes like an `end` at the last seen
/// timestamp.
#[test]
fn clean_eof_finalizes_the_stream() {
    let server = start(RULEBOOK);
    let mut client = Client::connect(server.local_addr());
    client.read_line(); // ready
    client.send("{\"time\": \"10ns\", \"name\": \"set_imgAddr\"}");
    let out = client.finish();
    let summary = out
        .lines()
        .find(|l| l.contains("\"type\": \"summary\""))
        .expect("summary on clean EOF");
    assert!(summary.contains("\"ok\": true"), "got: {summary}");
    assert_eq!(server.metrics().streams.get(), 1);
}

/// Hot reload swaps the program for new streams only: the in-flight
/// stream keeps its pinned two-property program to the end, while a
/// stream opened after the reload sees the one-property generation 2.
#[test]
fn hot_reload_swaps_for_new_streams_only() {
    let server = start(RULEBOOK);
    let mut pinned = Client::connect(server.local_addr());
    pinned.read_line(); // ready, generation 1
    pinned.send("{\"time\": \"10ns\", \"name\": \"set_imgAddr\"}");

    let (status, body) = admin(
        server.admin_addr(),
        "POST",
        "/reload",
        "go => out:done within 50 ns\n",
    );
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"ok\": true"), "body: {body}");
    assert!(body.contains("\"generation\": 2"), "body: {body}");
    assert!(body.contains("\"properties\": 1"), "body: {body}");
    assert_eq!(server.generation(), 2);

    let mut fresh = Client::connect(server.local_addr());
    let ready = fresh.read_line();
    assert!(ready.contains("\"generation\": 2"), "got: {ready}");
    assert!(ready.contains("\"properties\": 1"), "got: {ready}");
    drop(fresh);

    // The pinned stream still runs the old two-property program: its
    // final report carries a `"final": false` line for property index 1.
    pinned.send("{\"end\": \"1us\"}");
    let out = pinned.finish();
    assert!(
        out.lines()
            .any(|l| l.contains("\"index\": 1") && l.contains("\"final\": false")),
        "pinned stream lost its program: {out}"
    );
    assert!(out.contains("\"type\": \"summary\""), "got: {out}");
    assert_eq!(server.metrics().reloads.get(), 1);
}

/// A failing reload answers 422 with structured diagnostics and leaves
/// the serving program untouched — proven by a post-failure stream that
/// still gets correct verdicts from the old rulebook.
#[test]
fn failed_reload_leaves_serving_program_untouched() {
    let server = start(RULEBOOK);

    // An empty rulebook is rejected with the L001 lint diagnostic.
    let (status, body) = admin(server.admin_addr(), "POST", "/reload", "");
    assert_eq!(status, 422, "body: {body}");
    assert!(body.contains("\"ok\": false"), "body: {body}");
    assert!(body.contains("\"generation\": 1"), "body: {body}");
    assert!(body.contains("L001"), "body: {body}");

    // So is one that does not parse.
    let (status, body) = admin(server.admin_addr(), "POST", "/reload", "all{ << <<\n");
    assert_eq!(status, 422, "body: {body}");
    assert!(body.contains("\"diagnostics\": ["), "body: {body}");

    assert_eq!(server.generation(), 1);
    assert_eq!(server.metrics().reload_failures.get(), 2);
    assert_eq!(server.metrics().reloads.get(), 0);

    // The old program still serves — and still catches violations.
    let mut client = Client::connect(server.local_addr());
    let ready = client.read_line();
    assert!(ready.contains("\"generation\": 1"), "got: {ready}");
    client.send("{\"time\": \"10ns\", \"name\": \"start\"}");
    let verdict = client.read_line();
    assert!(
        verdict.contains("\"verdict\": \"violated\""),
        "got: {verdict}"
    );
}

/// A reload whose `Content-Length` does not parse is refused with 400
/// before the rulebook is compiled: no failure counted, no generation
/// spent, the serving program untouched. (`admin` always writes a correct
/// length, so the request is written raw.)
#[test]
fn malformed_content_length_reload_is_refused_untouched() {
    let server = start(RULEBOOK);
    let rulebook = "a << b once\n";
    let mut stream = TcpStream::connect(server.admin_addr()).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let request =
        format!("POST /reload HTTP/1.1\r\nHost: lomon\r\nContent-Length: abc\r\n\r\n{rulebook}");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 400 "), "got: {response}");
    assert!(
        response.contains("malformed Content-Length"),
        "got: {response}"
    );
    assert_eq!(server.generation(), 1);
    assert_eq!(server.metrics().reload_failures.get(), 0);
    assert_eq!(server.metrics().reloads.get(), 0);

    // The next good reload takes the next generation.
    let (status, body) = admin(server.admin_addr(), "POST", "/reload", rulebook);
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"generation\": 2"), "body: {body}");
}

/// The admin endpoint reads the request head as bytes: a header value
/// holding an obs-text byte (RFC 9110) before `Content-Length` neither
/// hides the length nor fails the reload.
#[test]
fn obs_text_header_does_not_hide_content_length() {
    let server = start(RULEBOOK);
    let rulebook = b"b << c once";
    let mut stream = TcpStream::connect(server.admin_addr()).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut request = b"POST /reload HTTP/1.1\r\nHost: lomon\r\nX-Note: caf\xe9\r\n".to_vec();
    request.extend_from_slice(format!("Content-Length: {}\r\n\r\n", rulebook.len()).as_bytes());
    request.extend_from_slice(rulebook);
    stream.write_all(&request).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 200 "), "got: {response}");
    assert!(response.contains("\"generation\": 2"), "got: {response}");
    assert_eq!(server.generation(), 2);
    assert_eq!(server.metrics().reload_failures.get(), 0);
}

/// Drain shutdown flushes every in-flight stream's final report before
/// the server exits.
#[test]
fn drain_flushes_in_flight_streams() {
    let mut server = start(RULEBOOK);
    let mut client = Client::connect(server.local_addr());
    client.read_line(); // ready
    client.send("{\"time\": \"10ns\", \"name\": \"start\"}");
    // Reading the pushed verdict guarantees the event was processed
    // before we ask for the drain.
    let verdict = client.read_line();
    assert!(
        verdict.contains("\"verdict\": \"violated\""),
        "got: {verdict}"
    );

    let (status, body) = admin(server.admin_addr(), "POST", "/shutdown", "");
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"draining\": true"), "body: {body}");

    let out = client.read_to_eof();
    assert!(out.contains("\"type\": \"draining\""), "got: {out}");
    let summary = out
        .lines()
        .find(|l| l.contains("\"type\": \"summary\""))
        .expect("drained stream flushed its final report");
    assert!(summary.contains("\"ok\": false"), "got: {summary}");

    server.wait();
    assert_eq!(server.metrics().drained.get(), 1);
}

/// Connections over the in-flight budget are shed with an explicit
/// overload frame and a clean close — never queued.
#[test]
fn overload_sheds_excess_connections() {
    let mut config = test_config();
    config.max_streams = 2;
    let server = Server::start(config, RULEBOOK).expect("server starts");

    let mut c1 = Client::connect(server.local_addr());
    let mut c2 = Client::connect(server.local_addr());
    c1.read_line();
    c2.read_line(); // both admitted

    let shed = Client::connect(server.local_addr());
    let out = shed.read_to_eof();
    assert!(out.contains("\"type\": \"overload\""), "got: {out}");
    assert_eq!(server.metrics().overloads.get(), 1);

    // Freeing a slot re-opens admission.
    drop(c1);
    wait_until("slot freed", Duration::from_secs(5), || {
        server.metrics().active_streams.get() < 2.0
    });
    let mut c4 = Client::connect(server.local_addr());
    let ready = c4.read_line();
    assert!(ready.contains("\"type\": \"ready\""), "got: {ready}");
    drop(c4);
    drop(c2);
}

/// The admin endpoint reads each request whole under one 2 s deadline: a
/// client that trickles its request a byte at a time, never tripping a
/// per-read timeout, holds it for that long at most, and a shutdown
/// queued behind it is answered in time.
#[test]
fn trickling_client_cannot_wedge_the_admin_endpoint() {
    let mut server = start(RULEBOOK);
    let addr = server.admin_addr();
    let mut trickler = TcpStream::connect(addr).expect("connect trickler");
    let trickle = thread::spawn(move || {
        // One byte every 250 ms for up to 10 s, until the server hangs up.
        let head = b"GET /health HTTP/1.1\r\nX-Slow: ".iter();
        for &byte in head.chain(std::iter::repeat(&b'a')).take(40) {
            if trickler.write_all(&[byte]).is_err() {
                break;
            }
            thread::sleep(Duration::from_millis(250));
        }
    });
    // The endpoint accepts in connection order: the trickler first.
    let started = Instant::now();
    let (status, body) = admin(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200, "body: {body}");
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "shutdown behind a trickling client took {:?}",
        started.elapsed()
    );
    server.wait();
    trickle.join().expect("trickler");
}

/// The health endpoint reports status, generation, and stream counts;
/// unknown routes get a 404.
#[test]
fn health_and_unknown_routes() {
    let server = start(RULEBOOK);
    let (status, body) = admin(server.admin_addr(), "GET", "/health", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""), "body: {body}");
    assert!(body.contains("\"generation\": 1"), "body: {body}");
    assert!(body.contains("\"active_streams\": 0"), "body: {body}");

    let (status, _) = admin(server.admin_addr(), "GET", "/nope", "");
    assert_eq!(status, 404);
}

/// With a metrics listener configured, the serve families show up on the
/// shared Prometheus endpoint.
#[test]
fn metrics_endpoint_exposes_serve_families() {
    let mut config = test_config();
    config.metrics = Some("127.0.0.1:0".to_owned());
    let server = Server::start(config, RULEBOOK).expect("server starts");
    let addr = server.metrics_addr().expect("metrics listener");

    let mut client = Client::connect(server.local_addr());
    client.read_line();
    drop(client);

    let (status, body) = admin(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("lomon_serve_connections_total"),
        "body: {body}"
    );
    assert!(body.contains("lomon_serve_panics_total 0"), "body: {body}");
}
