//! Integration tests for the metrics HTTP listener: routing, draining,
//! concurrent scrape-during-update safety, and clean shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lomon_obs::{MetricsServer, Registry};

fn http_get(
    addr: std::net::SocketAddr,
    request: &(impl AsRef<[u8]> + ?Sized),
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(request.as_ref()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head.to_owned(), body.to_owned())
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String, String) {
    http_get(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"),
    )
}

#[test]
fn serves_prometheus_text_and_ndjson() {
    let registry = Arc::new(Registry::new());
    registry
        .counter("lomon_events_total", "Events ingested")
        .add(9);
    let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = server.local_addr();

    let (status, head, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain; version=0.0.4"), "head: {head}");
    assert!(body.contains("lomon_events_total 9\n"), "body: {body}");

    let (status, head, body) = get(addr, "/metrics.json");
    assert_eq!(status, 200);
    assert!(head.contains("application/x-ndjson"), "head: {head}");
    assert!(
        body.contains("\"name\":\"lomon_events_total\""),
        "body: {body}"
    );
}

#[test]
fn scrapes_observe_live_updates() {
    let registry = Arc::new(Registry::new());
    let counter = registry.counter("lomon_events_total", "Events ingested");
    let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = server.local_addr();
    let (_, _, before) = get(addr, "/metrics");
    assert!(before.contains("lomon_events_total 0\n"));
    counter.add(1234);
    let (_, _, after) = get(addr, "/metrics");
    assert!(after.contains("lomon_events_total 1234\n"), "body: {after}");
}

#[test]
fn scrape_races_concurrent_updates_without_tearing() {
    // A scrape racing a registry reset/update (e.g. engine reset between
    // files, or campaign completion) must never see a torn value or take
    // the server down. Hammer the counter from one thread while scraping
    // from this one; every observed value must be one the writer produced.
    let registry = Arc::new(Registry::new());
    let counter = registry.counter("lomon_events_total", "Events ingested");
    let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for _ in 0..50_000 {
                counter.add(1);
            }
        });
        for _ in 0..20 {
            let (status, _, body) = get(addr, "/metrics");
            assert_eq!(status, 200);
            let value: u64 = body
                .lines()
                .find_map(|l| l.strip_prefix("lomon_events_total "))
                .expect("counter line present")
                .parse()
                .expect("counter value is a clean integer");
            assert!(value <= 50_000);
        }
        writer.join().unwrap();
    });
    let (_, _, body) = get(addr, "/metrics");
    assert!(body.contains("lomon_events_total 50000\n"), "body: {body}");
}

#[test]
fn unknown_path_is_404_and_non_get_is_405() {
    let registry = Arc::new(Registry::new());
    let server = MetricsServer::bind("127.0.0.1:0", registry).expect("bind");
    let addr = server.local_addr();
    let (status, _, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, _, _) = http_get(
        addr,
        "POST /metrics HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\
         Connection: close\r\n\r\n",
    );
    assert_eq!(status, 405);
}

#[test]
fn draining_server_answers_503() {
    let registry = Arc::new(Registry::new());
    let server = MetricsServer::bind("127.0.0.1:0", registry).expect("bind");
    let addr = server.local_addr();
    let (status, _, _) = get(addr, "/metrics");
    assert_eq!(status, 200);
    server.drain();
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 503);
    assert!(body.contains("draining"), "body: {body}");
}

#[test]
fn bind_conflict_surfaces_as_error() {
    let registry = Arc::new(Registry::new());
    let first = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = first.local_addr();
    let second = MetricsServer::bind(&addr.to_string(), registry);
    assert!(second.is_err(), "second bind on {addr} should fail");
}

#[test]
fn drop_releases_the_port() {
    let registry = Arc::new(Registry::new());
    let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = server.local_addr();
    drop(server);
    // The port must be re-bindable once the listener thread has exited.
    MetricsServer::bind(&addr.to_string(), registry).expect("rebind after drop");
}

#[test]
fn half_open_connection_cannot_starve_other_scrapers() {
    // Regression: the listener is single-threaded, so a client that
    // connects and then goes silent (half-open socket, no request bytes)
    // must be cut off by the read deadline — not hold the endpoint
    // hostage. With a short deadline, a live scraper right behind the
    // silent one still gets its snapshot promptly.
    let registry = Arc::new(Registry::new());
    registry
        .counter("lomon_events_total", "Events ingested")
        .add(7);
    let server = MetricsServer::bind_with_timeout(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Duration::from_millis(100),
    )
    .expect("bind");
    let addr = server.local_addr();

    // Occupy the serial listener with a connection that never speaks.
    let half_open = TcpStream::connect(addr).expect("connect half-open");
    let start = std::time::Instant::now();
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("lomon_events_total 7\n"), "body: {body}");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "scrape behind a half-open connection took {:?}",
        start.elapsed()
    );
    drop(half_open);
}

#[test]
fn trickling_client_cannot_starve_other_scrapers() {
    // Regression: a client that sends its request one byte at a time,
    // faster than any per-read timeout, must still be cut off once the
    // whole request is overdue — not hold the serial listener for as long
    // as it keeps trickling.
    let registry = Arc::new(Registry::new());
    registry
        .counter("lomon_events_total", "Events ingested")
        .add(7);
    let server = MetricsServer::bind_with_timeout(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Duration::from_millis(300),
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut trickler = TcpStream::connect(addr).expect("connect trickler");
    let trickle = std::thread::spawn(move || {
        // One byte every 50 ms for up to 4 s, until the server hangs up.
        let head = b"GET /metrics HTTP/1.1\r\nX-Slow: ".iter();
        for &byte in head.chain(std::iter::repeat(&b'a')).take(80) {
            if trickler.write_all(&[byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    // The listener accepts in connection order: the trickler first.
    let started = Instant::now();
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("lomon_events_total 7\n"), "body: {body}");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "scrape behind a trickling client took {:?}",
        started.elapsed()
    );
    trickle.join().expect("trickler");
}

#[test]
fn malformed_request_gets_400_not_a_panic() {
    let registry = Arc::new(Registry::new());
    let server = MetricsServer::bind("127.0.0.1:0", registry).expect("bind");
    let addr = server.local_addr();
    // An empty request, and a request line that is not UTF-8.
    for request in [&b"\r\n\r\n"[..], b"\xff\xfe /metrics HTTP/1.1\r\n\r\n"] {
        let (status, _, _) = http_get(addr, request);
        assert_eq!(status, 400, "request: {request:?}");
    }
    // The listener survives the bad requests.
    let (status, _, _) = get(addr, "/metrics");
    assert_eq!(status, 200);
}
