//! End-to-end tests for `lomon serve`: spawn the real binary, learn the
//! ephemeral addresses from the startup announcement, run one stream, hot
//! reload, and drain-shutdown over the admin endpoint.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use common::{lomon, stderr, PROPERTY};

/// Spawn `lomon serve` on ephemeral ports and parse the stream/admin
/// addresses from the stderr announcement.
fn spawn_serve(extra: &[&str]) -> (Child, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lomon"))
        .args(
            ["serve", "--listen", "127.0.0.1:0", "--admin", "127.0.0.1:0"]
                .iter()
                .chain(extra)
                .chain([PROPERTY].iter()),
        )
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lomon serve");
    let mut announce = String::new();
    BufReader::new(child.stderr.take().expect("piped stderr"))
        .read_line(&mut announce)
        .expect("startup announcement");
    // "serving 1 property on 127.0.0.1:PORT (admin 127.0.0.1:PORT)"
    let listen = announce
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .expect("listen address in announcement")
        .to_owned();
    (child, listen, admin_addr(&announce))
}

/// The admin address in a `serving …` announcement.
fn admin_addr(announce: &str) -> String {
    announce
        .split("(admin ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .expect("admin address in announcement")
        .to_owned()
}

/// Spawn `lomon serve` on ephemeral ports over `rulebook` and read its
/// first stderr line, the announcement; the rest of stderr stays unread.
fn spawn_announced(rulebook: &[&str]) -> (Child, BufReader<ChildStderr>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lomon"))
        .args(["serve", "--listen", "127.0.0.1:0", "--admin", "127.0.0.1:0"])
        .args(rulebook)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lomon serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut announce = String::new();
    stderr
        .read_line(&mut announce)
        .expect("startup announcement");
    (child, stderr, announce)
}

fn http(addr: &str, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: lomon\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    let mut reader = stream.try_clone().expect("clone");
    reader.read_to_string(&mut response).expect("read response");
    response
}

#[test]
fn serve_streams_reloads_and_drains() {
    let (mut child, listen, admin) = spawn_serve(&[]);

    // One stream end to end.
    let mut stream = TcpStream::connect(&listen).expect("connect stream");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ready = String::new();
    reader.read_line(&mut ready).expect("ready frame");
    assert!(ready.contains("\"type\": \"ready\""), "got: {ready}");
    stream
        .write_all(b"{\"time\": \"5ns\", \"name\": \"start\"}\n")
        .expect("send event");
    let mut verdict = String::new();
    reader.read_line(&mut verdict).expect("verdict frame");
    assert!(
        verdict.contains("\"verdict\": \"violated\""),
        "got: {verdict}"
    );
    drop(reader);
    drop(stream);

    // Hot reload, then health reflects the new generation.
    let response = http(&admin, "POST", "/reload", "go => out:done within 50 ns\n");
    assert!(response.contains("200 OK"), "got: {response}");
    assert!(response.contains("\"generation\": 2"), "got: {response}");
    let response = http(&admin, "GET", "/health", "");
    assert!(response.contains("\"generation\": 2"), "got: {response}");

    // Drain shutdown: the daemon exits 0.
    let response = http(&admin, "POST", "/shutdown", "");
    assert!(response.contains("200 OK"), "got: {response}");
    let status = child.wait().expect("serve exits");
    assert_eq!(status.code(), Some(0));
}

#[test]
fn serve_rejects_a_broken_rulebook() {
    let output = lomon(&["serve", "--listen", "127.0.0.1:0", "all{unclosed << start"]);
    assert_eq!(output.status.code(), Some(1));
    let text = stderr(&output);
    assert!(text.contains("rulebook rejected"), "stderr: {text}");
}

#[test]
fn serve_usage_errors() {
    let output = lomon(&["serve", "--frobnicate", PROPERTY]);
    assert_eq!(output.status.code(), Some(2));
    let output = lomon(&["serve", "--max-streams", "0", PROPERTY]);
    assert_eq!(output.status.code(), Some(2));
    let output = lomon(&["serve"]);
    assert_eq!(output.status.code(), Some(2));
    // Only check and watch take `--backend`. No property: a binary that
    // accepted the flag would refuse the empty rulebook (exit 1), not
    // serve forever.
    let output = lomon(&["serve", "--backend", "fused"]);
    assert_eq!(output.status.code(), Some(2));
    // A value may not start with `--`: `--admin` is not the listen address.
    let output = lomon(&["serve", "--listen", "--admin", "127.0.0.1:0", PROPERTY]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("`--listen` requires a value"));
    let output = lomon(&["serve", "--max-streams=0", PROPERTY]);
    assert_eq!(output.status.code(), Some(2));
}

/// The rulebook's analysis warnings go to stderr after the `serving …`
/// announcement, which stays the first line for supervisors that read
/// only that.
#[test]
fn serve_prints_rulebook_warnings_after_the_announcement() {
    let (mut child, mut stderr, announce) = spawn_announced(&[PROPERTY, PROPERTY]);
    assert!(
        announce.starts_with("serving 2 properties on "),
        "got: {announce}"
    );
    let response = http(&admin_addr(&announce), "POST", "/shutdown", "");
    assert!(response.contains("200 OK"), "got: {response}");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("rest of stderr");
    assert_eq!(child.wait().expect("serve exits").code(), Some(0));
    assert!(
        rest.lines().any(|l| l.starts_with("warning[L003]")),
        "stderr after the announcement: {rest}"
    );
}

/// A supervisor that reads stderr only up to the announcement must not
/// wedge the daemon: 6000 copies of one property write ~245 KB of `L003`
/// warnings, far more than a pipe holds, and `POST /shutdown` still ends
/// the process.
#[test]
fn serve_exits_with_its_warnings_unread() {
    let dir = std::env::temp_dir().join(format!("lomon-serve-unread-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let rules = dir.join("copies.rules");
    std::fs::write(&rules, format!("{PROPERTY}\n").repeat(6000)).expect("write rulebook");
    let (mut child, stderr, announce) = spawn_announced(&[rules.to_str().expect("UTF-8 path")]);
    let response = http(&admin_addr(&announce), "POST", "/shutdown", "");
    assert!(response.contains("200 OK"), "got: {response}");
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        match child.try_wait().expect("poll serve") {
            Some(status) => break Some(status),
            None if Instant::now() >= deadline => break None,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if status.is_none() {
        child.kill().ok();
        child.wait().ok();
    }
    drop(stderr);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        status.and_then(|s| s.code()),
        Some(0),
        "serve still running 5 s after `POST /shutdown` with stderr unread"
    );
}
