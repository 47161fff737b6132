//! Shared harness for the CLI integration suites (`cli_smoke`,
//! `engine_stream`, the golden suites): spawn the `lomon` binary from the
//! manifest directory and capture its output, optionally piping a stream
//! to stdin, and compare outputs with committed golden files.
#![allow(dead_code)] // each suite uses its own subset of the helpers

use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Output, Stdio};

/// The checked-in example trace (exactly `lomon gen <example-2> 7 3`).
pub const FIXTURE: &str = "tests/fixtures/ipu_config.trace";

/// The paper's Example 2, repeated flavour.
pub const PROPERTY: &str = "all{set_imgAddr, set_glAddr, set_glSize} << start repeated";

/// Run `lomon <args>` with nothing on stdin.
pub fn lomon(args: &[&str]) -> Output {
    lomon_with_stdin(args, "")
}

/// Run `lomon <args>` with `input` piped to stdin.
pub fn lomon_with_stdin(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lomon"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lomon");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write stream");
    child.wait_with_output().expect("lomon exits")
}

/// The fixture's text, for piping through `lomon watch`.
pub fn fixture_text() -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE))
        .expect("read fixture")
}

/// Lossy UTF-8 view of captured stdout.
pub fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Lossy UTF-8 view of captured stderr.
pub fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Compare `actual` with the committed fixture `tests/fixtures/<file>`, or
/// rewrite the fixture when `LOMON_BLESS` is set.
pub fn assert_golden(file: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(file);
    if std::env::var_os("LOMON_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&path, actual).expect("bless fixture");
        return;
    }
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert_eq!(actual, expected, "transcript diverged from {file}");
}
