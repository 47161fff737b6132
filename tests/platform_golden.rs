//! Byte-for-byte transcripts of the face-recognition platform's surfaces:
//! `lomon demo`'s recorded trace and online verdicts, and the JSON report
//! of a platform `smc` campaign, which must not depend on `--jobs`. Every
//! platform run is seeded, so these outputs only change when the platform,
//! its scheduler or the monitors change. After an intended output change,
//! regenerate the fixtures under `tests/fixtures/platform/` with
//! `LOMON_BLESS=1 cargo test --test platform_golden` and review the diff.

mod common;

use common::{assert_golden, lomon, stderr, stdout};

#[test]
fn demo_transcript() {
    let output = lomon(&["demo"]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    assert_golden("platform/demo.stdout", &stdout(&output));
    assert_golden("platform/demo.stderr", &stderr(&output));
}

#[test]
fn smc_platform_report_for_every_jobs() {
    let run = |jobs: &str| {
        let output = lomon(&[
            "smc",
            "--format",
            "json",
            "--quiet",
            "--episodes",
            "300",
            "--fault-prob",
            "0.3",
            "--seed",
            "7",
            "--jobs",
            jobs,
        ]);
        assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
        stdout(&output)
    };
    let serial = run("1");
    assert_eq!(run("2"), serial, "the report depends on --jobs");
    assert_golden("platform/smc.json.stdout", &serial);
}
