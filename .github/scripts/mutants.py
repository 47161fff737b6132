#!/usr/bin/env python3
"""Mutation check: the differential suites must catch counter-wrap bugs.

    python3 .github/scripts/mutants.py

A fused program keeps each range counter in the high 32 bits of a cell
word and reads it with `cell_cpt` (crates/core/src/compiled.rs). For each
mutant below, which makes that read wrap at 2^8 or at 2^16, the script
applies the edit (failing unless the pattern matches exactly once), runs
the differential suites with a default debug `cargo test`, and requires a
test failure (`test result: FAILED`), not a build error. compiled.rs is
restored on every exit path, an interrupt included.

The suites draw their cases from `lomon_gen::cases`; a change that stops
the generator from reaching range bounds of 2^8 and 2^16 fails here.
"""

import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TARGET = ROOT / "crates" / "core" / "src" / "compiled.rs"
PATTERN = "fn cell_cpt(word: u64) -> u32 {\n    (word >> 32) as u32\n}"
MUTANTS = [
    ("counter read wraps at 2^8", PATTERN.replace("as u32\n", "as u8 as u32\n")),
    ("counter read wraps at 2^16", PATTERN.replace("as u32\n", "as u16 as u32\n")),
]
# (package, test target) of the suites that pit the fused program against
# the interpreter on every case.
SUITES = [
    ("lomon-core", "witness_replay"),
    ("lomon-core", "oracle_equivalence"),
    ("lomon-engine", "engine_oracle"),
    ("lomon", "witness_session"),
    ("lomon", "timed_semantics"),
    ("lomon-psl", "strategy_equivalence"),
]


def run_suites():
    """Run the suites in turn; return the names of those whose tests failed,
    or None if one did not build."""
    failed = []
    for package, test in SUITES:
        result = subprocess.run(
            ["cargo", "test", "-q", "-p", package, "--test", test],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if "test result: FAILED" in result.stdout:
            failed.append(test)
        elif result.returncode != 0:
            print(result.stdout[-4000:])
            print(f"FAIL: {test} did not build or run under the mutant")
            return None
    return failed


def main():
    original = TARGET.read_text()
    if original.count(PATTERN) != 1:
        print(f"FAIL: `cell_cpt` matches {original.count(PATTERN)} times in {TARGET}, not once")
        return 1
    # SIGTERM unwinds through `finally` like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ok = True
    try:
        for label, replacement in MUTANTS:
            TARGET.write_text(original.replace(PATTERN, replacement))
            failed = run_suites()
            if failed is None:
                ok = False
            elif failed:
                print(f"OK: {label} — caught by {', '.join(failed)}")
            else:
                print(f"FAIL: {label} — every differential suite passed")
                ok = False
    finally:
        TARGET.write_text(original)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
