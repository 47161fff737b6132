#!/usr/bin/env python3
"""Mutation check: the differential suites must catch counter-wrap bugs
and a wrong transition-memo step.

    python3 .github/scripts/mutants.py

Each mutant below edits crates/core/src/compiled.rs: the script applies
the edit (failing unless its pattern matches exactly once), runs the
differential suites with a default debug `cargo test`, and requires a
test failure (`test result: FAILED`), not a build error. compiled.rs is
restored on every exit path, an interrupt included.

* A fused program keeps each range counter in the high 32 bits of a cell
  word and reads it with `cell_cpt`. Two mutants make that read wrap at
  2^8 and at 2^16. The suites draw their cases from `lomon_gen::cases`; a
  change that stops the generator from reaching range bounds of 2^8 and
  2^16 fails here.
* An untimed monitor serves a step it has seen before from its transition
  memo (`apply_memo`). A mutant drops the served step's `ops` delta, so a
  change that keeps the suites from reaching memo-served steps fails here.
"""

import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TARGET = ROOT / "crates" / "core" / "src" / "compiled.rs"
CELL_CPT = "fn cell_cpt(word: u64) -> u32 {\n    (word >> 32) as u32\n}"
MEMO_OPS = "        self.ops += entry >> MEMO_OPS_SHIFT;\n"
# (label, pattern, replacement)
MUTANTS = [
    ("counter read wraps at 2^8", CELL_CPT, CELL_CPT.replace("as u32\n", "as u8 as u32\n")),
    ("counter read wraps at 2^16", CELL_CPT, CELL_CPT.replace("as u32\n", "as u16 as u32\n")),
    ("memo-served step drops its ops delta", MEMO_OPS, ""),
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
    for label, pattern, _ in MUTANTS:
        if original.count(pattern) != 1:
            print(f"FAIL: {label}: pattern matches {original.count(pattern)} times in {TARGET}, not once")
            return 1
    # SIGTERM unwinds through `finally` like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ok = True
    try:
        for label, pattern, replacement in MUTANTS:
            TARGET.write_text(original.replace(pattern, replacement))
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
