"""Count the code lines of each crate, the size measure CHANGES.md quotes.

Run from the root of the repository:

    python3 .github/scripts/code_lines.py

A code line is a line of a `.rs` file under `crates/*/src/` or `src/`,
before the file's first `#[cfg(test)]`, that is neither blank nor a
comment (after leading whitespace, it does not start with `//`, which
also covers `///` and `//!` docs). Unit tests, integration tests,
examples, benches and vendored crates are not counted. Prints one line
per crate, sorted by path, then the total.
"""

import pathlib
import sys


def code_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            text = line.strip()
            if text.startswith("#[cfg(test)]"):
                break
            if text and not text.startswith("//"):
                count += 1
    return count


def main():
    root = pathlib.Path(__file__).resolve().parents[2]
    crates = sorted(p for p in (root / "crates").glob("*/src") if p.is_dir())
    total = 0
    for src in crates + [root / "src"]:
        lines = sum(code_lines(p) for p in sorted(src.rglob("*.rs")))
        total += lines
        print(f"{lines:>7}  {src.relative_to(root)}")
    print(f"{total:>7}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
