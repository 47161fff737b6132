#!/usr/bin/env python3
"""Peak-RSS gate of `lomon check`: its memory must not grow with the trace.

    python3 .github/scripts/bounded_memory.py write <trace> <events>
    python3 -S -I .github/scripts/bounded_memory.py measure <lomon> <trace>...

`write` writes a clean trace of `events` events (about 16 bytes each, so
2,000,000 events make ~33 MB). `measure` runs `lomon check` on each trace
in turn, prints its peak RSS, and fails if `check` exits non-zero or peaks
at LIMIT_MB or more on any of them.

Run `measure` in a fresh process, not in the one that wrote the trace:
Linux counts the pre-exec image of a spawned child in its `ru_maxrss`, so
the measuring process must stay small (`-S -I` keeps the interpreter at
~8 MB instead of ~13 MB).
"""

import os
import sys

LIMIT_MB = 32
PROPERTY = "all{a, b, c} << go repeated"
NAMES = ("a", "b", "c", "go")


def write(path, events):
    with open(path, "w") as f:
        for start in range(0, events, 10_000):
            f.write("".join(f"{10 * i}ns in {NAMES[i % 4]}\n"
                            for i in range(start, min(start + 10_000, events))))


def measure(lomon, paths):
    failed = False
    for path in paths:
        devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
        argv = [lomon, "check", path, PROPERTY]
        pid = os.posix_spawn(lomon, argv, os.environ, file_actions=devnull)
        _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024
        size_mb = os.path.getsize(path) / 1e6
        print(f"check on {size_mb:.1f} MB trace: exit {code}, peak RSS {rss_mb:.1f} MB "
              f"(limit {LIMIT_MB} MB)")
        failed |= code != 0 or rss_mb >= LIMIT_MB
    return 1 if failed else 0


def main(argv):
    if len(argv) == 3 and argv[0] == "write":
        write(argv[1], int(argv[2]))
        return 0
    if len(argv) >= 3 and argv[0] == "measure":
        return measure(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
