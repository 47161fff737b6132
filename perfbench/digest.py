"""Reduce each `lomon` surface's output to the digest the generator's
in-process reference is written in: every property's verdict, the
diagnostics of the violated ones, and the dispatch counters.

    {"v": ["presumably satisfied", ...], "d": {"3": "..."}, "s": {"events": ..., ...}}

Per-property ops counters are not part of any surface's output; the
aggregate counters in "s" (monitor steps, skipped steps, shared hits) stand
for them. The interpreter-oracle comparison in the generator checks the
per-property ops.
"""

import json
import re

STATS = ("events", "monitor_steps", "steps_skipped", "retired", "total_cells",
         "unique_cells", "shared_hits", "violations")

DISPATCH = re.compile(
    r"  dispatch: (\d+) events x \d+ properties: (\d+) monitor steps "
    r"\((\d+) skipped live, \d+ naive\)(?:; fused (\d+) cells into (\d+) \((\d+) shared hits\))?")


def _finish(verdicts, diagnostics, stats):
    count = max(verdicts) + 1 if verdicts else 0
    return {"v": [verdicts.get(i) for i in range(count)], "d": diagnostics,
            "s": {k: stats[k] for k in STATS if stats and k in stats}}


def same(out, ref, stats_only=False):
    """Whether a surface's digest agrees with the reference (on the stats
    keys the surface reports)."""
    if out is None or not out["s"]:
        return False
    if any(out["s"][k] != ref["s"][k] for k in out["s"]):
        return False
    return stats_only or (out["v"] == ref["v"] and out["d"] == ref["d"])


def from_check(obj):
    """One `check --format json` line."""
    verdicts = {p["index"]: p["verdict"] for p in obj["properties"]}
    diagnostics = {str(p["index"]): p["diagnostic"] for p in obj["properties"]
                   if "diagnostic" in p}
    return _finish(verdicts, diagnostics, obj["stats"])


def from_ndjson_lines(lines):
    """`watch --format ndjson` stdout: verdict lines and the summary."""
    verdicts, diagnostics, stats = {}, {}, None
    for line in lines:
        if not line.strip():
            continue
        obj = json.loads(line)
        if "property" in obj and "index" in obj:
            verdicts[obj["index"]] = obj["verdict"]
            if "diagnostic" in obj:
                diagnostics[str(obj["index"])] = obj["diagnostic"]
        elif obj.get("summary") is True:
            stats = obj["stats"]
        elif obj.get("type") == "error":
            return None
    return _finish(verdicts, diagnostics, stats) if stats else None


def from_text_report(text):
    """`watch` (trace format) stderr: the final text report."""
    verdicts, diagnostics, stats = {}, {}, None
    last = None
    for line in text.splitlines():
        if line.startswith("  [") and "] " in line:
            last = len(verdicts)
            verdicts[last] = line[3:line.index("] ")]
        elif line.startswith("      ") and last is not None and str(last) not in diagnostics:
            diagnostics[str(last)] = line.strip()
        else:
            m = DISPATCH.match(line)
            if m:
                stats = {"events": int(m[1]), "monitor_steps": int(m[2]),
                         "steps_skipped": int(m[3])}
                if m[4]:
                    stats.update(total_cells=int(m[4]), unique_cells=int(m[5]),
                                 shared_hits=int(m[6]))
    return _finish(verdicts, diagnostics, stats) if stats else None


def from_serve_frames(lines, full=True):
    """The frames of one `serve` connection, one digest per stream. With
    `full` off, only the summary frames are decoded."""
    streams = {}
    for line in lines:
        if not full and b"summary" not in line:
            continue
        obj = json.loads(line)
        kind = obj.get("type")
        if kind not in ("verdict", "summary"):
            continue
        st = streams.setdefault(obj["stream"], ({}, {}, [None]))
        if kind == "verdict":
            st[0][obj["index"]] = obj["verdict"]
            if "diagnostic" in obj:
                st[1][str(obj["index"])] = obj["diagnostic"]
        else:
            st[2][0] = obj["stats"]
    return [_finish(v, d, s[0]) if s[0] else None
            for _, (v, d, s) in sorted(streams.items())]
