#!/usr/bin/env python3
"""Layer-ledger benchmark for lomon: bytes -> verdicts on every surface.

Run from the root of a lomon checkout:

    python3 perfbench/run.py --workload disjoint-50 --seed 1 --seconds 35 --trace 0

It builds `lomon` and the `perfbench` helper (into $CARGO_TARGET_DIR, by
default `.bench_build`), generates the seeded workload into a temporary
directory under `.perfbench/`, and runs the real `lomon` binary on every
surface: `check`, `watch` (trace text and NDJSON), `serve` (closed and
open loop, from a load generator in this process: one thread, two
connections) and `smc`. Every output is reduced to a per-property digest
and compared with the in-process reference the generator wrote.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs every surface
once more inside spans, times each layer's public functions with the
helper, writes the spans as Chrome trace-event JSON to
`.perfbench/trace-<workload>-<seed>.json`, and prints the per-layer
metrics, including each surface's residual (end-to-end cost minus the sum
of the layers it calls). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. End-to-end timings are
scaled by a host-speed probe measured around each sample (PROBE_REF_S).
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import client  # noqa: E402
import digest  # noqa: E402

WORKLOADS = ("disjoint-50", "overlap-200", "ipu-short-streams")
# The load generator: one thread, at most two connections at a time.
GEN_THREADS = 1
GEN_CONNECTIONS = 2
# Open-loop offered rate, streams per latency block (one block per
# pass) and streams of the traced run's tail block. The end-to-end
# latency is the median; the tail (p90, p99) is logged here and reported
# by the traced run only: on a busy shared 2-vCPU host, whole-VM stalls of
# a few milliseconds made even p90 of an unchanged binary move by 2-5x
# between runs, for every workload alike.
OPEN_RATE = 1000.0
OPEN_BLOCK = 200
TAIL_STREAMS = 1200
# Cold starts of `lomon serve` per run, in blocks with a host probe
# between blocks (setup_s is their median).
SETUP_BLOCKS = 5
SETUP_PER_BLOCK = 5
# Rounds over every surface: at least MIN_ROUNDS, more while another
# round still fits in --seconds. Each round runs `watch` (both forms),
# `serve` (closed loop), `smc` and an open-loop block PASSES times, and
# `check` every other pass (its samples vary least). Each timing is the
# median over its samples; the latency is the median over every open-loop
# stream of the run.
PASSES = 4
MIN_ROUNDS = 3
MAX_ROUNDS = 64
# Host-speed normalisation. On a shared 2-vCPU host, other tenants made
# every surface of an unchanged binary 1.3-1.5x slower for seconds to
# minutes at a time (memory-system contention: a pure-ALU loop slowed by
# 8%, anything that streams through memory as much as `lomon`). A fixed
# probe (`perfbench calibrate`, src/calibrate.rs, no repository code) runs
# right before and right after every sample; each sample is scaled by
# PROBE_REF_S over the mean of those two probes (rates by the inverse), so
# each timing reads as on a host where the probe takes PROBE_REF_S. The
# lines above the result print the timings as measured too.
PROBE_REF_S = 0.045
PROC_TIMEOUT = 120


def log(message):
    print(message, file=sys.stderr, flush=True)


class Failure(Exception):
    """A set-up error: the benchmark cannot run here at all."""


def nproc():
    return len(os.sched_getaffinity(0))


def provenance(threads, connections):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def output(cmd):
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            return r.stdout.strip() if r.returncode == 0 else "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    return {
        "nproc": nproc(),
        "cpu": cpu,
        "rustc": output(["rustc", "-V"]),
        "commit": output(["git", "rev-parse", "HEAD"]),
        "python": platform.python_version(),
        "generator_threads": threads,
        "generator_connections": connections,
    }


def build(root):
    """Build `lomon` and the helper; return their paths."""
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        raise Failure("run from the root of a lomon checkout (no Cargo.toml/crates here)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (("Cargo.toml", ["--bin", "lomon"]), ("perfbench/Cargo.toml", [])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=850)
        if r.returncode != 0:
            raise Failure("cargo build failed for " + manifest)
    release = os.path.join(target, "release")
    return os.path.join(release, "lomon"), os.path.join(release, "perfbench")


# Runs one command and writes "<wall s> <exit code> <peak RSS KiB> <probe
# s>" to a file. It runs in a small process of its own because Linux counts
# the pre-exec image of a child in its ru_maxrss: spawned straight from
# this (large) process, `check` would report this process's RSS, not its
# own. Given a probe binary, it runs the host probe right before and right
# after the command (checksums to <file>.probe) and reports their mean; with
# width 2, two probes at once each time, and the slower of the two.
SPAWN = """
import os, sys, time
out, probe, width, cmd = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]

def timed(argv, actions=()):
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss

def probed():
    fd = os.open(out + ".probe", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    t0 = time.perf_counter()
    pids = [os.posix_spawn(probe, [probe, "calibrate"], os.environ,
                           file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1)]) for _ in range(width)]
    ok = all(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0 for pid in pids)
    wall = time.perf_counter() - t0
    os.close(fd)
    return wall if ok else float("nan")

before = probed() if probe else 0.0
wall, code, rss = timed(cmd)
after = probed() if probe else 0.0
with open(out, "w") as f:
    f.write(f"{wall!r} {code} {rss} {(before + after) / 2!r}")
"""


def run_timed(cmd, cwd, stdin_path=None, out_path=None, err_path=None, probe="", width=1):
    """Run one process, between two host probes `width` wide if `probe`
    names the helper; return (wall seconds, exit code, peak RSS in MB,
    probe seconds)."""
    result = os.path.join(cwd, "timed.result")
    if os.path.exists(result + ".probe"):
        os.unlink(result + ".probe")
    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    out = open(out_path, "wb") if out_path else subprocess.DEVNULL
    err = open(err_path, "wb") if err_path else subprocess.DEVNULL
    try:
        proc = subprocess.Popen([sys.executable, "-c", SPAWN, result, probe, str(width)] + cmd,
                                cwd=cwd,
                                stdin=stdin, stdout=out, stderr=err, start_new_session=True)
        try:
            proc.wait(timeout=PROC_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, 9)
            proc.wait()
            raise Failure(f"{cmd[1]} did not finish within {PROC_TIMEOUT} s")
        with open(result) as f:
            wall, code, rss_kb, probe_s = f.read().split()
        if probe:
            with open(result + ".probe") as f:
                sums = f.read().split()
            if len(sums) != 2 * width or len(set(sums)) != 1 or probe_s == "nan":
                raise Failure("host probe failed: " + " ".join(sums))
        return float(wall), int(code), int(rss_kb) / 1024.0, float(probe_s)
    finally:
        for f in (stdin, out, err):
            if hasattr(f, "close"):
                f.close()


class Ledger:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, what, attempted, failed, reason=""):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 20:
            self.reasons.append(f"{what}: {failed}/{attempted} failed {reason}".rstrip())


class Spans:
    """Spans of the benchmark's own surface calls (name, start, end, parent)."""

    def __init__(self):
        self.origin = time.perf_counter_ns()
        self.spans = []
        self.open = []

    def start(self, name, work=0, unit="event"):
        span = {"name": name, "start": time.perf_counter_ns() - self.origin, "end": None,
                "parent": self.open[-1] if self.open else None, "work": work, "unit": unit,
                "id": len(self.spans)}
        self.spans.append(span)
        self.open.append(span["id"])
        return span

    def end(self, span, work=None):
        span["end"] = time.perf_counter_ns() - self.origin
        if work is not None:
            span["work"] = work
        self.open.pop()


class Series:
    """Samples of one timing, each with the host probe time around it."""

    def __init__(self):
        self.values = []
        self.probes = []

    def add(self, value, probe):
        self.values.append(value)
        self.probes.append(probe)

    def time(self, unit):
        """(median scaled to the reference host, unit, median as measured)."""
        scaled = [v * PROBE_REF_S / p for v, p in zip(self.values, self.probes)]
        return statistics.median(scaled), unit, statistics.median(self.values)

    def rate(self, unit):
        scaled = [v * p / PROBE_REF_S for v, p in zip(self.values, self.probes)]
        return statistics.median(scaled), unit, statistics.median(self.values)

    def probe_ms(self):
        return statistics.median(self.probes) * 1e3


class Bench:
    def __init__(self, args, root, lomon, helper):
        self.args = args
        self.root = root
        self.lomon = lomon
        self.helper = helper
        self.dir = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
        # The helper, while the untraced rounds bracket each timed process
        # with host probes; empty otherwise.
        self.probe_bin = ""
        self.ledger = Ledger()

    # -- inputs -------------------------------------------------------

    def generate(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        r = subprocess.run([self.helper, "gen", self.args.workload, str(self.args.seed), self.dir],
                           stdout=sys.stderr, timeout=PROC_TIMEOUT)
        if r.returncode != 0:
            raise Failure("workload generation failed")
        with open(os.path.join(self.dir, "manifest.json")) as f:
            self.m = json.load(f)
        self.props = self.m["properties"]
        self.ledger.record("interp oracle sample", self.m["interp_checked"],
                           self.m["interp_mismatches"])
        if self.m["label_checked"]:
            self.ledger.record("fault labels", self.m["label_checked"], self.m["label_mismatches"])
        whole = self.m["closed_whole"]
        if whole:
            with open(os.path.join(self.dir, "main.ndjson"), "rb") as f:
                main = f.read()
            self.closed = [[main], [main]]
            self.closed_refs = [[self.m["closed_ref"][0]], [self.m["closed_ref"][0]]]
        with open(os.path.join(self.dir, "short.ndjson"), "rb") as f:
            self.short = client.split_streams(f.read())
        if not whole:
            self.closed = [self.short[c::GEN_CONNECTIONS] for c in range(GEN_CONNECTIONS)]
            self.closed_refs = [self.m["closed_ref"][c::GEN_CONNECTIONS]
                                for c in range(GEN_CONNECTIONS)]
        self.watch_text = "main.trace" if whole else "watch.trace"
        self.watch_ndjson = "main.ndjson" if whole else "watch.ndjson"
        # The reference digests are a large, long-lived object graph: keep
        # the collector from walking it in the middle of a timed phase.
        gc.collect()
        gc.freeze()

    def path(self, name):
        return os.path.join(self.dir, name)

    # -- surfaces -----------------------------------------------------

    def check(self):
        cmd = [self.lomon, "check", "--format", "json"] + self.m["files"] + self.props
        wall, code, rss, probe = run_timed(cmd, self.dir, out_path=self.path("check.out"),
                                           err_path=self.path("check.err"), probe=self.probe_bin)
        refs = self.m["check_ref"]
        with open(self.path("check.out")) as f:
            outs = [digest.from_check(json.loads(line)) for line in f if line.strip()]
        bad = sum(1 for a, b in zip(outs, refs) if not digest.same(a, b)) + abs(len(outs) - len(refs))
        if code != self.m["check_exit"]:
            bad = len(refs)
        self.ledger.record("check", len(refs), bad, f"(exit {code})")
        return wall * 1e9 / self.m["check_events"], rss, probe

    def watch(self, ndjson):
        cmd = [self.lomon, "watch"] + (["--format", "ndjson"] if ndjson else []) + self.props
        stdin = self.path(self.watch_ndjson if ndjson else self.watch_text)
        wall, code, _, probe = run_timed(cmd, self.dir, stdin_path=stdin,
                                         out_path=self.path("watch.out"),
                                         err_path=self.path("watch.err"), probe=self.probe_bin)
        if ndjson:
            with open(self.path("watch.out"), "rb") as f:
                out = digest.from_ndjson_lines(f.read().splitlines())
        else:
            with open(self.path("watch.err"), errors="replace") as f:
                out = digest.from_text_report(f.read())
        ok = code == self.m["watch_exit"] and digest.same(out, self.m["watch_ref"])
        self.ledger.record("watch " + ("ndjson" if ndjson else "trace"), 1, 0 if ok else 1,
                           f"(exit {code})")
        return wall * 1e9 / self.m["watch_events"], probe

    def smc(self, jobs):
        cmd = [self.lomon, "smc"] + self.m["smc_args"] + ["--jobs", str(jobs),
                                                           "--seed", str(self.args.seed)]
        out = self.path(f"smc{jobs}.out")
        # Two workers at once: probed two wide, so the probe sees the
        # slower of the two vCPUs, as the campaign's critical path does.
        wall, code, _, probe = run_timed(cmd, self.dir, out_path=out, err_path=self.path("smc.err"),
                                         probe=self.probe_bin, width=jobs)
        with open(out, "rb") as f:
            report = f.read()
        episodes = int(self.m["smc_args"][self.m["smc_args"].index("--episodes") + 1])
        return wall, code, report, episodes, probe

    def smc_rate(self):
        wall, code, report, episodes, probe = self.smc(2)
        self.smc_reports.append(report)
        self.ledger.record("smc", episodes, 0 if code == 0 and report else episodes,
                           f"(exit {code})")
        return episodes / wall, probe

    def smc_identity(self):
        """The smc report must not depend on the worker count."""
        _, code, report, episodes, _ = self.smc(1)
        ok = code == 0 and all(r == report for r in self.smc_reports)
        self.ledger.record("smc jobs 1 vs 2", episodes, 0 if ok else episodes)

    def serve_closed(self, server, conns):
        streams = self.closed[:conns]
        result = client.closed_loop(server.addr, streams)
        self.check_frames("serve closed", result, self.closed_refs[:conns], full=True)
        events = sum(d["s"]["events"] for refs in self.closed_refs[:conns] for d in refs)
        return result, events

    def serve_open(self, server, count, first=0):
        picks = [(first + i) % len(self.short) for i in range(count)]
        streams = [self.short[i] for i in picks]
        refs = [self.m["short_ref"][i] for i in picks]
        gc.disable()
        try:
            result = client.open_loop(server.addr, streams, OPEN_RATE, GEN_CONNECTIONS)
        finally:
            gc.enable()
        per_conn = [refs[c::GEN_CONNECTIONS] for c in range(GEN_CONNECTIONS)]
        self.check_frames("serve open", result, per_conn, full=False)
        return result

    def check_frames(self, what, result, refs, full):
        for c, conn_refs in enumerate(refs):
            got = digest.from_serve_frames(result.frames[c], full)
            bad = abs(len(got) - len(conn_refs))
            for out, ref in zip(got, conn_refs):
                bad += 0 if digest.same(out, ref, stats_only=not full) else 1
            self.ledger.record(what, len(conn_refs), min(bad, len(conn_refs)))
        bad_frames = result.error_frames + result.overload_frames
        if bad_frames:
            self.ledger.record(what + " error/overload frames", bad_frames, bad_frames)

    def probe(self):
        """Seconds the host-speed probe takes now."""
        r, w = os.pipe()
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(self.helper, [self.helper, "calibrate"], os.environ,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, w, 1)])
            _, status = os.waitpid(pid, 0)
            wall = time.perf_counter() - t0
            os.close(w)
            w = None
            checksum = os.read(r, 256).decode().strip()
        finally:
            os.close(r)
            if w is not None:
                os.close(w)
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or checksum != getattr(self, "checksum", checksum):
            raise Failure(f"host probe failed (exit {code}, checksum {checksum})")
        self.checksum = checksum
        return wall

    # -- runs ---------------------------------------------------------

    def untraced(self):
        series = {k: Series() for k in ("setup", "check", "watch_trace", "watch_ndjson",
                                        "serve", "smc", "latency")}
        rss, tails, late = [], [], []

        def bracketed(name, measure, samples=lambda r: r):
            """Run `measure` (in this process) between two host probes."""
            before = self.probe()
            result = measure()
            probe = (before + self.probe()) / 2
            for value in samples(result):
                series[name].add(value, probe)
            return result

        def starts():
            out = []
            for _ in range(SETUP_PER_BLOCK):
                server = client.Server(self.lomon, self.dir)
                out.append(server.start_to_ready)
                server.stop()
            return out

        for _ in range(SETUP_BLOCKS):
            bracketed("setup", starts)
        self.probe_bin = self.helper
        server = client.Server(self.lomon, self.dir)
        self.smc_reports = []
        try:
            t0 = time.perf_counter()
            rounds = 0
            while True:
                for i in range(PASSES):
                    if i % 2 == 0:
                        ns, peak, probe = self.check()
                        rss.append(peak)
                        series["check"].add(ns, probe)
                    series["watch_trace"].add(*self.watch(False))
                    series["watch_ndjson"].add(*self.watch(True))
                    bracketed("serve", lambda: self.serve_closed(server, GEN_CONNECTIONS),
                              lambda r: [r[1] / r[0].elapsed])
                    series["smc"].add(*self.smc_rate())
                    first = len(tails) * OPEN_BLOCK
                    opened = bracketed("latency",
                                       lambda: self.serve_open(server, OPEN_BLOCK, first),
                                       lambda r: [v * 1e6 for v in r.latencies])
                    lat = sorted(opened.latencies)
                    tails.append((percentile(lat, 50) * 1e6, percentile(lat, 90) * 1e6,
                                  percentile(lat, 99) * 1e6))
                    late.extend(opened.late)
                rounds += 1
                spent = time.perf_counter() - t0
                if rounds >= MIN_ROUNDS and (rounds >= MAX_ROUNDS
                                             or spent * (rounds + 1) / rounds > self.args.seconds):
                    break
        finally:
            server.stop()
            self.probe_bin = ""
        self.smc_identity()
        log(f"rounds: {rounds}, each with {PASSES} open-loop blocks of {OPEN_BLOCK} streams at "
            f"{OPEN_RATE:.0f}/s; generator late p99 {percentile(sorted(late), 99) * 1e3:.3f} ms")
        for name, s in series.items():
            if name != "latency":
                log(f"  {name} as measured @ probe ms: "
                    + " ".join(f"{v:.4g}@{p * 1e3:.1f}" for v, p in zip(s.values, s.probes)))
        log("  latency p50/p90/p99 us per block: "
            + " ".join(f"{a:.0f}/{b:.0f}/{c:.0f}" for a, b, c in tails))
        print(f"{self.args.workload} host probe = {series['check'].probe_ms():.6g} ms "
              f"(median; reference {PROBE_REF_S * 1e3:g} ms)")
        return {
            "setup_s": series["setup"].time("s"),
            "check_ns_per_event": series["check"].time("ns"),
            "check_peak_rss_mb": (statistics.median(rss), "MB", None),
            "watch_trace_ns_per_event": series["watch_trace"].time("ns"),
            "watch_ndjson_ns_per_event": series["watch_ndjson"].time("ns"),
            "serve_events_per_s": series["serve"].rate("1/s"),
            "serve_stream_latency_p50_us": series["latency"].time("us"),
            "smc_episodes_per_s": series["smc"].rate("1/s"),
        }

    def traced(self):
        spans = Spans()
        root = spans.start("bench.traced", 0, "run")
        e2e = {}
        server = client.Server(self.lomon, self.dir)
        try:
            self.smc_reports = []
            s = spans.start("e2e.check", self.m["check_events"])
            e2e["check"], _, _ = self.check()
            spans.end(s)
            s = spans.start("e2e.watch_trace", self.m["watch_events"])
            e2e["watch_trace"], _ = self.watch(False)
            spans.end(s)
            s = spans.start("e2e.watch_ndjson", self.m["watch_events"])
            e2e["watch_ndjson"], _ = self.watch(True)
            spans.end(s)
            s = spans.start("e2e.serve_single_conn")
            result, events = self.serve_closed(server, 1)
            spans.end(s, events)
            e2e["serve_single"] = result.elapsed * 1e9 / events
            s = spans.start("e2e.serve_connect_ready", 0, "connection")
            ready = client.connect_ready(server.addr, 50)
            spans.end(s, len(ready))
            s = spans.start("e2e.serve_end_summary", 0, "stream")
            summary = client.end_summary(server.addr, self.short[:200])
            spans.end(s, len(summary))
            s = spans.start("e2e.serve_open_loop", 0, "stream")
            opened = self.serve_open(server, TAIL_STREAMS)
            spans.end(s, len(opened.latencies))
            latencies = sorted(opened.latencies)
        finally:
            server.stop()
        spans.end(root)
        layer_spans = self.path("layers.json")
        s_layers = spans.start("bench.layers", 0, "run")
        r = subprocess.run([self.helper, "layers", self.args.workload, str(self.args.seed),
                            self.dir, str(max(self.args.seconds / 2, 1)), layer_spans],
                           capture_output=True, text=True, timeout=PROC_TIMEOUT)
        spans.end(s_layers)
        if r.returncode != 0:
            raise Failure("layer run failed: " + r.stderr.strip())
        counts = json.loads(r.stdout.strip().splitlines()[-1])
        with open(layer_spans) as f:
            rust = json.load(f)["traceEvents"]
        layer = layer_metrics(rust)
        trace_events = to_chrome(spans.spans, pid=1) + rebase(rust, s_layers["start"] / 1e3)
        out = os.path.join(self.root, ".perfbench",
                           f"trace-{self.args.workload}-{self.args.seed}.json")
        with open(out, "w") as f:
            json.dump({"traceEvents": trace_events,
                       "otherData": provenance(GEN_THREADS, GEN_CONNECTIONS)}, f)
        log(f"spans: {out}")

        m = self.m
        per_file = m["check_events"] / len(m["files"])
        short_events = m["short_events"] / len(self.short)
        props = len(self.props)
        stream_tail = (layer["engine.close"] + layer["engine.reset"]
                       + props * (layer["engine.drain"] + layer["engine.render"]))
        serve_per_stream = (short_events if not m["closed_whole"]
                            else m["closed_ref"][0]["s"]["events"])
        return {
            "trace.read_ns_per_event": (layer["trace.read"], "ns"),
            "trace.intern_ns_per_event": (layer["trace.intern"], "ns"),
            "trace.decode_text_ns_per_event": (layer["trace.decode_text"], "ns"),
            "trace.decode_line_ns_per_event": (layer["trace.decode_line"], "ns"),
            "trace.frame_ns_per_event": (layer["trace.frame"], "ns"),
            "trace.decode_ndjson_ns_per_event": (layer["trace.decode_ndjson"], "ns"),
            "trace.resolve_ns_per_event": (layer["trace.resolve"], "ns"),
            "trace.bytes_per_event": (counts["trace.bytes_per_event"], "B"),
            "engine.compile_ms": (layer["engine.compile"] / 1e6, "ms"),
            "engine.analysis_ms": (layer["engine.analysis"] / 1e6, "ms"),
            "engine.step_batch_ns_per_event": (layer["engine.step_batch"], "ns"),
            "engine.step_event_ns_per_event": (layer["engine.step_event"], "ns"),
            "engine.monitor_steps_per_event": (counts["engine.monitor_steps_per_event"], "count"),
            "engine.steps_skipped_per_event": (counts["engine.steps_skipped_per_event"], "count"),
            "engine.shared_hits_per_event": (counts["engine.shared_hits_per_event"], "count"),
            "engine.advance_ns_per_call": (layer["engine.advance"], "ns"),
            "engine.reset_ns_per_stream": (layer["engine.reset"], "ns"),
            "engine.resume_ns_per_stream": (layer["engine.resume"], "ns"),
            "engine.close_ns_per_stream": (layer["engine.close"], "ns"),
            "engine.drain_ns_per_verdict": (layer["engine.drain"], "ns"),
            "engine.render_ns_per_verdict": (layer["engine.render"], "ns"),
            "engine.report_render_us_per_stream": (layer["engine.report"] / 1e3, "us"),
            "serve.connect_ready_us": (statistics.median(ready) * 1e6, "us"),
            "serve.end_summary_us": (statistics.median(summary) * 1e6, "us"),
            "serve.single_conn_ns_per_event": (e2e["serve_single"], "ns"),
            "serve.stream_latency_p90_us": (percentile(latencies, 90) * 1e6, "us"),
            "serve.stream_latency_p99_us": (percentile(latencies, 99) * 1e6, "us"),
            "serve.generator_late_ms": (percentile(sorted(opened.late), 99) * 1e3, "ms"),
            "serve.error_frames": (opened.error_frames + result.error_frames, "count"),
            "serve.overload_frames": (opened.overload_frames + result.overload_frames, "count"),
            "tlm.scenario_us_per_episode": (layer["tlm.scenario"] / 1e3, "us"),
            "engine.episode_monitor_us": (layer["engine.episode_monitor"] / 1e3, "us"),
            "smc.episode_us": (layer["smc.episode"] / 1e3, "us"),
            "check.residual_ns_per_event": (e2e["check"] - (
                layer["trace.read"] + layer["trace.intern"] + layer["trace.decode_text"]
                + layer["engine.step_batch"]
                + (layer["engine.reset"] + layer["engine.close"] + layer["engine.report"])
                / per_file), "ns"),
            "watch_trace.residual_ns_per_event": (e2e["watch_trace"] - (
                layer["trace.decode_line"] + layer["trace.resolve"] + layer["engine.step_event"]), "ns"),
            "watch_ndjson.residual_ns_per_event": (e2e["watch_ndjson"] - (
                layer["trace.decode_ndjson"] + layer["trace.resolve"]
                + layer["engine.step_event"]), "ns"),
            "serve.residual_ns_per_event": (e2e["serve_single"] - (
                layer["trace.frame"] + layer["trace.decode_ndjson"] + layer["trace.resolve"]
                + layer["engine.step_event"] + stream_tail / serve_per_stream), "ns"),
            "bench.tracing_overhead": (counts["bench.tracing_overhead"], "ratio"),
        }


def percentile(sorted_values, p):
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, max(0, int(round(p / 100.0 * len(sorted_values))) - 1))
    return sorted_values[k]


def self_times(events):
    """Self time of each span: its duration minus what its children cover."""
    by_id = {e["args"]["id"]: e for e in events}
    child = {i: 0.0 for i in by_id}
    for e in events:
        parent = e["args"]["parent"]
        if parent is not None:
            child[parent] += e["dur"]
    return {i: by_id[i]["dur"] - child[i] for i in by_id}


def layer_metrics(events):
    """Median over a layer's spans of self time per unit of work, in ns."""
    selfs = self_times(events)
    per = {}
    for e in events:
        work = e["args"]["work"]
        if work:
            per.setdefault(e["name"], []).append(selfs[e["args"]["id"]] * 1e3 / work)
    return {name: statistics.median(v) for name, v in per.items()}


def rebase(events, offset_us):
    out = []
    for e in events:
        e = dict(e)
        e["ts"] = e["ts"] + offset_us
        out.append(e)
    return out


def to_chrome(spans, pid):
    return [{"name": s["name"], "ph": "X", "pid": pid, "tid": 1, "ts": s["start"] / 1e3,
             "dur": (s["end"] - s["start"]) / 1e3,
             "args": {"id": s["id"], "parent": s["parent"], "work": s["work"],
                      "unit": s["unit"]}} for s in spans]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if GEN_THREADS > nproc() or GEN_CONNECTIONS > nproc():
        log(f"refusing to run: the generator would use {GEN_THREADS} thread(s) and "
            f"{GEN_CONNECTIONS} connection(s) on {nproc()} CPU(s)")
        return 2
    bench = None
    try:
        lomon, helper = build(root)
        bench = Bench(args, root, lomon, helper)
        prov = provenance(GEN_THREADS, GEN_CONNECTIONS)
        print("provenance: " + json.dumps(prov, sort_keys=True))
        bench.generate()
        metrics = bench.traced() if args.trace else bench.untraced()
    except (Failure, client.ServeError, subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        if bench is not None:
            shutil.rmtree(bench.dir, ignore_errors=True)
    ledger = bench.ledger
    failed_ratio = ledger.failed / max(ledger.attempted, 1)
    for name, (value, unit, *measured) in metrics.items():
        raw = f" (as measured {measured[0]:.6g})" if measured and measured[0] is not None else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{raw}")
    print(f"{args.workload} failed_ratio = {failed_ratio:.6g} ({ledger.failed}/{ledger.attempted})")
    for reason in ledger.reasons:
        log("MISMATCH " + reason)
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
