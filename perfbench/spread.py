#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's median and
spread (interquartile distance over the median), the figure a metric's
`bound` in BENCHMARK.json is compared against.

    python3 perfbench/spread.py --workload disjoint-50 --runs 10 [--trace 0] [--first-seed 1]
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        r = subprocess.run(cmd, capture_output=True, text=True)
        if r.returncode != 0:
            print(f"seed {seed}: exit {r.returncode}\n{r.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(r.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()),
              file=sys.stderr, flush=True)
    expected = {m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if expected != set(values):
        print(f"metric names differ from BENCHMARK.json: missing {sorted(expected - set(values))}, "
              f"extra {sorted(set(values) - expected)}", file=sys.stderr)
        return 1
    worst = 0.0
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  OVER BOUND/3" if spread > bound / 3 else ""
        print(f"{name:40s} median {med:12.5g}  spread {spread:7.4f}  bound {bound}{flag}")
    print(f"worst spread/bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
