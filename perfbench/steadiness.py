#!/usr/bin/env python3
"""Steadiness report: runs every workload --runs times, alternating
workloads and using a new seed per round, and prints for each workload and
end-to-end metric the median, the quartiles, the interquartile spread and
the max/min spread as shares of the median. A metric whose interquartile
spread exceeds its bound in BENCHMARK.json is flagged (setup_s is reported
but not flagged: only its median is gated).

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1000]
        [--seconds S] [--workloads evaluate,serve]

Run from the root of a checkout; the raw results go to
<build dir>/steadiness.jsonl as they arrive.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    a = p.parse_args()
    workloads = a.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    bench_run.build()
    os.makedirs(bench_run.build_dir(), exist_ok=True)
    log = open(os.path.join(bench_run.build_dir(), "steadiness.jsonl"), "a")
    values = {w: {} for w in workloads}
    failed = {w: 0 for w in workloads}
    for i in range(a.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = a.seed_base + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(a.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failed[w] += result["failed"]
            log.write(json.dumps({"workload": w, "seed": seed,
                                  "result": result}) + "\n")
            log.flush()
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i + 1}/{a.runs} {w} seed {seed}: "
                  f"failed {result['failed']}", file=sys.stderr)

    print(f"{a.runs} runs per workload, {a.seconds:g} s each, seeds "
          f"{a.seed_base}..{a.seed_base + a.runs - 1}")
    flagged = 0
    for w in workloads:
        print(f"\n== {w} (failed operations: {failed[w]})")
        print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med
            rng = (max(vals) - min(vals)) / med
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and iqr > bound:
                flag = "  OUTSIDE BOUND"
                flagged += 1
            elif bound is not None and iqr > bound / 3:
                flag = "  above bound/3"
            print(f"{name:24} {med:12.4g} {q1:12.4g} {q3:12.4g} "
                  f"{iqr:8.3f} {rng:9.3f} {bound if bound else '-':>6}"
                  f"{flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
