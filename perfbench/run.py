#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload evaluate|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build lives in $CARGO_TARGET_DIR
(default .bench_build) under perfbench/. The binary's output is passed
through; its last line is the JSON result. With --trace 1 the Chrome
trace-event JSON goes to <build dir>/traces/<workload>-seed<N>.json.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    bdir = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True}
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"], **quiet)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", "4"], **quiet)
    return os.path.join(bdir, "perfbench")


def run_binary(cmd):
    """Runs the binary, passing its stdout through; returns (code, lines)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout.strip().splitlines()


def selftest(binary):
    """The binary's own tests, then the metric tables against
    BENCHMARK.json."""
    code, lines = run_binary([binary, "--selftest"])
    failures = 0 if code == 0 else 1
    listed = {}
    for line in lines:
        if line.startswith("metrics "):
            kind, payload = line[len("metrics "):].split(" ", 1)
            listed[kind] = json.loads(payload)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    name_re = re.compile(r"^[A-Za-z0-9_.-]+$")
    for kind, key in (("e2e", "end_to_end"), ("layer", "per_layer")):
        printed = listed.get(kind, {})
        declared = {m["name"]: m["unit"] for m in bench[key]}
        for name, unit in printed.items():
            if not name_re.match(name) or not unit:
                print(f"FAIL metric {name!r} has a bad name or no unit")
                failures += 1
        if printed != declared:
            print(f"FAIL {key}: perfbench prints {sorted(printed.items())}, "
                  f"BENCHMARK.json declares {sorted(declared.items())}")
            failures += 1
    print("selftest:", "ok" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if a.selftest:
        return selftest(binary)
    if a.workload is None:
        p.error("--workload is required")
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{a.workload}-seed{a.seed}.json")]
    code, lines = run_binary(cmd)
    if code != 0 or not lines:
        return code or 1
    json.loads(lines[-1])  # the result line must be JSON
    return 0


if __name__ == "__main__":
    sys.exit(main())
