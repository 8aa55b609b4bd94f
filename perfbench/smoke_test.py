#!/usr/bin/env python3
"""Smoke test of the benchmark, finishing in seconds.

Usage, from the repository root:  python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json on the reduced (--smoke)
inputs, untraced and traced, and checks that each run is correct
against the smoke goldens, fails no operation, and prints exactly
the metric names and units BENCHMARK.json declares.  Exits 1 on the
first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            result = run(workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                sys.exit(f"FAIL {label}: incorrect result {result}")
            if got != expected:
                sys.exit(f"FAIL {label}: metrics differ from BENCHMARK.json"
                         f"\n  expected {expected}\n  got      {got}")
            print(f"ok  {label}")


if __name__ == "__main__":
    main()
