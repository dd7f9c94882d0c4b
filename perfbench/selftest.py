#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload, at the tiny --smoke
size (25 inputs, 1 s windows):

- --trace 0 and --trace 1 runs pass their output checks and emit exactly
  the metrics BENCHMARK.json declares, with its units;
- every traced query equals the library's result (a mismatch fails the
  traced run, so a passing --trace 1 run proves it);
- the decision metrics are bit-identical across two runs on one seed;
- a held-out seed runs through the same command.

Last, the command must fail, printing no result, in a directory holding
only BENCHMARK.json and the benchmark's files. Exits non-zero on the
first failure.
"""

import json
import os
import shutil
import subprocess
import sys

DECISION = ["sim_latency_mean_s", "sim_latency_p95_s", "questions_mean", "correct_rate"]
SEED, HELD_OUT_SEED = 7, 9973


def run(workload, seed, trace, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=cwd)


def result(workload, seed, trace, declared):
    proc = run(workload, seed, trace)
    what = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        sys.exit(f"FAIL {what}: exit code {proc.returncode}")
    r = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {what}: result keys {sorted(r)}")
    if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
        sys.exit(f"FAIL {what}: correct {r['correct']}, {r['failed']}/{r['attempted']} failed")
    emitted = {name: m["unit"] for name, m in r["metrics"].items()}
    if emitted != declared:
        sys.exit(f"FAIL {what}: emitted {emitted}, declared {declared}")
    print(f"ok   {what}: {r['attempted']} runs")
    return r["metrics"]


def main():
    bench = json.load(open("BENCHMARK.json"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        first = result(w, SEED, 0, end_to_end)
        again = result(w, SEED, 0, end_to_end)
        for name in DECISION:
            if first[name]["value"] != again[name]["value"]:
                sys.exit(f"FAIL {w}: {name} differs across runs of seed {SEED}")
        print(f"ok   {w}: decision metrics bit-identical on seed {SEED}")
        result(w, HELD_OUT_SEED, 0, end_to_end)
        result(w, SEED, 1, per_layer)
    bare = os.path.join(".perfbench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    proc = run(bench["workloads"][0]["name"], SEED, 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("FAIL bare directory: the command did not fail cleanly")
    print("ok   bare directory: fails without a result")


if __name__ == "__main__":
    main()
