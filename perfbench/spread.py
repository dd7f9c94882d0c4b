#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule measures it.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the repository root. For each workload, runs perfbench/run.py
once per seed (first-seed, first-seed + 1, ...) and prints, per
end-to-end metric, the median and the interquartile distance as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's
bound from BENCHMARK.json. A spread at or above a third of the bound is
flagged. Exits non-zero if a run fails or a spread other than setup_s
reaches its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]])
    a = p.parse_args()
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: run failed", file=sys.stderr)
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{w}")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / median
            flag = ""
            if share >= bounds[name]:
                flag = "  OVER BOUND"
                ok = ok and name == "setup_s"
            elif share >= bounds[name] / 3:
                flag = "  over bound/3"
            print(f"  {name:22} median {median:<12.6g} spread {share:7.4f}"
                  f"  bound {bounds[name]:<5} range {min(vs):.6g}..{max(vs):.6g}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
