#!/usr/bin/env python3
"""Build the crowdmax benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The benchmark binary is built from source
with the release profile into its own build directory, then run on one
OCaml domain. Its stdout is passed through: an "info" line (build
profile, OCaml version, nproc, seed, runs per measurement), then the
result line {"correct", "attempted", "failed", "metrics"}. The exit code
is non-zero when the build fails, an argument is bad, or any run fails
its output check.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_DIR = ".perfbench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run_group(cmd, timeout, stdout):
    """Run cmd in its own process group, killing the whole group on timeout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.Popen(cmd, stdout=stdout, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the crowdmax repository root (no dune-project or lib/ here)")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "-j", "2", "./perfbench/main.exe"]
    code, _ = run_group(cmd, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        sys.exit(f"perfbench: build failed with exit code {code}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    build()
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.smoke:
        cmd.append("--smoke")
    code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
