#!/usr/bin/env python3
"""Build and run the LightPC simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --test

NAME is fleet_nemesis, kv_service, machine_sng, ras_media, or all.
The first call configures and builds perfbench/ (and the simulator
library from src/) into .bench_build/perfbench; later calls rebuild
only what changed. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; see perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fleet_nemesis", "kv_service", "machine_sng", "ras_media")

# set-up is measured this many extra times, in fresh processes
SETUP_PROBES = 20
# every child process is stopped after this long
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def run_child(cmd):
    """Run one benchmark process; returns (exit code, stdout lines)."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"timed out: {' '.join(cmd)}")
    return proc.returncode, out.splitlines()


def setup_seconds(binary, workload, seed):
    """Set-up CPU seconds of fresh processes (start to first trial)."""
    values = []
    for _ in range(SETUP_PROBES):
        code, lines = run_child([str(binary), "--workload", workload,
                                 "--seed", str(seed), "--setup-only"])
        if code != 0 or not lines:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        values.append(json.loads(lines[-1])["setup_s"])
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.test and not args.workload:
        ap.error("--workload is required")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        return 2

    if args.test:
        return subprocess.run(["ctest", "--test-dir", str(BUILD),
                               "--output-on-failure"]).returncode

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--pins", str(HERE / "pins.txt")]
    if args.trace:
        trace = BUILD / f"trace-{args.workload}-{args.seed}.json"
        cmd += ["--trace-out", str(trace)]
    try:
        probes = []
        if not args.trace and args.workload != "all":
            probes = setup_seconds(binary, args.workload, args.seed)
        code, lines = run_child(cmd)
    except (RuntimeError, OSError, ValueError, KeyError) as err:
        log(f"perfbench: {err}")
        return 1
    if not lines or not lines[-1].startswith("{"):
        log(f"perfbench: no result (exit code {code})")
        return code or 1

    result = json.loads(lines[-1])
    if probes:
        setup = result["metrics"]["setup_s"]
        setup["value"] = statistics.median(probes + [setup["value"]])
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
