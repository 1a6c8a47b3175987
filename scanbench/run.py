#!/usr/bin/env python3
"""Scan-to-fix benchmark entry point.

Run from the root of a checkout:

    python3 scanbench/run.py --workload house_fleet --seed 1 --seconds 10 --trace 0

It builds `scanbench` from the checkout's sources (Release, into
.bench_build/scanbench; the first build takes about a minute and later
runs only check it is up to date), synthesizes the seeded inputs of the
workload into .bench_build/inputs/ unless they are cached there, and
runs the workload. The last line of standard output is the JSON result;
build output goes to standard error. The exit code is non-zero when the
build fails, an output check fails, or the run errors.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "scanbench"
BUILD = ROOT / ".bench_build"
# Cached input sets kept per workload; campus inputs are ~11 MB each.
KEEP_INPUTS = 4
RUN_TIMEOUT_S = 170
WORKLOADS = ("house_fleet", "campus_fleet", "office_republish")


def build(build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "scanbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "scanbench"


def inputs_for(exe: Path, workload: str, seed: int) -> Path:
    cache = BUILD / "inputs"
    target = cache / f"{workload}-seed{seed}"
    if target.is_dir():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    tmp = cache / f".{target.name}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    subprocess.run([str(exe), "synth", "--workload", workload, "--seed",
                    str(seed), "--out", str(tmp)],
                   check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    os.replace(tmp, target)
    cached = sorted(cache.glob(f"{workload}-seed*"),
                    key=lambda p: p.stat().st_mtime)
    for old in cached[:-KEEP_INPUTS]:
        shutil.rmtree(old, ignore_errors=True)
    return target


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        exe = build(BUILD / "scanbench")
        inputs = inputs_for(exe, args.workload, args.seed)
        result = subprocess.run(
            [str(exe), "run", "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", repr(args.seconds), "--trace",
             str(args.trace), "--inputs", str(inputs)],
            timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"scanbench: {e}", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
