#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cg-64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the PPM libraries from
src/ plus the benchmark program) in Release mode under .bench_build/; later
calls only rebuild what changed. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. perfbench/README.md lists
the workloads and metrics.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
TMP = ROOT / ".bench_build" / "tmp"
# Keep the compiler's and the benchmark's scratch files inside the checkout.
ENV = dict(os.environ, TMPDIR=str(TMP))


def build() -> Path:
    TMP.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=ENV)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr, env=ENV)
    return BUILD / "ppm_perfbench"


def git_commit() -> str:
    # The ceiling keeps git from searching above the checkout for a
    # repository; outside a git checkout the commit is "unknown".
    env = dict(ENV, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    args = [str(binary)] + sys.argv[1:]
    if "--selftest" not in sys.argv[1:]:
        args += ["--git-commit", git_commit(), "--out-dir", str(OUT)]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT, env=ENV).returncode


if __name__ == "__main__":
    sys.exit(main())
