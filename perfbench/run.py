#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <catalog-build|serve-zipf|warm-lazy>
                             --seed N --seconds S --trace <0|1>

Builds perfbench/main.exe from the checkout's sources with dune (into
.bench_build/ at the checkout root), then runs the one workload in its own
process, so its peak RSS is its own. The last line of standard output is the
run's JSON summary; the full result file (and, for --trace 1, the spans as
JSONL) lands in perfbench/_results/. Exits nonzero without a summary when
the sources are missing or do not build, and nonzero after the summary when
a correctness gate failed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(ROOT, "perfbench", "_results")


def git_rev():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("perfbench: %s not found at %s; run from a full checkout"
                     % (needed, ROOT))
    # Environment knobs of the library (CR_*) are set by the benchmark
    # itself, never inherited; the dune cache would write outside the
    # checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CR_")}
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    os.makedirs(RESULTS, exist_ok=True)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    run = subprocess.run(
        [exe] + sys.argv[1:] + ["--out-dir", RESULTS, "--git-rev", git_rev()],
        cwd=ROOT, env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
