#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root.  Configures and builds perfbench/ (CMake,
into $CARGO_TARGET_DIR or .bench_build) on every run, then runs one workload
and relays its output; the last stdout line is the JSON result.  Build output
goes to stderr.  Exits non-zero without a result when the sources or the
build are missing.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("tvla-capture", "cpa-reattack", "attack-suite", "dist-cpa")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures and builds the benchmark; a lock keeps concurrent runs from
    building over each other."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no rftc sources (src/CMakeLists.txt) next to perfbench/")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configured on every run: cheap when nothing changed, it refreshes
        # the git sha stamped into provenance and fails loudly when the
        # build directory belongs to another source tree.
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
             build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
            stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.abspath(os.path.join(root, target))
    try:
        binary = build(root, os.path.join(base, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    # Stores and campaign directories live in a per-run directory inside
    # the checkout, removed however the run ends.
    scratch_parent = os.path.join(base, "scratch")
    os.makedirs(scratch_parent, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_parent)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        cmd += ["--spans",
                os.path.join(base, f"spans-{args.workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
