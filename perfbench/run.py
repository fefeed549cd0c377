#!/usr/bin/env python3
"""End-to-end benchmark of the loop parallelizer and its daemon.

Run from the repository root:

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 15 --trace 0

Builds perfbench_client and mimdd from the tree (Release, into
$CARGO_TARGET_DIR or .bench_build), then runs the client, which starts
mimdd, generates the workload from the seed, drives it closed-loop, checks
every result bit-for-bit against the sequential reference and prints every
metric with its unit.  The last line of stdout is the client's JSON result.

Workloads (perfbench/client.cpp holds the details):
  cold_sweep     every request a structure the daemon has not seen:
                 front end, parallelize, submit, run, validate
  warm_serve     2 connections: 90% runs of registered paper loops on the
                 JIT's native kernels, 10% renamed re-submits (cache hits)
  compute_bound  coarse synthetic work the JIT cannot run: threads against
                 the sequential reference, predicted against measured

--trace 1 reports per-layer metrics from spans around each layer call.
Results, stamped with host and build, go to <build>/results/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = "perfbench"
CLIENT_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (a no-op when nothing changed), then build incrementally.
    Build output goes to a log."""
    pkg = os.path.join(build_dir, "perfbench")
    os.makedirs(pkg, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", pkg, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", pkg, "-j", jobs,
              "--target", "perfbench_client", "mimdd"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return (os.path.join(pkg, "perfbench_client"),
            os.path.join(pkg, "mimd", "tools", "mimdd"))


def git_commit():
    """HEAD of this checkout, or "none" when it is not a git work tree."""
    if not os.path.exists(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def tree_digest():
    """SHA-256 over every source file the benchmark builds or reads.
    Python's __pycache__ directories and compiled files are left out."""
    h = hashlib.sha256()
    roots = ["CMakeLists.txt", "cmake", "src", "tools", "examples/loops",
             BENCH_DIR]
    paths = []
    for root in roots:
        if os.path.isfile(root):
            paths.append(root)
        for dirpath, dirs, files in os.walk(root):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            paths.extend(os.path.join(dirpath, f) for f in files
                         if not f.endswith(".pyc"))
    for p in sorted(paths):
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cold_sweep", "warm_serve", "compute_bound"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root (no src/CMakeLists.txt here)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # The compilers, and the JIT's .c/.so artifacts, use TMPDIR: keep them
    # in the build directory.
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    client, mimdd = build(build_dir)
    cmd = [client, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mimdd", mimdd, "--loops", os.path.join("examples", "loops"),
           "--out", os.path.join(build_dir, "results"),
           "--commit", git_commit(), "--tree", tree_digest()]
    try:
        return subprocess.run(cmd, timeout=CLIENT_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("client exceeded %d s" % CLIENT_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
