#!/usr/bin/env python3
"""Build and run the HDFace end-to-end benchmark.

    python3 e2ebench/run.py --workload sparse_scan --seed 1 --seconds 25 --trace 0

Builds e2ebench/ (which compiles ../src) with CMake into the build directory
($CARGO_TARGET_DIR, else .bench_build), then runs the benchmark binary. The
binary prints an "env" line and, as the last line of standard output, one JSON
object {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1 (BENCHMARK.json defines both).
Build output goes to standard error. A failed build or a failed correctness
check exits non-zero without a result.

Options after the four standard ones are passed to the binary unchanged
(--inject; see e2ebench/cpp/main.cpp).
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sparse_scan", "dense_pyramid", "served_mix")


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build() -> Path:
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(ROOT / "e2ebench"), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "hdface_e2e", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return out / "hdface_e2e"


def source_id() -> str:
    """The git commit when ROOT is a clone's top level, else a digest of the
    sources (a benchmark checkout is not a git repository)."""
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
        if len(rev) == 2 and Path(rev[0]).resolve() == ROOT:
            return "git:" + rev[1]
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
