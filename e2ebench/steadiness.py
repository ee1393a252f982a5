#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark (re-run when re-baselining).

    python3 e2ebench/steadiness.py --runs 10 --first-seed 101
    python3 e2ebench/steadiness.py --workloads dense_pyramid --runs 5

Runs every workload of BENCHMARK.json in two sets of --runs runs, one after
the other, as a regression check compares a parent with a change of the same
code. Each run of a set has its own seed (first-seed, first-seed + 1, ...;
both sets use the same seeds) and --trace 0. For each end-to-end metric it
prints, per set, the median, the quartiles (statistics.quantiles(values,
n=4)) and the spread (q3 - q1) / median against the metric's bound -- "steady"
within a third of the bound, "ok" within it, "NOISY" beyond -- and then both
set medians side by side with their shift |b - a| / a. Each run's line also
shows the host-speed probe (median ms of the benchmark's fixed loop), so a
slow host phase can be told from a slow change. The deterministic per-layer
outcomes (face_recall, false_reject_frac, failed_frac) are re-run on the first
seed with --trace 1 and must repeat exactly. Exits non-zero if any run fails,
any spread or median shift (setup_s included) exceeds its bound, or a
deterministic outcome does not repeat.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("face_recall", "false_reject_frac", "failed_frac")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "e2ebench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise SystemExit(f"run reported incorrect output: {' '.join(cmd)}")
    env = json.loads(lines[-2])["env"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, float(env["host_ref_ms"])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        medians = []
        for set_no in (1, 2):
            values = {name: [] for name in bounds}
            for i in range(args.runs):
                seed = args.first_seed + i
                metrics, host_ref = run(workload, seed, args.seconds, 0)
                for name in bounds:
                    values[name].append(metrics[name])
                print(f"{workload} set {set_no} seed {seed}: " +
                      ", ".join(f"{k}={metrics[k]:.4g}" for k in bounds) +
                      f" (host.ref {host_ref:.3f} ms)", flush=True)
            print(f"\n{workload} set {set_no}: {args.runs} runs, seeds "
                  f"{args.first_seed}..{args.first_seed + args.runs - 1}")
            print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
                  f"{'spread':>9}{'bound':>8}  verdict")
            medians.append({})
            for name, vals in values.items():
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                medians[-1][name] = q2
                spread = (q3 - q1) / q2 if q2 else float("inf")
                bound = bounds[name]
                verdict = ("steady" if spread <= bound / 3 else
                           "ok" if spread <= bound else "NOISY")
                ok = ok and verdict != "NOISY"
                print(f"  {name:<16}{q2:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                      f"{spread:>9.3f}{bound:>8.2f}  {verdict}")
            print(flush=True)
        print(f"{workload}: set medians")
        print(f"  {'metric':<16}{'set 1':>12}{'set 2':>12}{'shift':>9}"
              f"{'bound':>8}  verdict")
        for name, bound in bounds.items():
            a, b = medians[0][name], medians[1][name]
            shift = abs(b - a) / a if a else float("inf")
            ok = ok and shift <= bound
            print(f"  {name:<16}{a:>12.4f}{b:>12.4f}{shift:>9.3f}{bound:>8.2f}"
                  f"  {'agree' if shift <= bound else 'DIFFER'}")
        first = [run(workload, args.first_seed, args.seconds, 1)[0]
                 for _ in range(2)]
        for name in DETERMINISTIC:
            same = first[0][name] == first[1][name]
            ok = ok and same
            print(f"  {name} (seed {args.first_seed}, traced twice): "
                  f"{first[0][name]!r} / {first[1][name]!r} "
                  f"{'repeats' if same else 'DIFFERS'}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
