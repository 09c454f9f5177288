#!/usr/bin/env python3
"""A/A steadiness check: two interleaved sets of runs of the same build.

Usage (from the repository root):

    python3 perfbench/aa.py [--runs N] [--workloads a,b]

For each of N rounds and each workload it runs perfbench/run.py once for
set A and once for set B, alternating which set goes first, every run
with its own seed and BENCHMARK.json's run_seconds. Per workload and
end-to-end metric it then prints each set's median and quartiles
(statistics.quantiles, n=4), the spread (interquartile distance over the
median) and whether the two medians agree within the metric's bound from
BENCHMARK.json. The exit code is 0 when every run passed its output
check, every spread is within its metric's bound, and no median is worse
than the other set's by more than that bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_BASE = 1000  # round i runs seeds SEED_BASE + 2i (A) and + 2i + 1 (B)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(r.stdout + r.stderr)
        raise SystemExit(f"aa: {workload} seed {seed}: no result line")
    ok = r.returncode == 0 and result["correct"] and result["failed"] == 0
    return ok, {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("aa: --runs must be at least 2")
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {w: {"A": {}, "B": {}} for w in workloads}
    all_ok = True
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                seed = SEED_BASE + 2 * i + (side == "B")
                ok, got = run_once(w, seed, bench["run_seconds"])
                all_ok &= ok
                for k, v in got.items():
                    values[w][side].setdefault(k, []).append(v)
                print(f"round {i + 1}/{args.runs} {w} {side} seed {seed}: "
                      + ("ok" if ok else "CHECK FAILED") + " "
                      + " ".join(f"{k}={v:.6g}" for k, v in got.items()),
                      flush=True)

    steady = all_ok
    print(f"\n{'workload':14} {'metric':18} {'set':3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        for name, spec in metrics.items():
            if name not in values[w]["A"]:
                continue
            bound = spec["bound"]
            meds = {}
            for side in ("A", "B"):
                med, q1, q3, spread = summarize(values[w][side][name])
                meds[side] = med
                within = spread <= bound
                steady &= within
                third = " (< bound/3)" if spread < bound / 3 else ""
                print(f"{w:14} {name:18} {side:3} {med:14.6g} {q1:14.6g} "
                      f"{q3:14.6g} {spread:8.4f} {bound:6.3f}  "
                      f"{'spread ok' if within else 'SPREAD TOO WIDE'}{third}")
            # Worse in either direction, as a share of the other median.
            a, b = meds["A"], meds["B"]
            worse = max(b / a - 1, a / b - 1)
            agree = worse <= bound
            steady &= agree
            print(f"{'':14} {name:18} A/B medians differ by {worse:.4f} "
                  f"-> {'agree' if agree else 'DISAGREE'} within {bound}")
    print("\nA/A verdict:", "steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
