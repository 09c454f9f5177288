#!/usr/bin/env python3
"""Check a scheduler_scale run's event counts against the committed curve.

Usage:
    check_bench_events.py RUN.json [--baseline BENCH_scheduler.json]

Each point of RUN.json (written by `scheduler_scale --out`) must have a
point at the same n in the baseline, with the same `events`. A World's
trajectory is a pure function of its config and seed, so a differing
count means the simulation at that n changed: the timings in the two
files are never compared.

Standard library only; exit 0 on success, 1 with a message per mismatch.
"""
import argparse
import json
import sys


def events_by_n(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return {p["n"]: p["events"] for p in doc["points"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("run")
    ap.add_argument("--baseline", default="BENCH_scheduler.json")
    args = ap.parse_args()

    run = events_by_n(args.run)
    baseline = events_by_n(args.baseline)
    if not run:
        print(f"{args.run}: no points", file=sys.stderr)
        return 1
    failures = []
    for n, events in sorted(run.items()):
        if n not in baseline:
            failures.append(f"n={n}: no point in {args.baseline}")
        elif events != baseline[n]:
            failures.append(
                f"n={n}: {events} events, {args.baseline} has {baseline[n]}")
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        return 1
    print(f"{len(run)} points match {args.baseline}: "
          + ", ".join(f"n={n}" for n in sorted(run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
