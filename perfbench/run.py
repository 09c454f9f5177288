#!/usr/bin/env python3
"""Builds and runs the dftmsn repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig2_sweep|large_world|ckpt_recovery|all
                             [--seed N] [--seconds S] [--trace 0|1]

The first call configures and builds the dftmsn library, dftmsn_cli,
the perfbench binary and its perfbench_rss_probe helper from this tree
(Release, -O3 -DNDEBUG) into .bench_build/perfbench; later calls
rebuild only what changed. The binary then runs the workload and
prints its metrics; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when every output check passed. See perfbench/README.md for the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fig2_sweep", "large_world", "ckpt_recovery")
DEFAULT_SEED = 42
# One workload run must finish within 180 s; the binary gets what is left
# of that after the (incremental) build.
RUN_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def tree_digest():
    """sha256 over the sources the benchmark builds (commit stand-in when
    the checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "apps", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
            ROOT / "apps" / "dftmsn_cli.cpp").is_file():
        fail(f"{ROOT} is not a dftmsn source tree (src/, apps/ missing)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    r = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed", 1)


def run_binary(workload, seed, seconds, trace):
    """Runs one workload. Returns (exit code, (stdout lines, the JSON
    result line or None)), or (1, None) when it ran out of time."""
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--worker-exe", str(BUILD / "apps" / "dftmsn_cli"),
           "--rss-probe", str(BUILD / "perfbench_rss_probe"),
           "--work-dir", str(WORK)]
    sys.stdout.flush()
    # Own session, so a timeout can stop the binary and its workers alike.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    lines = out.rstrip("\n").split("\n")
    last = lines[-1] if lines and lines[-1].startswith("{") else None
    return proc.returncode, (lines, last)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=45)  # run_seconds
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    print(f"commit: {git_commit()}; tree sha256: {tree_digest()}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        rc, got = run_binary(name, args.seed, args.seconds, args.trace)
        if got is None:
            return 1
        lines, last = got
        if len(names) == 1:
            sys.stdout.write("\n".join(lines) + "\n")
            return rc if last is not None else (rc or 1)
        sys.stdout.write("\n".join(lines[:-1] if last else lines) + "\n")
        if last is None:
            return 1
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
        code = code or rc
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
