#!/bin/bash
# Regenerates bench_output.txt: every reproduced table/figure in sequence.
cd "$(dirname "$0")"
{
  for b in build/bench/*; do
    if [ -f "$b" ] && [ -x "$b" ]; then
      echo "===== $(basename "$b") ====="
      "$b" 2>&1
      echo
    fi
  done
  echo "BENCH_SUITE_DONE"
} > bench_output.txt 2>&1

# Scheduler scaling trajectory: the machine-readable events/sec curve
# (format: docs/performance.md) through n = 1M (~3.3 GB peak), next to
# the human-readable table that the loop above already dropped into
# bench_output.txt (through n = 100k, the default --max-n).
if [ -x build/bench/scheduler_scale ]; then
  build/bench/scheduler_scale --max-n 1000000 --out BENCH_scheduler.json \
      > /dev/null
fi

# Cross-scenario protocol rankings (format: docs/scenarios.md); trace
# files land in a scratch dir so reruns stay tidy.
if [ -x build/bench/scenario_sweep ]; then
  mkdir -p build/scenario_traces
  build/bench/scenario_sweep --dir build/scenario_traces \
      --out BENCH_scenarios.json > /dev/null
fi
