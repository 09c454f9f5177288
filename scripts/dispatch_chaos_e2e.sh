#!/usr/bin/env bash
# Dispatch chaos end-to-end: a sweep served through the lease-based work
# queue (--dispatch-port, docs/distributed_sweeps.md) must survive
# workers being SIGKILLed mid-spec, SIGSTOPped past their lease
# deadline, and severed mid-connection — and still produce a manifest
# and a --report-json byte-identical to clean in-process runs at
# --jobs 1 and --jobs 4. That is the whole robustness contract in one
# assertion: transport chaos may cost wall time, never bytes.
#
# Usage: dispatch_chaos_e2e.sh <path-to-dftmsn_cli> [workdir]
set -u

CLI="${1:?usage: dispatch_chaos_e2e.sh <dftmsn_cli> [workdir]}"
WORK="${2:-dispatch_chaos.tmp}"

rm -rf "$WORK"
mkdir -p "$WORK"

# Each replication takes a few hundred wall-ms, so the SIGKILL/SIGSTOP
# below land while every worker is genuinely mid-spec.
ARGS=(--protocol OPT --reps 8
      scenario.seed=7001 scenario.num_sensors=25 scenario.num_sinks=2
      scenario.field_m=200 scenario.duration_s=40000)

fail() { echo "FAIL: $*" >&2; exit 1; }

# --- references: clean in-process runs at jobs 1 and 4 ------------------
"$CLI" "${ARGS[@]}" --jobs 1 --checkpoint-dir "$WORK/ref1" \
    --report-json "$WORK/ref1.json" > "$WORK/ref1.txt" \
  || fail "reference --jobs 1 run exited $?"
"$CLI" "${ARGS[@]}" --jobs 4 --checkpoint-dir "$WORK/ref4" \
    --report-json "$WORK/ref4.json" > "$WORK/ref4.txt" \
  || fail "reference --jobs 4 run exited $?"
cmp "$WORK/ref1/manifest.txt" "$WORK/ref4/manifest.txt" \
  || fail "reference manifests differ between jobs 1 and 4"
cmp "$WORK/ref1.json" "$WORK/ref4.json" \
  || fail "reference reports differ between jobs 1 and 4"

# Starts a dispatching parent named $1 (extra flags in $2...) and waits
# for its announced port; DISPATCH_PID and PORT come back in globals.
start_dispatcher() {
  local name="$1"; shift
  "$CLI" "${ARGS[@]}" --dispatch-port 0 "$@" \
      --checkpoint-dir "$WORK/$name" --report-json "$WORK/$name.json" \
      > "$WORK/$name.txt" 2>&1 &
  DISPATCH_PID=$!
  PORT=""
  for _ in $(seq 1 200); do
    PORT=$(sed -n 's/^dispatch: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
           "$WORK/$name.txt" 2>/dev/null | head -n1)
    [ -n "$PORT" ] && return 0
    kill -0 "$DISPATCH_PID" 2>/dev/null || fail "$name parent died early: $(cat "$WORK/$name.txt")"
    sleep 0.05
  done
  fail "$name never announced its dispatch port"
}

# --- clean dispatched run: two healthy workers --------------------------
start_dispatcher clean
"$CLI" --connect "127.0.0.1:$PORT" > "$WORK/clean.w1.txt" 2>&1 &
W1=$!
"$CLI" --connect "127.0.0.1:$PORT" > "$WORK/clean.w2.txt" 2>&1 &
W2=$!
wait "$DISPATCH_PID" || fail "clean dispatched parent exited $?"
wait "$W1" || fail "clean worker 1 exited $?"
wait "$W2" || fail "clean worker 2 exited $?"
cmp "$WORK/ref1/manifest.txt" "$WORK/clean/manifest.txt" \
  || fail "clean dispatched manifest differs from in-process reference"
cmp "$WORK/ref1.json" "$WORK/clean.json" \
  || fail "clean dispatched report differs from in-process reference"

# --- chaos run: kill, stall, sever — plus two honest workers ------------
# Short leases so the SIGSTOPped worker's frozen heartbeat counter lets
# its lease lapse within the test budget. The status plane rides along
# so the final status.json proves the lease machinery actually engaged.
start_dispatcher chaos --lease-secs 1 --status-every 0.2

"$CLI" --connect "127.0.0.1:$PORT" > "$WORK/chaos.a.txt" 2>&1 &
WA=$!   # honest
"$CLI" --connect "127.0.0.1:$PORT" > "$WORK/chaos.b.txt" 2>&1 &
WB=$!   # SIGKILLed mid-spec
"$CLI" --connect "127.0.0.1:$PORT" > "$WORK/chaos.c.txt" 2>&1 &
WC=$!   # SIGSTOPped past its lease deadline, SIGCONTed near the end
DFTMSN_DISPATCH_DROP_AFTER=1 \
  "$CLI" --connect "127.0.0.1:$PORT" > "$WORK/chaos.d.txt" 2>&1 &
WD=$!   # severs its own connection after one result, no goodbye
"$CLI" --connect "127.0.0.1:$PORT" > "$WORK/chaos.e.txt" 2>&1 &
WE=$!   # honest

sleep 0.3
kill -KILL "$WB" 2>/dev/null
kill -STOP "$WC" 2>/dev/null

wait "$DISPATCH_PID" || fail "chaos dispatched parent exited $?"
wait "$WA" || fail "chaos honest worker A exited $?"
wait "$WE" || fail "chaos honest worker E exited $?"
wait "$WD" || fail "chaos severing worker D exited $?"
wait "$WB" 2>/dev/null  # killed: nonzero by design
# A resurrected worker may publish results for specs that were long
# re-leased and completed; the dispatcher must discard them by spec id.
kill -CONT "$WC" 2>/dev/null
wait "$WC" 2>/dev/null

cmp "$WORK/ref1/manifest.txt" "$WORK/chaos/manifest.txt" \
  || fail "chaos manifest differs from clean in-process reference"
cmp "$WORK/ref1.json" "$WORK/chaos.json" \
  || fail "chaos report differs from clean in-process reference"
grep -q 'retries=0' "$WORK/chaos.txt" \
  || fail "chaos run consumed sim retries for transport losses"
grep -q 'completed=8' "$WORK/chaos.txt" \
  || fail "chaos run did not complete every replication"

# The chaos must have engaged the lease machinery, or the byte identity
# above proves less than it claims: at least one requeue (the SIGKILLed
# and severed workers both lose leases) in the final status document.
grep -q '"requeues": 0' "$WORK/chaos/status.json" \
  && fail "chaos run never requeued a spec — the chaos did not bite"
grep -q '"dispatch"' "$WORK/chaos/status.json" \
  || fail "chaos status.json carries no dispatch section"

echo "PASS: dispatched sweeps byte-identical to in-process under chaos"
rm -rf "$WORK"
