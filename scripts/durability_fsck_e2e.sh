#!/usr/bin/env bash
# Durability end-to-end: torn-write crash points and --fsck repair,
# through the real binary (exit-code driven, no test framework).
#
#   usage: durability_fsck_e2e.sh /path/to/dftmsn_cli
#
# Legs:
#   1. clean supervised sweep -> --fsck must report clean (exit 0)
#   2. torn-write crash (crash@write#N:bytes=K tears a record mid-buffer,
#      then the process _exit(9)s) -> --fsck repairs (exit 7 or 0)
#      -> --resume finishes with aggregates identical to the clean run
#   3. deliberate container corruption (byte flip in the record area)
#      -> --fsck repairs -> --resume still completes
#
# Exit codes under test: 0 clean, 7 repaired, 9 injected crash
# (docs/durability.md).
set -u

CLI="${1:?usage: durability_fsck_e2e.sh /path/to/dftmsn_cli}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/dftmsn_durability.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

run_sweep() { # dir extra...
  local dir="$1"; shift
  "$CLI" --protocol DIRECT --reps 2 --jobs 2 \
      --checkpoint-dir "$dir" --checkpoint-every 40 "$@" \
      scenario.num_sensors=6 scenario.num_sinks=1 scenario.duration_s=160
}

fail() { echo "FAIL: $*" >&2; exit 1; }

aggregates() { # file -> the three aggregate lines
  grep -E '^(delivery_ratio|power_mw|delay_s)=' "$1"
}

# --- leg 1: a clean sweep fscks clean --------------------------------------
mkdir -p "$WORK/ref"
run_sweep "$WORK/ref" > "$WORK/ref.out" 2>&1 \
  || fail "reference sweep exited $?"
"$CLI" --fsck "$WORK/ref" > "$WORK/ref.fsck" 2>&1
rc=$?
[ "$rc" -eq 0 ] || { cat "$WORK/ref.fsck" >&2; fail "fsck on a clean dir exited $rc (want 0)"; }
grep -q ': clean$' "$WORK/ref.fsck" || fail "fsck did not say clean"

# --- leg 2: torn-write crash point -> fsck -> resume -----------------------
# bytes=13 tears the record mid-buffer: the torn prefix must be stepped
# over by recovery, not trusted.
mkdir -p "$WORK/torn"
DFTMSN_IO_FAULTS='crash@write#5:bytes=13' \
  run_sweep "$WORK/torn" > "$WORK/torn.out" 2>&1
rc=$?
[ "$rc" -eq 9 ] || { cat "$WORK/torn.out" >&2; fail "scripted crash exited $rc (want 9)"; }

"$CLI" --fsck "$WORK/torn" > "$WORK/torn.fsck" 2>&1
rc=$?
[ "$rc" -eq 7 ] || [ "$rc" -eq 0 ] \
  || { cat "$WORK/torn.fsck" >&2; fail "fsck after torn crash exited $rc (want 0 or 7)"; }

run_sweep "$WORK/torn" --resume > "$WORK/torn.resume" 2>&1 \
  || fail "resume after torn crash exited $?"
diff <(aggregates "$WORK/ref.out") <(aggregates "$WORK/torn.resume") \
  || fail "resumed aggregates differ from the uninterrupted run"

# --- leg 3: corrupt a container record -> fsck repairs -> resume -----------
# Interrupt a sweep just before its 4th fsync, by which point both specs
# hold live entries in the container, then flip one byte in the record
# area (past the 12-byte header) and let fsck drop whatever that damaged.
# The crash point counts fsyncs, not bytes, so it does not move when
# checkpoint images change size.
mkdir -p "$WORK/corrupt"
DFTMSN_IO_FAULTS='crash@fsync#4' \
  run_sweep "$WORK/corrupt" > "$WORK/corrupt.out" 2>&1
rc=$?
[ "$rc" -eq 9 ] || { cat "$WORK/corrupt.out" >&2; fail "setup crash exited $rc (want 9)"; }
CONTAINER="$WORK/corrupt/checkpoints.dcc"
if [ -s "$CONTAINER" ]; then
  printf '\xa5' | dd of="$CONTAINER" bs=1 seek=40 conv=notrunc status=none \
    || fail "could not flip a container byte"
fi

"$CLI" --fsck "$WORK/corrupt" > "$WORK/corrupt.fsck" 2>&1
rc=$?
[ "$rc" -eq 7 ] || [ "$rc" -eq 0 ] \
  || { cat "$WORK/corrupt.fsck" >&2; fail "fsck on corrupt container exited $rc (want 0 or 7)"; }
# fsck must leave the directory clean: a second pass finds nothing.
"$CLI" --fsck "$WORK/corrupt" > "$WORK/corrupt.fsck2" 2>&1
rc=$?
[ "$rc" -eq 0 ] || { cat "$WORK/corrupt.fsck2" >&2; fail "second fsck pass exited $rc (want 0)"; }

run_sweep "$WORK/corrupt" --resume > "$WORK/corrupt.resume" 2>&1 \
  || fail "resume after corruption exited $?"
diff <(aggregates "$WORK/ref.out") <(aggregates "$WORK/corrupt.resume") \
  || fail "post-corruption aggregates differ from the uninterrupted run"

echo "durability e2e: all legs passed"
