#!/usr/bin/env bash
# Determinism gate: protocol_comparison must produce byte-identical output —
# the human-readable table AND the machine-readable JSON report — whether
# the trials run serially or across a worker pool. This is the repo's
# seed-determinism contract (per-trial seed-derived RNG streams, trial-order
# reductions); any nondeterministic merge or shared RNG shows up here as a
# byte diff. Wired into ctest with label `integration`; run standalone as
#
#   scripts/check_determinism.sh [BIN_DIR]
#
# where BIN_DIR is the CMake binary dir holding examples/ (default: build).
set -euo pipefail

bin_dir="${1:-build}"
cmp_bin="$bin_dir/examples/protocol_comparison"
if [ ! -x "$cmp_bin" ]; then
  echo "check_determinism: missing $cmp_bin (build with RFID_BUILD_EXAMPLES=ON)" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

status=0

# Two stanzas: the clean channel, and the canned fault workload (bursty
# Gilbert–Elliott reply loss + downlink BER + CRC framing + recovery via
# --fault). The fault path draws from per-trial fault RNG streams and
# charges retransmissions/recovery time, so it has its own ways to go
# nondeterministic under a pool — both stanzas must byte-match.
check_pair() {
  local tag="$1"; shift
  RFID_THREADS=0 "$cmp_bin" "$@" \
    --report-json "$workdir/$tag-serial.json" > "$workdir/$tag-serial.txt"
  RFID_THREADS=4 "$cmp_bin" "$@" \
    --report-json "$workdir/$tag-pooled.json" > "$workdir/$tag-pooled.txt"
  local ext
  for ext in json txt; do
    if ! cmp -s "$workdir/$tag-serial.$ext" "$workdir/$tag-pooled.$ext"; then
      echo "check_determinism[$tag]: serial and pooled .$ext outputs differ:" >&2
      # First differing byte (cmp reports 1-based byte and line), then the
      # textual diff for context. The byte offset is the useful part when
      # the divergence is inside a long report line.
      cmp "$workdir/$tag-serial.$ext" "$workdir/$tag-pooled.$ext" >&2 || true
      diff "$workdir/$tag-serial.$ext" "$workdir/$tag-pooled.$ext" >&2 || true
      status=1
    fi
  done
}

check_pair clean 800 4 3 HPP TPP
check_pair fault 800 4 3 HPP EHPP TPP ADAPT --fault

# Reader-fault stanza: fault_demo's act 5 runs the supervised fleet —
# reader crashes/stalls on their own named RNG streams, tag handoff,
# backoff restarts — and prints per-reader incident tables. The whole
# stdout (all five acts) must byte-match serial vs pooled, proving the
# reader-fault machinery keeps the seed-determinism contract too.
check_reader_faults() {
  local demo_bin="$bin_dir/examples/fault_demo"
  if [ ! -x "$demo_bin" ]; then
    echo "check_determinism: missing $demo_bin (build with RFID_BUILD_EXAMPLES=ON)" >&2
    status=1
    return
  fi
  RFID_THREADS=0 "$demo_bin" --seed 99 > "$workdir/fleet-serial.txt"
  RFID_THREADS=4 "$demo_bin" --seed 99 > "$workdir/fleet-pooled.txt"
  if ! cmp -s "$workdir/fleet-serial.txt" "$workdir/fleet-pooled.txt"; then
    echo "check_determinism[fleet]: serial and pooled fault_demo output differ:" >&2
    cmp "$workdir/fleet-serial.txt" "$workdir/fleet-pooled.txt" >&2 || true
    diff "$workdir/fleet-serial.txt" "$workdir/fleet-pooled.txt" >&2 || true
    status=1
  fi
}
check_reader_faults

# Sharded-fleet stanza: the deployment simulator at the million-tag scale —
# 1M tags across 64 readers on 8 channels with zone overlap and live churn.
# The report (stdout and JSON) must byte-match serial vs RFID_THREADS=4
# (reader-ordered merge fold) AND across shard counts (--shards 1 vs 7):
# the tick loop's parallel phase is reader-local, and each shard's readers
# take turns on one round scratch, so the execution grain must never leak
# into the results. Run once per deployment protocol: TPP's clean rounds
# size the poll-length buffer with resize, HPP's with assign. The two are
# spelled in different cases, since --protocol takes either. A third TPP
# run adds churn-fleet's reader-fault rates, so fault handoffs (horizon 0,
# a full evaluation at the next scan) and churn run together.
check_fleet_sharding() {
  local protocol="$1"
  local name="$2"
  shift 2
  local sweep_bin="$bin_dir/examples/deployment_sweep"
  if [ ! -x "$sweep_bin" ]; then
    echo "check_determinism: missing $sweep_bin (build with RFID_BUILD_EXAMPLES=ON)" >&2
    status=1
    return
  fi
  local args=(--tags 1000000 --readers 64 --channels 8
              --overlap 0.1 --churn 0.001 --seed 11 --protocol "$protocol"
              "$@")
  local out="$workdir/sweep-$name"
  RFID_THREADS=0 "$sweep_bin" "${args[@]}" --shards 1 \
    --report-json "$out-serial.json" > "$out-serial.txt"
  RFID_THREADS=4 "$sweep_bin" "${args[@]}" \
    --report-json "$out-pooled.json" > "$out-pooled.txt"
  RFID_THREADS=4 "$sweep_bin" "${args[@]}" --shards 7 \
    --report-json "$out-shard7.json" > "$out-shard7.txt"
  local variant ext
  for variant in pooled shard7; do
    for ext in json txt; do
      if ! cmp -s "$out-serial.$ext" "$out-$variant.$ext"; then
        echo "check_determinism[fleet-shard $name]: serial and $variant .$ext outputs differ:" >&2
        cmp "$out-serial.$ext" "$out-$variant.$ext" >&2 || true
        diff "$out-serial.$ext" "$out-$variant.$ext" >&2 || true
        status=1
      fi
    done
  done
}
check_fleet_sharding TPP TPP
check_fleet_sharding hpp hpp
check_fleet_sharding TPP TPP-faults --crash 0.0002 --stall 0.0004 \
  --restart 0.0001
[ "$status" -eq 0 ] || exit "$status"

echo "check_determinism: OK (serial == RFID_THREADS=4, byte-identical," \
  "clean and fault channels, supervised reader fleet, sharded deployment" \
  "under TPP and HPP, and under TPP with reader faults)"
