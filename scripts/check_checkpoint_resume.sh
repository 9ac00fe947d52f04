#!/usr/bin/env bash
# Crash-consistency gate for simserved's checkpoint/resume: SIGKILL the
# daemon mid-run (no graceful shutdown path executes — the checkpoint on
# disk is whatever the last epoch-boundary atomic rename left there),
# restart it with the same flags, and require the resumed run's final
# metrics to be BYTE-identical to an uninterrupted run at the same epoch
# target. Runs twice: once fault-free, once with injected reader crashes
# (--crash-rate), whose final metrics must then differ from the clean
# run's and report nonzero reader_crashes — proof the crashes fired.
#
#   scripts/check_checkpoint_resume.sh [BIN_DIR]
#
# BIN_DIR is the CMake binary dir holding tools/ (default: build).
set -euo pipefail

bin_dir="${1:-build}"
simserved="$bin_dir/tools/simserved/simserved"
if [ ! -x "$simserved" ]; then
  echo "check_checkpoint_resume: missing $simserved (build with RFID_BUILD_TOOLS=ON)" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

readers=3
tags=64
seed=20260809
epochs=6

run_case() {
  local tag="$1" crash_flags_str="$2"
  local crash_flags=()
  [ -n "$crash_flags_str" ] && crash_flags=($crash_flags_str)
  local ck="$workdir/ck-$tag" ref="$workdir/ref-$tag.json" \
    resumed="$workdir/resumed-$tag.json"
  mkdir -p "$ck" "$workdir/ck-$tag-ref"

  # Reference: uninterrupted run to the epoch target.
  "$simserved" --readers $readers --tags $tags --seed $seed \
    --epochs $epochs --throttle-us 0 --port 0 "${crash_flags[@]}" \
    --checkpoint-dir "$workdir/ck-$tag-ref" --final-metrics "$ref" \
    > /dev/null

  # Victim: throttled so SIGKILL lands mid-run, killed hard, then resumed
  # with identical flags. Repeat the kill if the victim finished before the
  # signal landed (tiny machines vary); one mid-run kill is all we need.
  local killed=0 attempt
  for attempt in 1 2 3; do
    rm -rf "$ck"; mkdir -p "$ck"
    "$simserved" --readers $readers --tags $tags --seed $seed \
      --epochs $epochs --throttle-us $((attempt * 20000)) --port 0 \
      "${crash_flags[@]}" --checkpoint-dir "$ck" > /dev/null 2>&1 &
    local pid=$!
    sleep 0.8
    if kill -KILL "$pid" 2>/dev/null; then
      wait "$pid" 2>/dev/null || true
      killed=1
      break
    fi
    wait "$pid" 2>/dev/null || true
  done
  if [ "$killed" -ne 1 ]; then
    echo "check_checkpoint_resume[$tag]: could not catch the daemon mid-run" >&2
    exit 1
  fi

  "$simserved" --readers $readers --tags $tags --seed $seed \
    --epochs $epochs --throttle-us 0 --port 0 "${crash_flags[@]}" \
    --checkpoint-dir "$ck" --final-metrics "$resumed" \
    > "$workdir/resume-$tag.log" 2>&1 \
    || { cat "$workdir/resume-$tag.log" >&2; exit 1; }

  if ! cmp -s "$ref" "$resumed"; then
    echo "check_checkpoint_resume[$tag]: resumed final metrics differ from" \
      "the uninterrupted run:" >&2
    cmp "$ref" "$resumed" >&2 || true
    diff "$ref" "$resumed" >&2 || true
    exit 1
  fi
}

run_case clean ""
run_case crashy "--crash-rate 0.03"

# Cross-check the two cases: reader crashes are part of each epoch, so the
# crashy folds must differ from the clean ones and count the crashes.
if cmp -s "$workdir/ref-clean.json" "$workdir/ref-crashy.json"; then
  echo "check_checkpoint_resume: --crash-rate changed nothing (clean and" \
    "crashy final metrics are identical)" >&2
  exit 1
fi
if ! grep -q '"reader_crashes":[1-9]' "$workdir/ref-crashy.json"; then
  echo "check_checkpoint_resume: crashy final metrics report no" \
    "reader_crashes" >&2
  exit 1
fi

echo "check_checkpoint_resume: OK (SIGKILL + resume byte-identical to" \
  "uninterrupted, fault-free and crash-injected)"
