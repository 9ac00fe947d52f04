#!/usr/bin/env bash
# Randomized reader-fleet chaos: alternate between (a) fault_demo runs
# under random seeds — its act-5 fleet sweeps crash/stall/restart readers
# and self-verifies exact delivered-or-listed accounting — and (b)
# simserved checkpoint kill/resume cycles under random fleet shapes and
# crash rates, comparing the resumed run's final metrics byte-for-byte
# against an uninterrupted reference. Intended for an ASan+UBSan build so
# memory bugs in the supervisor/handoff/checkpoint machinery surface too.
# Every iteration logs its parameters up front — to replay a failure,
# rerun the printed command.
#
#   scripts/chaos_fleet.sh [BIN_DIR] [BUDGET_SECONDS] [CHAOS_SEED]
#
# BIN_DIR default: build. BUDGET_SECONDS default: 300 (the nightly CI
# budget). CHAOS_SEED seeds the parameter generator itself (default:
# derived from the clock) so a whole run is reproducible, not just one
# iteration.
set -euo pipefail

bin_dir="${1:-build}"
budget_s="${2:-300}"
chaos_seed="${3:-$(date +%s)}"
demo_bin="$bin_dir/examples/fault_demo"
simserved="$bin_dir/tools/simserved/simserved"
if [ ! -x "$demo_bin" ]; then
  echo "chaos_fleet: missing $demo_bin (build with RFID_BUILD_EXAMPLES=ON)" >&2
  exit 1
fi
if [ ! -x "$simserved" ]; then
  echo "chaos_fleet: missing $simserved (build with RFID_BUILD_TOOLS=ON)" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "chaos_fleet: CHAOS_SEED=$chaos_seed budget=${budget_s}s"
echo "chaos_fleet: replay the whole run with:" \
  "scripts/chaos_fleet.sh $bin_dir $budget_s $chaos_seed"

# Deterministic parameter stream: a tiny LCG over the chaos seed. bash
# arithmetic is 64-bit signed, so mask to 31 bits after each step. next()
# must mutate `state` in THIS shell, so it returns via the global `draw`
# rather than echoing from a subshell.
state=$((chaos_seed & 0x7FFFFFFF))
draw=0
next() {
  state=$(((state * 1103515245 + 12345) & 0x7FFFFFFF))
  draw=$((state % $1))
}

# Arm (a): one fault_demo sweep. The demo's exit status IS the oracle —
# act 5's fleet asserts every tag is delivered or listed, and the earlier
# acts verify payload integrity under corruption.
run_demo() {
  next 100000; local seed=$((1 + draw))
  next 15; local ber="0.00$((1 + draw))"
  next 56; local seg=$((8 + draw))
  echo "chaos_fleet[$iter]: $demo_bin --ber $ber --segment-bits $seg --seed $seed"
  if ! "$demo_bin" --ber "$ber" --segment-bits "$seg" --seed "$seed" \
      > /dev/null; then
    echo "chaos_fleet: FAILURE at iteration $iter" >&2
    echo "chaos_fleet: replay: $demo_bin --ber $ber" \
      "--segment-bits $seg --seed $seed" >&2
    exit 1
  fi
}

# Arm (b): a simserved checkpoint kill/resume cycle. Random fleet shape,
# crash rate, and checkpoint stride; SIGKILL lands mid-run, the daemon
# restarts from whatever the last epoch-boundary rename left on disk, and
# the resumed final metrics must match an uninterrupted reference byte
# for byte.
run_daemon_cycle() {
  # Power-of-two moduli would sample only the LCG's short-period low bits
  # (see the arm chooser above), so draw wide and divide down instead.
  next 3; local readers=$((2 + draw))
  next 4000; local tags=$((32 * (1 + draw / 1000)))
  next 100000; local seed=$((1 + draw))
  next 5; local epochs=$((4 + draw))
  local rates=(0 0.01 0.03)
  next 3; local crash=${rates[$draw]}
  next 2000; local every=$((1 + draw / 1000))
  local base="$simserved --readers $readers --tags $tags --seed $seed \
--epochs $epochs --port 0 --crash-rate $crash --checkpoint-every $every"
  echo "chaos_fleet[$iter]: $base  (kill/resume cycle)"

  local ck="$workdir/ck" ref="$workdir/ref.json" resumed="$workdir/resumed.json"
  rm -rf "$ck" "$workdir/ck-ref"; mkdir -p "$ck" "$workdir/ck-ref"
  $base --throttle-us 0 --checkpoint-dir "$workdir/ck-ref" \
    --final-metrics "$ref" > /dev/null

  # Throttle the victim so the kill lands mid-run; if it finished first,
  # the resume below degenerates to a fresh run, which must still match.
  $base --throttle-us 20000 --checkpoint-dir "$ck" > /dev/null 2>&1 &
  local pid=$!
  next 7; sleep "0.$((2 + draw))"
  kill -KILL "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true

  if ! $base --throttle-us 0 --checkpoint-dir "$ck" \
      --final-metrics "$resumed" > "$workdir/resume.log" 2>&1; then
    echo "chaos_fleet: FAILURE at iteration $iter (resume refused)" >&2
    cat "$workdir/resume.log" >&2
    echo "chaos_fleet: replay: $base  (kill/resume cycle)" >&2
    exit 1
  fi
  if ! cmp -s "$ref" "$resumed"; then
    echo "chaos_fleet: FAILURE at iteration $iter (resumed metrics" \
      "diverge from the uninterrupted run)" >&2
    diff "$ref" "$resumed" >&2 || true
    echo "chaos_fleet: replay: $base  (kill/resume cycle)" >&2
    exit 1
  fi
}

deadline=$((SECONDS + budget_s))
iter=0
while [ "$SECONDS" -lt "$deadline" ]; do
  iter=$((iter + 1))
  # Arm choice from a wide draw, not `% 2`: this LCG's low bit strictly
  # alternates, and each arm makes a fixed number of draws, so a parity
  # test would pick the same arm forever.
  next 1000
  if [ "$draw" -lt 500 ]; then run_demo; else run_daemon_cycle; fi
done

echo "chaos_fleet: OK ($iter iterations, no verification, resume, or" \
  "sanitizer failures)"
