#!/usr/bin/env bash
# Smoke test for the observability pipeline: runs telemetry_export end to
# end, validates both the stdout report and the JSONL event trace as real
# JSON, replays the trace through trace_inspect, and boots the simserved
# telemetry daemon on an ephemeral port to exercise every HTTP/SSE endpoint
# live (healthz, metrics.json, at least two /events snapshots, graceful
# SIGTERM shutdown). Wired into ctest with label `obs`; run standalone as
#
#   scripts/smoke_telemetry.sh [BIN_DIR]
#
# where BIN_DIR is the CMake binary dir holding examples/ and tools/
# (default: build).
set -euo pipefail

bin_dir="${1:-build}"
telemetry="$bin_dir/examples/telemetry_export"
inspect="$bin_dir/examples/trace_inspect"
simserved="$bin_dir/tools/simserved/simserved"
for tool in "$telemetry" "$inspect"; do
  if [ ! -x "$tool" ]; then
    echo "smoke_telemetry: missing $tool (build with RFID_BUILD_EXAMPLES=ON)" >&2
    exit 1
  fi
done

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# 1. Full run: stdout report JSON + JSONL trace side channel.
"$telemetry" TPP 500 --trace-jsonl "$workdir/trace.jsonl" \
  > "$workdir/report.json"

# 2. Both outputs must be valid JSON (every JSONL line is one document).
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$workdir/report.json" > /dev/null
  python3 - "$workdir/trace.jsonl" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    for lineno, line in enumerate(f, 1):
        try:
            json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"line {lineno}: {e}")
PY
else
  echo "smoke_telemetry: python3 not found, skipping JSON validation" >&2
fi

# 3. The trace must carry the schema header and per-event lines. grep -c
# exits nonzero on zero matches, which set -e would turn into a silent
# death; catch it so the count check below reports the failure loudly.
head -n 1 "$workdir/trace.jsonl" | grep -q '"schema":"rfid-trace"'
events=$(grep -c '"type":"event"' "$workdir/trace.jsonl" || true)
if [ "$events" -lt 500 ]; then
  echo "smoke_telemetry: expected >= 500 events, got $events" >&2
  exit 1
fi

# 4. trace_inspect must replay the trace, account for every phase and
# report the slot-airtime distribution.
"$inspect" "$workdir/trace.jsonl" > "$workdir/summary.txt"
for needle in reader_vector turnaround tag_reply "clock total"; do
  grep -q "$needle" "$workdir/summary.txt"
done
if ! grep -Eq '^slot airtime us: mean [0-9.]+, p50 [0-9.]+, p99 [0-9.]+$' \
  "$workdir/summary.txt"; then
  echo "smoke_telemetry: trace_inspect printed no slot airtime line" >&2
  cat "$workdir/summary.txt" >&2
  exit 1
fi

# 5. Strict argument parsing: a garbage population must be rejected.
if "$telemetry" TPP 12x > /dev/null 2>&1; then
  echo "smoke_telemetry: '12x' should have been rejected" >&2
  exit 1
fi
if "$telemetry" TPP 0 > /dev/null 2>&1; then
  echo "smoke_telemetry: population 0 should have been rejected" >&2
  exit 1
fi
if "$inspect" --poll-ms 0 "$workdir/trace.jsonl" > /dev/null 2>&1; then
  echo "smoke_telemetry: --poll-ms 0 should have been rejected" >&2
  exit 1
fi

# 6. The telemetry daemon, end to end over real HTTP. Skipped (not failed)
# when the daemon wasn't built or curl is unavailable, so the offline
# pipeline above still gates minimal builds.
if [ ! -x "$simserved" ]; then
  echo "smoke_telemetry: OK ($events events; simserved not built, daemon smoke skipped)"
  exit 0
fi
if ! command -v curl > /dev/null 2>&1; then
  echo "smoke_telemetry: OK ($events events; curl not found, daemon smoke skipped)"
  exit 0
fi

# Ephemeral port (--port 0): the daemon prints the bound port on stdout;
# poll for the announce line instead of racing the bind.
"$simserved" --port 0 --readers 2 --tags 64 --seed 7 --snapshot-ms 100 \
  --throttle-us 500 > "$workdir/simserved.log" 2>&1 &
daemon_pid=$!
trap 'kill "$daemon_pid" 2> /dev/null || true; rm -rf "$workdir"' EXIT

port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9][0-9]*\).*#\1#p' \
    "$workdir/simserved.log")
  [ -n "$port" ] && break
  if ! kill -0 "$daemon_pid" 2> /dev/null; then
    echo "smoke_telemetry: simserved died before announcing its port" >&2
    cat "$workdir/simserved.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "smoke_telemetry: simserved never announced its port" >&2
  cat "$workdir/simserved.log" >&2
  exit 1
fi
base="http://127.0.0.1:$port"

# Liveness first, then a real snapshot (wait out the first publish), then
# the dashboard, then a live SSE read collecting at least two snapshots.
curl -fsS "$base/healthz" > "$workdir/healthz.json"
grep -q '"status":"ok"' "$workdir/healthz.json"
for _ in $(seq 1 50); do
  if curl -fsS "$base/metrics.json" > "$workdir/metrics.json" 2> /dev/null; then
    break
  fi
  sleep 0.1
done
grep -q '"type":"snapshot"' "$workdir/metrics.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$workdir/metrics.json" > /dev/null
fi
curl -fsS "$base/" > "$workdir/dashboard.html"
grep -qi '<!doctype html>' "$workdir/dashboard.html"

# /events streams until the client hangs up: cap with --max-time and treat
# curl's exit-28 timeout as the expected way out of an unbounded stream.
curl -sN --max-time 3 "$base/events" > "$workdir/events.txt" || true
sse_snapshots=$(grep -c '^event: snapshot$' "$workdir/events.txt" || true)
if [ "$sse_snapshots" -lt 2 ]; then
  echo "smoke_telemetry: expected >= 2 SSE snapshots, got $sse_snapshots" >&2
  cat "$workdir/events.txt" >&2
  exit 1
fi

# Graceful shutdown: SIGTERM must produce exit 0 and the stop banner.
kill -TERM "$daemon_pid"
daemon_status=0
wait "$daemon_pid" || daemon_status=$?
if [ "$daemon_status" -ne 0 ]; then
  echo "smoke_telemetry: simserved exited $daemon_status on SIGTERM" >&2
  cat "$workdir/simserved.log" >&2
  exit 1
fi
grep -q 'simserved: stopped (SIGTERM' "$workdir/simserved.log"

echo "smoke_telemetry: OK ($events events, $sse_snapshots SSE snapshots on port $port)"
