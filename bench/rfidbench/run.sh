#!/usr/bin/env bash
# Runs every rfidbench workload, untraced and then traced, prints every
# metric by name with its unit, and writes one results JSON (default:
# <build-dir>/rfidbench-results.json). Exits nonzero when a correctness
# check failed or the traced and untraced runs folded different output.
#
#   bench/rfidbench/run.sh <build-dir> [--seed S] [--seconds S] [--out FILE]
#
# The benchmark package is built into <build-dir>/rfidbench. Compare two
# result sets with compare.py.
set -euo pipefail

if [[ $# -lt 1 || $1 == -* ]]; then
  echo "usage: $0 <build-dir> [--seed S] [--seconds S] [--out FILE]" >&2
  exit 2
fi
build_dir=$1
shift
exec python3 "$(dirname "$0")/run.py" --all --build-dir "$build_dir" "$@"
