#!/usr/bin/env bash
# Static-analysis gate: runs tools/rfidlint (layering, hot-path allocation,
# RNG purity, phase accounting, determinism) over the repo's src/ tree plus
# tools/simserved, then self-checks every analyzer against its fixtures so a
# linter that silently stopped matching (rule regression, tokenizer bug)
# cannot pass CI by finding nothing. Last, it checks that every src/ file is
# reached by some program (scripts/check_src_reachability.py, python3).
# Wired into the `rfidlint` CI job; run standalone as
#
#   scripts/run_rfidlint.sh [BIN_DIR]
#
# where BIN_DIR is the CMake binary dir holding tools/rfidlint/ (default:
# build). Exits 0 when the repo is clean AND every violation fixture still
# trips its documented rule; nonzero otherwise.
set -euo pipefail

bin_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
rfidlint="$bin_dir/tools/rfidlint/rfidlint"

if [ ! -x "$rfidlint" ]; then
  echo "run_rfidlint: missing $rfidlint (build the rfidlint target first," \
    "e.g. cmake --build $bin_dir --target rfidlint)" >&2
  exit 1
fi

status=0

# 1. The repo itself must be clean (allow pragmas included). This uses the
# committed layer spec at tools/rfidlint/layers.spec.
if ! "$rfidlint" --root "$repo_root"; then
  echo "run_rfidlint: findings in $repo_root (see above)" >&2
  status=1
fi

# 2. Analyzer liveness: the clean fixtures must pass and every violation
# fixture must still trip. Fixtures sit outside src/, so the layer analyzer
# is off here (it gets its own tree-shaped fixtures below).
fixture_dir="$repo_root/tools/rfidlint/fixtures"
for fixture in "$fixture_dir"/*.cpp; do
  name="$(basename "$fixture")"
  case "$name" in
    clean.cpp | allow_pragma.cpp | *_clean.cpp)
      if ! "$rfidlint" --no-layers "$fixture" > /dev/null; then
        echo "run_rfidlint: self-check failed — $name should be clean" >&2
        status=1
      fi
      ;;
    *)
      if "$rfidlint" --no-layers "$fixture" > /dev/null; then
        echo "run_rfidlint: self-check failed — $name no longer trips" \
          "its rule (dead analyzer?)" >&2
        status=1
      fi
      ;;
  esac
done

# 3. Layer-graph liveness against the miniature repo in fixtures/layer_tree:
# downward includes pass, upward and undeclared ones trip, and a malformed
# spec is rejected outright.
tree="$fixture_dir/layer_tree"
spec="$tree/layers.spec"
for file in src/common/ok.hpp src/sim/engine.hpp tools/probe.hpp; do
  if ! "$rfidlint" --root "$tree" --layers "$spec" "$tree/$file" \
      > /dev/null; then
    echo "run_rfidlint: self-check failed — layer_tree/$file should be" \
      "clean" >&2
    status=1
  fi
done
for file in src/common/upward.hpp src/sim/stray.hpp src/widgets/widget.hpp; do
  if "$rfidlint" --root "$tree" --layers "$spec" "$tree/$file" \
      > /dev/null; then
    echo "run_rfidlint: self-check failed — layer_tree/$file no longer" \
      "trips the layer analyzer" >&2
    status=1
  fi
done
if "$rfidlint" --root "$tree" --layers "$fixture_dir/layer_bad.spec" \
    "$tree/src/common/ok.hpp" > /dev/null; then
  echo "run_rfidlint: self-check failed — layer_bad.spec should be" \
    "rejected as malformed" >&2
  status=1
fi

# 4. No src/ file without a program: quoted includes followed from every
# .cpp under tools/, bench/ and examples/ (a reached src/ header brings its
# own .cpp) must reach every src/ .cpp and .hpp. Tests do not count. The
# walk sees files, not functions. Its liveness fixture,
# scripts/fixtures/reach_tree, has a header and .cpp that only a test
# includes: exactly those two must be listed.
reach="$repo_root/scripts/check_src_reachability.py"
if ! python3 "$reach" "$repo_root"; then
  echo "run_rfidlint: no program under tools/, bench/ or examples/" \
    "reaches the src/ files above" >&2
  status=1
fi
reach_tree="$repo_root/scripts/fixtures/reach_tree"
expected="$(printf '%s\n' src/lib/orphan.cpp src/lib/orphan.hpp)"
if listed="$(python3 "$reach" "$reach_tree")" ||
    [ "$listed" != "$expected" ]; then
  echo "run_rfidlint: self-check failed — reach_tree should list exactly" \
    "src/lib/orphan.cpp and src/lib/orphan.hpp, got: ${listed:-nothing}" >&2
  status=1
fi

[ "$status" -eq 0 ] || exit "$status"
echo "run_rfidlint: OK (repo clean, all violation fixtures still trip," \
  "every src/ file reached by a program)"
