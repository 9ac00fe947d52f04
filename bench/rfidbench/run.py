#!/usr/bin/env python3
"""Build rfidbench from source and run it.

One workload, the command BENCHMARK.json names (from the repository root):

    python3 bench/rfidbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the benchmark into .bench_build/rfidbench (the first run compiles
the library), runs the workload, and prints as the last line of stdout one
JSON object with the keys correct, attempted, failed and metrics. metrics
holds exactly the end_to_end metrics named in BENCHMARK.json (--trace 0) or
its per_layer metrics (--trace 1). The exit code is 0 only when every
correctness check passed.

Every workload, untraced and traced (what run.sh calls):

    python3 bench/rfidbench/run.py --all --build-dir DIR [--seed N]
                                   [--seconds S] [--out results.json]

prints every metric of every workload by name with its unit, checks that
the traced and untraced runs folded identical simulation output, and writes
all results to one JSON file.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["clean-tpp", "churn-fleet", "paper-sweep", "serve-epochs"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources at %s; run from a full checkout" % (ROOT / "src"))
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "rfidbench"],
                   check=True, stdout=sys.stderr)
    return build_dir / "rfidbench"


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def declared_result(result, trace):
    """The result object BENCHMARK.json describes: exactly its metrics."""
    metrics = {}
    correct = result["correct"]
    for declared in declared_metrics(trace):
        got = result["metrics"].get(declared["name"])
        if got is None or got["unit"] != declared["unit"]:
            print("run.py: metric %s missing or not in %s"
                  % (declared["name"], declared["unit"]), file=sys.stderr)
            correct = False
            continue
        metrics[declared["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_one(args):
    binary = build(ROOT / ".bench_build" / "rfidbench")
    code, result = run_binary(binary, args.workload, args.seed, args.seconds,
                              args.trace == 1)
    if result is None:
        fail("rfidbench exited %d without a result" % code)
    for failure in result["failures"]:
        print("check failed: " + failure, file=sys.stderr)
    line = declared_result(result, args.trace == 1)
    print(json.dumps(line))
    return 0 if code == 0 and line["correct"] else 1


def run_all(args):
    build_dir = Path(args.build_dir).resolve()
    binary = build(build_dir / "rfidbench")
    results = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        entry = {}
        for trace in (False, True):
            code, result = run_binary(binary, workload, args.seed, args.seconds,
                                      trace)
            if result is None:
                print("%s: rfidbench exited %d without a result" % (workload, code))
                ok = False
                continue
            entry["traced" if trace else "untraced"] = result
            ok = ok and code == 0 and result["correct"]
            print("%s%s: %d checks, %d failed" % (
                workload, " (traced)" if trace else "", result["attempted"],
                result["failed"]))
            for failure in result["failures"]:
                print("  FAIL " + failure)
            for name, metric in result["metrics"].items():
                spread = ""
                if "q1" in metric:
                    spread = "  [q1 %.6g, q3 %.6g, n=%d]" % (
                        metric["q1"], metric["q3"], metric["samples"])
                print("  %-40s %16.6g %s%s" % (name, metric["value"],
                                               metric["unit"], spread))
        if "untraced" in entry and "traced" in entry:
            same = entry["untraced"]["digests"] == entry["traced"]["digests"]
            print("  simulation digests, traced vs untraced: %s"
                  % ("identical" if same else "DIFFER"))
            ok = ok and same
        results["workloads"][workload] = entry
    out = Path(args.out) if args.out else build_dir / "rfidbench-results.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    print("results written to %s" % out)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--build-dir")
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")
    if args.all:
        if not args.build_dir:
            fail("--all needs --build-dir")
        return run_all(args)
    if not args.workload:
        fail("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
