#!/usr/bin/env python3
"""Compare two rfidbench result sets against the bounds in BENCHMARK.json.

    python3 bench/rfidbench/compare.py A B

A and B are each a results JSON written by run.sh, or a directory of them
(one file per run). For every workload and end-to-end metric it prints both
sets' median and quartiles over their runs and flags:

  WORSE / BETTER  the medians differ by more than the metric's bound in
                  BENCHMARK.json (metrics it does not list carry no bound);
  DIFFERS         a simulated metric or a simulation digest differs at all
                  between runs of the two sets that used the same seed;
  ERRORS          a run of either set failed a correctness check.

The exit code is 1 when anything is flagged.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
SIMULATED = {"sim_us_per_tag", "vector_bits_per_tag", "sim_makespan_s"}
NOT_COMPARED = {"iterations", "snapshot_requests"}


def load_set(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        sys.exit("compare.py: no results in %s" % path)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_seed(runs, workload):
    """seed -> untraced result of `workload` in that run."""
    return {run["seed"]: run["workloads"][workload]["untraced"]
            for run in runs if "untraced" in run["workloads"].get(workload, {})}


def flag_for(key, metric_spec, a, b, amed, bmed):
    if key in SIMULATED:
        shared = set(a) & set(b)
        if any(a[s]["metrics"][key]["value"] != b[s]["metrics"][key]["value"]
               for s in shared):
            return "DIFFERS"
    if key == "error_rate":
        values = [r["metrics"][key]["value"] for r in list(a.values()) + list(b.values())]
        return "ERRORS" if any(values) else ""
    if metric_spec is None or amed == 0:
        return ""
    change = (bmed - amed) / amed
    worse = -change if metric_spec["better"] == "higher" else change
    if worse > metric_spec["bound"]:
        return "WORSE"
    if -worse > metric_spec["bound"]:
        return "BETTER"
    return ""


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a_runs, b_runs = load_set(sys.argv[1]), load_set(sys.argv[2])
    flagged = 0
    print("%-13s %-20s %-42s %-42s %s" % ("workload", "metric",
                                         "A median [q1, q3]", "B median [q1, q3]",
                                         "B vs A"))
    for workload in spec["workloads"]:
        name = workload["name"]
        a, b = by_seed(a_runs, name), by_seed(b_runs, name)
        if not a or not b:
            print("%-13s missing from one set" % name)
            flagged += 1
            continue
        keys = [k for k in next(iter(a.values()))["metrics"] if k not in NOT_COMPARED]
        for key in keys:
            a_values = [r["metrics"][key]["value"] for r in a.values()]
            b_values = [r["metrics"][key]["value"] for r in b.values()]
            aq1, amed, aq3 = quartiles(a_values)
            bq1, bmed, bq3 = quartiles(b_values)
            metric_spec = bounds.get(key)
            flag = flag_for(key, metric_spec, a, b, amed, bmed)
            flagged += bool(flag)
            change = "%+.2f%%" % (100 * (bmed - amed) / amed) if amed else "n/a"
            bound = " (bound %g%%)" % (100 * metric_spec["bound"]) if metric_spec else ""
            print("%-13s %-20s %-42s %-42s %s%s %s" % (
                name, key, "%.6g [%.6g, %.6g]" % (amed, aq1, aq3),
                "%.6g [%.6g, %.6g]" % (bmed, bq1, bq3), change, bound, flag))
        for seed in sorted(set(a) & set(b)):
            if a[seed]["digests"] != b[seed]["digests"]:
                print("%-13s seed %d: simulation digests DIFFER" % (name, seed))
                flagged += 1
    print("%d flagged" % flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
