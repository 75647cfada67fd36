#!/usr/bin/env python3
"""Compares two sets of benchmark results, one row per workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--by-layer]

Each directory holds result files written by perfbench/run.py (its
.bench_out/results/), ideally several seeds per workload. For every
workload and end-to-end metric it prints the change of the median from
BASE to NEW and a verdict under the metric's bound from BENCHMARK.json:

  worse       NEW's median is worse than BASE's by more than the bound
  better      NEW's median is better by more than the bound
  same        within the bound either way
  unresolved  a side's run-to-run spread (quartile distance over median)
              exceeds the bound, unless every NEW run beats every BASE run

--by-layer adds the per-layer metrics of traced runs (medians, no bounds),
so a change can say which layer moved. Exits 1 if any metric is worse.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{(workload, trace): {metric: [values]}} from every result file."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if not rec.get("correct"):
            print("note: %s failed its reference check; skipped" % path, file=sys.stderr)
            continue
        ctx = rec["context"]
        key = (ctx["workload"], 1 if ctx["trace"] else 0)
        for name, m in rec["metrics"].items():
            runs.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, bound, lower_is_better):
    b, n = statistics.median(base), statistics.median(new)
    change = (n - b) / abs(b) if b else 0.0
    worse = change if lower_is_better else -change
    if spread(base) > bound or spread(new) > bound:
        beats = max(new) < min(base) if lower_is_better else min(new) > max(base)
        return change, "better" if beats else "unresolved"
    if worse > bound:
        return change, "worse"
    if -worse > bound:
        return change, "better"
    return change, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--by-layer", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(args.base), load(args.new)

    metrics = spec["end_to_end"]
    print("%-18s" % "workload" + "".join("%24s" % m["name"] for m in metrics))
    any_worse = False
    for w in [w["name"] for w in spec["workloads"]]:
        b, n = base.get((w, 0), {}), new.get((w, 0), {})
        cells = []
        for m in metrics:
            if m["name"] not in b or m["name"] not in n:
                cells.append("%24s" % "n/a")
                continue
            change, v = verdict(b[m["name"]], n[m["name"]], m["bound"], m["better"] == "lower")
            any_worse |= v == "worse"
            cells.append("%24s" % ("%+.1f%% %s" % (100 * change, v)))
        print("%-18s" % w + "".join(cells))

    if args.by_layer:
        print("\nper layer (traced runs; medians, base -> new)")
        for w in [w["name"] for w in spec["workloads"]]:
            b, n = base.get((w, 1), {}), new.get((w, 1), {})
            if not b or not n:
                continue
            print("  " + w)
            for m in spec["per_layer"]:
                if m["name"] not in b or m["name"] not in n:
                    continue
                bm, nm = statistics.median(b[m["name"]]), statistics.median(n[m["name"]])
                change = "%+.1f%%" % (100 * (nm - bm) / abs(bm)) if bm else ""
                print("    %-44s %14.4g -> %-14.4g %-8s %s" % (m["name"], bm, nm, m["unit"], change))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
