#!/usr/bin/env python3
"""Summarise benchmark result records, or compare two sets of them.

    python3 perfbench/compare.py .perfbench/results
    python3 perfbench/compare.py parent_results/ --against change_results/

Each record is a file run.py wrote to .perfbench/results/.  Per workload
and metric this prints the median, the quartiles and the spread (distance
between the quartiles as a share of the median).  With --against it also
prints the relative change of each median and marks a change worse than
the metric's bound in BENCHMARK.json.  The metrics that are printed and
recorded but not bounded are summarised too.  Records taken under
different census backends are never compared.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    records = []
    for path in paths:
        files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) \
            else [path]
        for name in files:
            with open(name, encoding="utf-8") as fh:
                records.append(json.load(fh))
    return records


def summary(records):
    """{(workload, trace): {metric: [values]}}"""
    out = defaultdict(lambda: defaultdict(list))
    for rec in records:
        values = {name: m["value"] for name, m in rec["metrics"].items()}
        values.update(rec.get("printed", {}))
        for name, value in values.items():
            out[(rec["workload"], rec["trace"])][name].append(value)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="+", help="record files or directories")
    ap.add_argument("--against", nargs="+", help="records of the changed program")
    args = ap.parse_args(argv)
    base = load(args.results)
    other = load(args.against) if args.against else []
    backends = {r["machine"]["census_backend"] for r in base + other}
    if len(backends) > 1:
        print(f"refusing to compare results from different census backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bound = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    better.update({name: "lower" for name in ("job_p50_ref", "job_tail_ref", "wall_s",
                                              "job_p50_ms", "job_tail_ms", "reference_ms")})
    a, b = summary(base), summary(other)
    for key in sorted(a):
        workload, trace = key
        print(f"== {workload} (trace {trace}), {len(next(iter(a[key].values())))} runs")
        for name, values in a[key].items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  " \
                   f"spread {spread:.3f}"
            if name in bound:
                line += f" (bound {bound[name]['bound']})"
            if key in b and name in b[key]:
                new = quartiles(b[key][name])[1]
                change = (new - med) / med if med else 0.0
                worse = change > 0 if better[name] == "lower" else change < 0
                flag = " WORSE THAN BOUND" if name in bound and worse and \
                    abs(change) > bound[name]["bound"] else ""
                line += f"  -> {new:.6g} ({change:+.3%}){flag}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
