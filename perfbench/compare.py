#!/usr/bin/env python3
"""Summarises and compares benchmark run records.

    python3 perfbench/compare.py BASE.json... [--new NEW.json...]

Each file is a record written by `run.py --out`. Every record of one
call must share one configuration: workload, size, seconds, trace mode,
nproc and CPU model (seed and commit may differ). Records of different
configurations are refused, never compared.

With BASE records only, prints each metric's median and its spread (the
distance between first and third quartile, as a share of the median).
With --new records too, prints the change of each median against the
base and flags end-to-end metrics that got worse by more than their
bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import sys

CONFIG_KEYS = ("workload", "size", "seconds", "trace", "nproc", "cpu_model")


def load(paths):
    records = []
    for p in paths:
        with open(p) as f:
            records.append(json.load(f))
    return records


def config(record):
    fp = record["fingerprint"]
    return tuple((k, fp[k]) for k in CONFIG_KEYS)


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
    else:
        spread = float("nan")
    return med, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="+")
    ap.add_argument("--new", nargs="*", default=[])
    args = ap.parse_args()

    base, new = load(args.base), load(args.new)
    configs = {config(r) for r in base + new}
    if len(configs) != 1:
        print("refusing to compare runs of different configurations:", file=sys.stderr)
        for c in sorted(configs):
            print("  " + ", ".join(f"{k}={v}" for k, v in c), file=sys.stderr)
        sys.exit(2)

    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    bounds = {}
    if os.path.isfile(bench):
        with open(bench) as f:
            bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}

    bad = [r for r in base + new if not r["result"]["correct"]]
    if bad:
        print(f"{len(bad)} record(s) failed their output checks", file=sys.stderr)

    names = list(base[0]["result"]["metrics"])
    worse = []
    for name in names:
        unit = base[0]["result"]["metrics"][name]["unit"]
        b_med, b_spread = stats([r["result"]["metrics"][name]["value"] for r in base])
        line = f"{name:48} {b_med:14.6g} {unit:6} spread {b_spread:6.3f}"
        if new:
            n_med, n_spread = stats([r["result"]["metrics"][name]["value"] for r in new])
            change = (n_med - b_med) / b_med if b_med else float("nan")
            line += f" | new {n_med:14.6g} spread {n_spread:6.3f} change {change:+.3f}"
            m = bounds.get(name)
            if m:
                loss = change if m["better"] == "lower" else -change
                if loss > m["bound"]:
                    worse.append(name)
                    line += f"  WORSE than bound {m['bound']}"
        print(line)
    if worse or bad:
        sys.exit(1)


if __name__ == "__main__":
    main()
