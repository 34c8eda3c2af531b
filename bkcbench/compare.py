#!/usr/bin/env python3
"""Compare two sets of bkcbench result files metric by metric.

    python3 bkcbench/compare.py --base A1.json A2.json ... \\
                                --new B1.json B2.json ... [--force]

Every run writes a result file (host fingerprint, metrics with sample
counts, notes) to <build tree>/results/. The bounds in BENCHMARK.json
apply to the median of repeated runs, one seed each, not to a single
run: on a shared host one run of unchanged code can read 20% slow. Pass
ten runs a side. compare.py prints each side's median and quartile
spread and flags an end-to-end metric whose new median is worse than
the base median by more than its bound (exit 1).

Runs compare only when they ran the same workload on the same host:
compare.py refuses (exit 2) when the workload or a host key of the
fingerprint differs between any two files (CPU model, nproc, compiler,
build type, active conv kernel, scalar forcing). --force compares
anyway and flags each differing key.
"""

import argparse
import json
import os
import statistics
import sys

HOST_KEYS = ("cpu", "nproc", "compiler", "build_type", "conv_kernel",
             "scalar_forced")
SPEC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load(paths):
    results = []
    for path in paths:
        with open(path) as f:
            results.append(json.load(f))
    return results


def summary(values):
    """Median and quartile spread (IQR / median) of one metric's runs."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    q = statistics.quantiles(values, n=4)
    return median, (q[2] - q[0]) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--force", action="store_true",
                        help="compare despite differing fingerprints")
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)

    first = base[0]["fingerprint"]
    differing = sorted({key for r in base + new
                        for key in HOST_KEYS + ("workload",)
                        if r["fingerprint"].get(key) != first.get(key)})
    for key in differing:
        seen = sorted({str(r["fingerprint"].get(key)) for r in base + new})
        print(f"FINGERPRINT DIFFERS: {key}: {', '.join(seen)}")
    if differing and not args.force:
        print("refusing to compare runs from different hosts or workloads "
              "(--force to compare anyway)")
        return 2

    with open(SPEC) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] +
              spec["per_layer"]}
    regressed = False
    print(f"{'metric':36} {'base median':>14} {'spread':>7} "
          f"{'new median':>14} {'spread':>7} {'change':>8}")
    for name, metric in base[0]["metrics"].items():
        if not all(name in r["metrics"] for r in base + new):
            continue
        old_value, old_spread = summary(
            [r["metrics"][name]["value"] for r in base])
        new_value, new_spread = summary(
            [r["metrics"][name]["value"] for r in new])
        change = (new_value / old_value - 1.0) if old_value else 0.0
        worse = change if better.get(name) == "lower" else -change
        flag = ""
        if name in bounds and worse > bounds[name]["bound"]:
            flag = f"  REGRESSION (bound {bounds[name]['bound']:.0%})"
            regressed = True
        print(f"{name:36} {old_value:14.6g} {old_spread:7.1%} "
              f"{new_value:14.6g} {new_spread:7.1%} {change:+8.2%} "
              f"{metric['unit']}{flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
