#!/usr/bin/env python3
"""Compare two sets of ledger results: bench/compare.py A.json B.json

A is the base (parent commit), B the change. Each side is one results file
written by `bench/run.sh --out FILE`, or several separated by commas
(`a1.json,a2.json,...`): with four or more per side the run-to-run spread is
known and a metric whose spread is wider than its bound reads `unresolved`
rather than `ok`.

One row per workload and end-to-end metric: base, new (medians), ratio
new/base, the regression bound from BENCHMARK.json, and a verdict:
  ok          not worse than the bound allows
  worse       worse by more than the bound
  unresolved  spread wider than the bound, and not every run of B beats
              every run of A
BENCHMARK.json's bounds have to cover runs on different seeds. When every
file on both sides has the same seed and scale the inputs are identical and
the counts repeat exactly, so there `comm_cost` is held to a bound of 0.
`--layers` adds the per-layer metrics (no bound, no verdict). Exits 1 on any
`worse` or when B's failed share is higher than A's on some workload.
Python standard library only.
"""
import json
import os
import statistics
import sys


# Counts of the protocol: a function of the inputs alone.
EXACT_AT_EQUAL_INPUTS = {"comm_cost"}


def load(arg):
    runs = []
    for path in arg.split(","):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def values(runs, workload, section, name):
    out = []
    for run in runs:
        metric = run["workloads"].get(workload, {}).get(section, {}).get(name)
        if metric is not None:
            out.append(metric["value"])
    return out


def spread(vals):
    """Interquartile distance as a share of the median; None below 4 runs."""
    if len(vals) < 4:
        return None
    q = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q[2] - q[0]) / med if med else 0.0


def verdict(a, b, better, bound):
    base, new = statistics.median(a), statistics.median(b)
    worse_by = (new - base) / base if better == "lower" else (base - new) / base
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "ok" if all_better else "unresolved"
    return "worse" if worse_by > bound else "ok"


def failed_share(runs, workload):
    shares = [
        run["workloads"][workload]["failed"] / run["workloads"][workload]["attempted"]
        for run in runs
        if workload in run["workloads"]
    ]
    return statistics.median(shares) if shares else 0.0


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    layers = "--layers" in argv
    if len(args) != 2:
        print(__doc__)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    a_runs, b_runs = load(args[0]), load(args[1])
    equal_inputs = len({(r["seed"], json.dumps(r["scale"])) for r in a_runs + b_runs}) == 1
    bad = False
    row = "{:<16} {:<40} {:>14} {:>14} {:>8} {:>6}  {}"
    print(row.format("workload", "metric", "base", "new", "ratio", "bound", "verdict"))
    for workload in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            a = values(a_runs, workload, "end_to_end", m["name"])
            b = values(b_runs, workload, "end_to_end", m["name"])
            if not a or not b:
                continue
            exact = equal_inputs and m["name"] in EXACT_AT_EQUAL_INPUTS
            bound = 0 if exact else m["bound"]
            v = verdict(a, b, m["better"], bound)
            bad |= v == "worse"
            base, new = statistics.median(a), statistics.median(b)
            print(row.format(workload, m["name"], f"{base:.6g}", f"{new:.6g}",
                             f"{new / base:.3f}", bound, v))
        if layers:
            for m in bench["per_layer"] + [{"name": "obs.overhead_pct"}]:
                a = values(a_runs, workload, "per_layer", m["name"])
                b = values(b_runs, workload, "per_layer", m["name"])
                if not a or not b:
                    continue
                base, new = statistics.median(a), statistics.median(b)
                ratio = f"{new / base:.3f}" if base else "-"
                print(row.format(workload, m["name"], f"{base:.6g}", f"{new:.6g}", ratio, "-", "-"))
        fa, fb = failed_share(a_runs, workload), failed_share(b_runs, workload)
        v = "worse" if fb > fa else "ok"
        bad |= v == "worse"
        print(row.format(workload, "failed_share", f"{fa:.6g}", f"{fb:.6g}", "-", 0, v))
        # Informational: with equal seeds and scale the same code repeats
        # every count exactly.
        ca = [r["workloads"][workload]["counts"] for r in a_runs if workload in r["workloads"]]
        cb = [r["workloads"][workload]["counts"] for r in b_runs if workload in r["workloads"]]
        if ca and cb and equal_inputs:
            keys = ("uplinks", "probes", "state_digest", "oracle_mismatches")
            same = all(ca[0][k] == cb[0][k] for k in keys)
            print(row.format(workload, "counts (uplinks, probes, digest)", "-", "-", "-", "-",
                             "identical" if same else "differ"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
