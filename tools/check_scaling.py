#!/usr/bin/env python3
"""Scaling gate over BENCH_scaling.json.

Two rules (DESIGN.md §15, "Reading BENCH_scaling.json"):

1. **One thread, no miracle.** At threads=1 every shard runs on the
   same core, so sharding can buy locality (smaller trees, smaller
   batches) but no parallelism: no shards>1 row may exceed
   MAX_SINGLE_THREAD_SPEEDUP. A larger value means a super-linear term
   is back in the single engine and partitioning is dividing it — the
   old 4.4x at N=8000 was a cubic worklist scan divided by shards².
   Always gated.
2. **More shards never hurt where the host can run them.** shards=4
   must reach the shards=2 speedup (minus a noise tolerance) in every
   (mode, n_objects, threads) group with threads <= cores and
   shards <= cores. On a narrower host the extra shards only add
   coordinator work and time-slicing, so those groups are printed as
   info.

The core count is the one stamped into the rows by the bench (the host
that produced the file); rows without it fall back to this host's.

Usage: check_scaling.py [BENCH_scaling.json]
"""

import json
import os
import sys

# Runner-noise allowance on the speedup ratio: 4-shard must reach at
# least (1 - TOLERANCE) of the 2-shard speedup.
TOLERANCE = 0.05

# Locality alone has been worth at most ~1.2x at bench scale.
MAX_SINGLE_THREAD_SPEEDUP = 1.5


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_scaling.json"
    with open(path) as f:
        rows = json.load(f)

    cores = next((r["cores"] for r in rows if "cores" in r), os.cpu_count() or 1)
    print(f"cores={cores}")
    groups = {}
    for r in rows:
        key = (r["mode"], r["n_objects"], r["threads"])
        groups.setdefault(key, {})[r["shards"]] = r["speedup_vs_1_shard"]

    failures = []
    gated = 0
    for (mode, n, t), by_shards in sorted(groups.items()):
        where = f"{mode} n={n} threads={t}"
        if t == 1:
            for shards, speedup in sorted(by_shards.items()):
                if shards == 1:
                    continue
                gated += 1
                ok = speedup <= MAX_SINGLE_THREAD_SPEEDUP
                print(
                    f"{where}: shards={shards} {speedup:5.2f}x on one thread "
                    f"[{'ok' if ok else 'SUPER-LINEAR'}, gated]"
                )
                if not ok:
                    failures.append(
                        f"{where}: shards={shards} is {speedup:.2f}x on one thread "
                        f"(limit {MAX_SINGLE_THREAD_SPEEDUP}x): the single engine "
                        f"has a super-linear term"
                    )
        if 2 not in by_shards or 4 not in by_shards:
            continue
        s2, s4 = by_shards[2], by_shards[4]
        if t > cores:
            enforced, why = False, f"info only (threads={t} > {cores} cores)"
        elif 4 > cores:
            enforced, why = False, f"info only (shards=4 > {cores} cores)"
        else:
            enforced, why = True, "gated"
        ok = s4 >= s2 * (1.0 - TOLERANCE)
        verdict = "ok" if ok else "REGRESSION" if enforced else "below"
        print(f"{where}: shards=2 {s2:5.2f}x  shards=4 {s4:5.2f}x  [{verdict}, {why}]")
        if enforced:
            gated += 1
            if not ok:
                failures.append(
                    f"{where}: shards=4 ({s4:.2f}x) fell below shards=2 "
                    f"({s2:.2f}x, tolerance {TOLERANCE:.0%})"
                )

    if not gated:
        print("error: no bench point was gated — artifact empty or malformed")
        return 1
    if failures:
        print(f"\n{len(failures)} scaling failure(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nall {gated} gated bench points pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
