#!/usr/bin/env python3
"""Summarise or compare saved perfbench runs.

    python3 perfbench/compare.py DIR              # spread of each metric
    python3 perfbench/compare.py BASE_DIR NEW_DIR  # change of each median

Each DIR holds the standard output of single runs, one file per run,
named <anything>.out.  Runs are grouped by the workload recorded in their
env line.  For every end-to-end metric the summary prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json; a comparison prints the
relative change of the median, signed so that positive is worse, and
flags changes beyond the bound.  Runs recorded with different core counts
are refused: a figure taken on 1 core says nothing about 2.
"""

import glob
import json
import os
import statistics
import sys


def load(directory):
    """workload -> list of (env, result) for every *.out file."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        env, result = None, None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                doc = json.loads(line)
                if "env" in doc:
                    env = doc["env"]
                else:
                    result = doc
        if env is None or result is None:
            print(f"skipping {path}: no env line or no result", file=sys.stderr)
            continue
        runs.setdefault(env["workload"], []).append((env, result))
    return runs


def nprocs(runs):
    return {env["nproc"] for rs in runs.values() for env, _ in rs}


def medians(rs, metric):
    values = [r["metrics"][metric]["value"] for _, r in rs if metric in r["metrics"]]
    if len(values) < 2:
        return values, None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return values, (q1, q2, q3)


def summary(runs, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, rs in sorted(runs.items()):
        bad = sum(1 for _, r in rs if not r["correct"])
        print(f"{workload}: {len(rs)} runs, {bad} incorrect")
        for name, m in bounds.items():
            values, q = medians(rs, name)
            if q is None:
                continue
            q1, q2, q3 = q
            spread = (q3 - q1) / q2 if q2 else float("inf")
            mark = "" if spread <= m["bound"] / 3 else (" > bound/3" if spread <= m["bound"] else " > BOUND")
            print(f"  {name:26s} median {q2:.6g} {m['unit']:6s} q1 {q1:.6g} q3 {q3:.6g}"
                  f"  spread {spread:.3f} (bound {m['bound']}){mark}")


def compare(base, new, spec):
    for workload in sorted(set(base) & set(new)):
        print(workload)
        for m in spec["end_to_end"]:
            _, qb = medians(base[workload], m["name"])
            _, qn = medians(new[workload], m["name"])
            if qb is None or qn is None or not qb[1]:
                continue
            change = (qn[1] - qb[1]) / abs(qb[1])
            worse = change if m["better"] == "lower" else -change
            flag = "  WORSE beyond bound" if worse > m["bound"] else ""
            print(f"  {m['name']:26s} {qb[1]:.6g} -> {qn[1]:.6g} {m['unit']:6s}"
                  f" worse by {worse:+.3f} (bound {m['bound']}){flag}")


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    sets = [load(d) for d in argv]
    cores = set().union(*(nprocs(s) for s in sets))
    if len(cores) > 1:
        print(f"refusing to compare runs recorded with different core counts: {sorted(cores)}",
              file=sys.stderr)
        return 2
    if len(sets) == 1:
        summary(sets[0], spec)
    else:
        compare(sets[0], sets[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
