#!/usr/bin/env python3
"""The benchmark's self-test.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json at --size tiny for one second, once
untraced and once traced.  Each run must exit 0, name exactly the
end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json lists,
with their units, and pass every output check (correct, no failures).
"""

import json
import subprocess
import sys


def check(workload, trace, wanted):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(lines[-1])
    problems = []
    got = result["metrics"]
    for name in sorted(set(wanted) - set(got)):
        problems.append(f"missing {name}")
    for name in sorted(set(got) - set(wanted)):
        problems.append(f"unlisted {name}")
    for name in sorted(set(wanted) & set(got)):
        if got[name]["unit"] != wanted[name]:
            problems.append(f"{name}: unit {got[name]['unit']}, listed {wanted[name]}")
    if not result["correct"] or result["failed"]:
        problems.append(f"output checks failed ({result['failed']} of {result['attempted']})")
    return problems


# Runnable but not listed in BENCHMARK.json (see README.md); tested all the same.
UNLISTED = ["serve-open"]


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = 0
    for name in [w["name"] for w in spec["workloads"]] + UNLISTED:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            problems = check(name, trace, wanted)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok'}   {name} --trace {trace}")
            for p in problems:
                print(f"       {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
