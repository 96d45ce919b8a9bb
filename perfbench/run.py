#!/usr/bin/env python3
"""Build mcfuser from source and run one perfbench workload.

Run from the root of an mcfuser checkout:

    python3 perfbench/run.py --workload tune-tables --seed 1 --seconds 45 --trace 0

Workloads: tune-tables, tune-deep, serve-open.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones; --size tiny shrinks the
inputs for the self-test.  The last line of standard output is the JSON
result and the line before it the environment (core count, OCaml version,
revision, seed).  Build output goes to standard error.  See
perfbench/README.md for what each workload and metric means.
"""

import os
import subprocess
import sys


def main(argv):
    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin")):
        print("perfbench: run from the root of an mcfuser checkout", file=sys.stderr)
        return 2
    # The dune cache lives outside the checkout; the benchmark stays inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "bin/mcfuser_cli.exe", "perfbench/bench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        return build.returncode
    rev = "unknown"
    if os.path.isdir(".git"):
        git = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            rev = git.stdout.strip()
    nproc = len(os.sched_getaffinity(0))
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe, *argv, "--nproc", str(nproc), "--rev", rev],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
