#!/usr/bin/env python3
"""Check that the traced run's counters repeat exactly for a fixed seed.

    python3 perfbench/check_exact.py [--seed N]

Runs the traced run of apps and continuations twice each with the same
seed and compares every raw counter the traced pass reads (VMStats,
HeapStats, and the compiler's attachment categories). Prints the counters
that repeated exactly and exits 1 if any differed. The pool workloads are
not checked: their counts depend on how jobs interleave across workers.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


FILED = "result filed as "


def traced_counts(workload, seed):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    path = next(line[len(FILED):] for line in out.splitlines()
                if line.startswith(FILED))
    with open(os.path.join(ROOT, path)) as f:
        return json.load(f)["counts"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    failed = False
    for workload in ("apps", "continuations"):
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        exact = sorted(k for k in first if k not in differ)
        print("%s: %d counters exact: %s" % (workload, len(exact),
                                             " ".join(exact)))
        if differ:
            failed = True
            print("%s: DIFFER: %s" % (workload, " ".join(
                "%s=%s/%s" % (k, first[k], second.get(k)) for k in differ)))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
