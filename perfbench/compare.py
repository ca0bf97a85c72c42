#!/usr/bin/env python3
"""Compare two sets of perfbench results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files or directories of them, as run.py files
them under .bench_build/perfbench-results/<digest>/ (one directory per
version of the code). Results are grouped by workload
and mode; each metric's median over a group is compared, and end-to-end
metrics are judged against the bounds in BENCHMARK.json.

Refuses (exit 2) when the provenance of any two results differs in
anything but the code under test (git sha, source digest) and the seed:
a trace, fault, sanitizer or differently configured build, another
compiler, another CPU count, or another run length is not comparable.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VARYING = {"git_sha", "source_digest", "seed"}


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*-trace[01].json"))) \
        if os.path.isdir(path) else [path]
    if not files:
        sys.exit("compare: no results under %s" % path)
    out = []
    for f in files:
        with open(f) as fh:
            out.append(json.load(fh))
    return out


def fixed_provenance(result):
    return {k: v for k, v in result["provenance"].items() if k not in VARYING}


def medians(results):
    groups = {}
    for r in results:
        key = (r["provenance"]["workload"], r["provenance"]["trace"])
        for name, m in r["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return {k: {n: statistics.median(v) for n, v in ms.items()}
            for k, ms in groups.items()}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    # Fields that differ by design between workloads and modes.
    per_run = {"workload", "trace"}
    ref = {k: v for k, v in fixed_provenance(base[0]).items() if k not in per_run}
    for r in base + new:
        prov = {k: v for k, v in fixed_provenance(r).items() if k not in per_run}
        if prov != ref:
            diff = sorted(k for k in set(prov) | set(ref)
                          if prov.get(k) != ref.get(k))
            print("compare: refusing, provenance differs in %s" % diff,
                  file=sys.stderr)
            sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    mb, mn = medians(base), medians(new)
    worse = 0
    for key in sorted(set(mb) & set(mn)):
        print("%s (trace %d)" % key)
        for name in mb[key]:
            if name not in mn[key]:
                continue
            b, n = mb[key][name], mn[key][name]
            change = (n - b) / b if b else 0.0
            loss = -change if better.get(name) == "higher" else change
            verdict = ""
            if name in bounds:
                over = loss > bounds[name]["bound"]
                worse += over
                verdict = "WORSE" if over else "ok"
            print("  %-36s %14.6g %14.6g %+8.2f%% %s" %
                  (name, b, n, 100 * change, verdict))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
