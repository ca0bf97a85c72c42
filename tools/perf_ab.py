#!/usr/bin/env python3
"""Interleaved A/B comparison of two perfbench binaries.

    python3 tools/perf_ab.py BASE NEW --workload apps --pairs 10 \\
        --seconds 25 [--trace 0] [--seed 1] [--claim throughput_ops_s]

BASE and NEW are perfbench binaries (perfbench/run.py builds one at
.bench_build/perfbench/perfbench in each checkout). Each pair runs both
binaries once with the same seed; the side that runs first alternates
between pairs, so drift in the host's load falls on both sides alike.
Pair i uses seed SEED + i.

For every metric the run reports, prints each side's median and
quartiles over the pairs, the ratio of the medians (NEW / BASE), and in
how many pairs NEW was better. End-to-end metrics worse than their
BENCHMARK.json bound are flagged ("WORSE"); the flag does not change the
exit status, since a short run can cross a bound by noise alone.

--claim METRIC states that NEW improves METRIC. The claim holds when NEW
is better in at least nine of every ten pairs and the medians differ by
more than BASE's interquartile range.

Exit status: 0 done (and every claim held); 1 an operation failed or
answered incorrectly, a run failed, or a claim did not hold; 2 bad
arguments, or the two binaries were built differently (their provenance
blocks differ: build type, options, compiler, CPU count).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("apps", "continuations", "serve", "serve-fibers")
RUN_GRACE_S = 120


def fail(msg, code=1):
    print("perf_ab: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return better, bounds


def run_once(binary, args, seed):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        fail("exited with %d: %s" % (proc.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s (seed %d): correct=%s, %d of %d operations failed" %
             (binary, seed, result["correct"], result["failed"],
              result["attempted"]))
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    ap.add_argument("base", help="perfbench binary of the parent")
    ap.add_argument("new", help="perfbench binary of the change")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--claim", action="append", default=[], metavar="METRIC",
                    help="a metric NEW claims to improve (repeatable)")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")
    better, bounds = load_spec()
    for name in args.claim:
        if name not in better:
            ap.error("--claim %s: not a metric in BENCHMARK.json" % name)
    for binary in (args.base, args.new):
        if not os.access(binary, os.X_OK):
            ap.error("not an executable: " + binary)

    sides = {"base": [], "new": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for side in order:
            sides[side].append(run_once(getattr(args, side), args, seed))
        if i == 0:
            missing = set(args.claim) - set(sides["base"][0]["metrics"])
            if missing:
                fail("--claim %s: not reported with --trace %d" %
                     (", ".join(sorted(missing)), args.trace), 2)
        prov = [sides[s][-1]["provenance"] for s in ("base", "new")]
        if prov[0] != prov[1]:
            diff = sorted(k for k in set(prov[0]) | set(prov[1])
                          if prov[0].get(k) != prov[1].get(k))
            fail("refusing: the binaries' provenance differs in %s" % diff, 2)
        print("pair %d/%d done (seed %d, %s first)" %
              (i + 1, args.pairs, seed, order[0]), file=sys.stderr)

    print("perf_ab: %s, %d pairs x %gs, trace %d, seeds %d..%d" %
          (args.workload, args.pairs, args.seconds, args.trace, args.seed,
           args.seed + args.pairs - 1))
    print("  base: %s\n  new:  %s" % (args.base, args.new))
    print("  %-32s %12s %25s %12s %25s %7s %6s" %
          ("metric", "base median", "base [q1, q3]", "new median",
           "new [q1, q3]", "ratio", "won"))
    failed_claims = []
    flagged = []
    for name in sides["base"][0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in sides["base"]]
        n = [r["metrics"][name]["value"] for r in sides["new"]]
        higher = better.get(name) == "higher"
        won = sum(1 for x, y in zip(b, n) if (y > x if higher else y < x))
        bm, nm = statistics.median(b), statistics.median(n)
        bq, nq = quartiles(b), quartiles(n)
        ratio = nm / bm if bm else float("nan")
        note = ""
        if name in bounds and bm:
            loss = (bm - nm) / bm if higher else (nm - bm) / bm
            if loss > bounds[name]:
                note = "WORSE than bound %g" % bounds[name]
                flagged.append(name)
        if name in args.claim:
            need = math.ceil(0.9 * args.pairs)
            gain = nm - bm if higher else bm - nm
            iqr = bq[1] - bq[0]
            held = won >= need and gain > iqr
            note = ("claim %s: won %d/%d (need %d), median gain %.4g vs "
                    "base IQR %.4g" % ("holds" if held else "FAILS", won,
                                       args.pairs, need, gain, iqr))
            if not held:
                failed_claims.append(name)
        print("  %-32s %12.5g %25s %12.5g %25s %7.3f %3d/%-2d %s" %
              (name, bm, "[%.5g, %.5g]" % bq, nm, "[%.5g, %.5g]" % nq,
               ratio, won, args.pairs, note))
    print("perf_ab: %d end-to-end metric(s) worse than bound%s" %
          (len(flagged), (": " + ", ".join(flagged)) if flagged else ""))
    if failed_claims:
        fail("claim did not hold: " + ", ".join(failed_claims))


if __name__ == "__main__":
    main()
