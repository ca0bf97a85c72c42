#!/usr/bin/env python3
"""Sweep the test suite across deterministic fault-injection schedules.

Runs the repository's ctest suite repeatedly, each time with a different
CMARKS_FAULT_SPEC (see src/support/faults.h), so the semantics-preserving
fault sites — forced collections, forced segment overflows, disabled
underflow fusion — are exercised at many reproducible points. Every build
compiles the probes in. Before the first leg the sweep checks that a spec
does fire in this build (`cmarks_repl --fault-report` under gc:every=1 must
report an injection) and refuses to run otherwise, since every spec would
vacuously pass.

Tests whose names match the exclusion regex are skipped: those suites
assert performance-path behavior (event counters, trace contents, the
governance layer itself) that injection legitimately perturbs. Everything
else must pass at every scheduled site and seed.

Output: a human-readable summary plus a JSON report (schema
cmarks-fault-sweep-v1) suitable for CI artifacts. The report is rewritten
after every leg, so a sweep cut short still leaves the legs it finished;
each ctest leg records its wall time and its slowest tests. Exit status is
0 only if every scheduled run passed.

With --pool the sweep drives tools/chaos_pool instead of ctest: each
scheduled spec is injected into every worker engine of a serving pool
while the chaos harness asserts its resilience invariants (full outcome
accounting, goodput, supervised restarts). This is the "faults under
concurrency" leg — the ctest sweep checks single-engine semantics, the
pool sweep checks that injection plus supervision never wedges or
miscounts a fleet.

Usage:
  tools/fault_sweep.py --build-dir build
  tools/fault_sweep.py --build-dir build --smoke   # CI-sized
  tools/fault_sweep.py --build-dir build --smoke --pool
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

SCHEMA = "cmarks-fault-sweep-v1"

# A spec that fires in any working build: every allocation of the probe
# expression passes the gc site.
PROBE_SPEC = "gc:every=1"

# How many of a ctest leg's slowest tests its report entry keeps.
SLOWEST_KEPT = 5

# Suites that assert counter values, trace contents, or limit behavior
# that fault injection legitimately changes. "Fusion" is excluded for
# every site: forced collections promote opportunistic one-shots and
# forced overflows split segments, so fusion-count assertions cannot
# hold (correctness of the same programs is still checked elsewhere).
BASE_EXCLUDE = (r"Stats|Trace|Fault|Limit|Timeout|Interrupt|Governance"
                r"|ErrorContext|Fusion")

# Disabling underflow fusion additionally breaks suites that assert the
# fusion fast path is *taken* (it still must compute correct answers,
# which the remaining suites check).
NOFUSE_EXCLUDE = BASE_EXCLUDE + r"|Continuations\.|OneShot"


def schedule(smoke, seeds):
    """Yields (spec, exclude_regex) pairs for the sweep.

    Intervals are tuned so a run costs low single-digit multiples of the
    clean suite: a forced collection is O(heap) and a forced overflow
    walks the whole segment-switch path, so firing either every few dozen
    events makes the sweep quadratic. The gc site only gets interval
    triggers — p=1 is the finest probabilistic grain (integer percent)
    and fires a full collection every ~100 allocations, which is far too
    hot; seeded probabilistic coverage rides on the cheaper sites.
    """
    runs = []
    if smoke:
        runs.append(("gc:every=997", BASE_EXCLUDE))
        runs.append(("overflow:every=127", BASE_EXCLUDE))
        runs.append(("nofuse:every=1", NOFUSE_EXCLUDE))
        runs.append(("overflow:p=1,seed=1;nofuse:p=50,seed=1", NOFUSE_EXCLUDE))
        return runs
    for every in (499, 997, 2003):
        runs.append((f"gc:every={every}", BASE_EXCLUDE))
    for every in (127, 251, 509):
        runs.append((f"overflow:every={every}", BASE_EXCLUDE))
    runs.append(("nofuse:every=1", NOFUSE_EXCLUDE))
    runs.append(("nofuse:every=2", NOFUSE_EXCLUDE))
    for seed in seeds:
        runs.append((f"overflow:p=1,seed={seed}", BASE_EXCLUDE))
        runs.append(
            (f"overflow:p=1,seed={seed};nofuse:p=50,seed={seed}",
             NOFUSE_EXCLUDE))
    return runs


def pool_schedule(smoke, seeds):
    """Specs for the --pool sweep (no exclusion regexes: chaos_pool owns
    its assertions).

    The oom site appears here even though the ctest sweep excludes
    limit-sensitive suites: an injected allocation failure surfaces as a
    catchable heap trip, which is exactly the transient the pool's retry
    policy exists for. Intervals are coarser than the ctest sweep's
    because every worker engine runs the spec simultaneously.
    """
    runs = [("gc:every=997", ""), ("overflow:every=127", ""),
            ("oom:every=5003", ""), ("nofuse:every=1", "")]
    if smoke:
        return runs
    for every in (499, 2003):
        runs.append((f"gc:every={every}", ""))
    for every in (251, 509):
        runs.append((f"overflow:every={every}", ""))
    for seed in seeds:
        runs.append((f"overflow:p=1,seed={seed};nofuse:p=50,seed={seed}", ""))
    return runs


def run_chaos_pool(build_dir, spec, jobs_unused, env_base):
    binary = Path(build_dir) / "tools" / "chaos_pool"
    if not binary.is_file():
        return {"spec": spec, "mode": "pool", "returncode": 127,
                "duration_s": 0.0}, f"{binary} not built"
    report = Path(build_dir) / "chaos-sweep-report.json"
    cmd = [str(binary), "--smoke", f"--fault-spec={spec}",
           f"--report={report}"]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=dict(env_base), capture_output=True,
                          text=True)
    duration = time.monotonic() - start
    out = proc.stdout + proc.stderr
    result = {
        "spec": spec,
        "mode": "pool",
        "returncode": proc.returncode,
        "duration_s": round(duration, 2),
    }
    try:
        chaos = json.loads(report.read_text())
        result["goodput_pct"] = chaos.get("goodput_pct")
        result["worker_restarts"] = chaos.get("worker_restarts")
        result["faults_injected"] = chaos.get("faults_injected")
    except (OSError, json.JSONDecodeError):
        pass
    return result, out


def probe_injections(build_dir, env_base):
    """Faults injected by cmarks_repl under PROBE_SPEC (0 when the probe
    cannot run), so a sweep over this build cannot pass vacuously."""
    repl = Path(build_dir) / "tools" / "cmarks_repl"
    env = dict(env_base)
    env["CMARKS_FAULT_SPEC"] = PROBE_SPEC
    try:
        proc = subprocess.run(
            [str(repl), "--fault-report", "-e", "(length (list 1 2 3))"],
            env=env, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired):
        return 0
    m = re.search(r"^\s*gc: .*injected=(\d+)", proc.stderr, re.MULTILINE)
    return int(m.group(1)) if m else 0


def slowest_tests(out):
    """The SLOWEST_KEPT slowest tests of a ctest run, parsed from its
    per-test lines ("... Test  #12: Name ....   Passed    1.23 sec")."""
    times = re.findall(r"Test\s+#\d+: (\S+) .*?([\d.]+) sec$", out,
                       re.MULTILINE)
    times = sorted(((float(s), name) for name, s in times), reverse=True)
    return [{"name": name, "seconds": s} for s, name in times[:SLOWEST_KEPT]]


def run_ctest(build_dir, spec, exclude, jobs, env_base):
    env = dict(env_base)
    env["CMARKS_FAULT_SPEC"] = spec
    cmd = [
        "ctest", "--test-dir", str(build_dir), "-E", exclude,
        "-j", str(jobs), "--output-on-failure",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    duration = time.monotonic() - start
    out = proc.stdout + proc.stderr

    passed = failed = 0
    m = re.search(r"(\d+) tests passed.*out of (\d+)", out)
    if m:
        passed = int(m.group(1))
        failed = int(m.group(2)) - passed
    else:
        m = re.search(r"tests passed, (\d+) tests failed out of (\d+)", out)
        if m:
            failed = int(m.group(1))
            passed = int(m.group(2)) - failed
    failed_tests = re.findall(r"^\s*\d+ - (\S+) \(", out, re.MULTILINE)
    return {
        "spec": spec,
        "exclude": exclude,
        "returncode": proc.returncode,
        "passed": passed,
        "failed": failed,
        "failed_tests": sorted(set(failed_tests)) if proc.returncode else [],
        "duration_s": round(duration, 2),
        "slowest_tests": slowest_tests(out),
    }, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build", help="CMake build tree")
    ap.add_argument("--smoke", action="store_true",
                    help="small CI-sized schedule (4 runs)")
    ap.add_argument("--seeds", default="1,2",
                    help="comma-separated seeds for probabilistic specs")
    ap.add_argument("--jobs", "-j", type=int, default=2)
    ap.add_argument("--report", default=None,
                    help="JSON report path (default: <build-dir>/fault-sweep.json)")
    ap.add_argument("--verbose", action="store_true",
                    help="print ctest output for failing runs")
    ap.add_argument("--pool", action="store_true",
                    help="sweep tools/chaos_pool (serving-pool resilience "
                         "under injection) instead of the ctest suite")
    args = ap.parse_args()

    build_dir = Path(args.build_dir)
    env_base = dict(os.environ)
    if probe_injections(build_dir, env_base) == 0:
        print(f"error: {build_dir}/tools/cmarks_repl injected no fault under"
              f" CMARKS_FAULT_SPEC={PROBE_SPEC}; the sweep would vacuously"
              " pass", file=sys.stderr)
        return 2

    seeds = [int(s) for s in args.seeds.split(",") if s]
    runs = (pool_schedule if args.pool else schedule)(args.smoke, seeds)
    default_name = "fault-sweep-pool.json" if args.pool else "fault-sweep.json"
    report_path = Path(args.report) if args.report else build_dir / default_name

    results = []
    ok = True

    def write_report():
        report = {
            "schema": SCHEMA,
            "build_dir": str(build_dir),
            "smoke": args.smoke,
            "mode": "pool" if args.pool else "ctest",
            "ok": ok,
            "complete": len(results) == len(runs),
            "runs": results,
        }
        report_path.write_text(json.dumps(report, indent=2) + "\n")

    for i, (spec, exclude) in enumerate(runs, 1):
        what = "chaos_pool" if args.pool else "ctest"
        print(f"[{i}/{len(runs)}] {what} CMARKS_FAULT_SPEC={spec!r} ... ",
              end="", flush=True)
        if args.pool:
            result, out = run_chaos_pool(build_dir, spec, args.jobs, env_base)
        else:
            result, out = run_ctest(build_dir, spec, exclude, args.jobs,
                                    env_base)
        results.append(result)
        if result["returncode"] == 0:
            if args.pool:
                print(f"ok (goodput {result.get('goodput_pct')}%, "
                      f"{result.get('worker_restarts')} restarts, "
                      f"{result['duration_s']}s)", flush=True)
            else:
                print(f"ok ({result['passed']} tests, "
                      f"{result['duration_s']}s)", flush=True)
        else:
            ok = False
            if args.pool:
                print(f"FAILED (exit {result['returncode']})")
            else:
                print(f"FAILED ({result['failed']} of "
                      f"{result['passed'] + result['failed']} tests)")
                for name in result["failed_tests"]:
                    print(f"    failed: {name}")
            if args.verbose:
                print(out)
            sys.stdout.flush()
        write_report()

    print(f"{'PASS' if ok else 'FAIL'}: {len(runs)} scheduled specs;"
          f" report written to {report_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
