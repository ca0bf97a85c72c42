#!/usr/bin/env python3
"""Build and run the cmscheme benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload apps --seed 1 --seconds 10 --trace 0

Builds the cmarks library and the perfbench binary from source into
.bench_build/perfbench (production configuration, see CMakeLists.txt),
runs one workload, files the full result (provenance, metrics, extras,
raw counters) under .bench_build/perfbench-results/<digest>/, where
<digest> is the first 12 hex digits of the source digest, so results of
different code never overwrite each other, and prints as the last stdout
line the JSON object {correct, attempted, failed, metrics}.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "perfbench-results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("apps", "continuations", "serve", "serve-fibers")
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 120
JOBS = 4


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout
    and waits for it, so no compiler or worker outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cmarks sources at %s; run from a full checkout" % ROOT)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(JOBS),
                      "--target", "perfbench"])
        for step in steps:
            code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=log,
                                stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build step failed: " + " ".join(step))


def source_digest():
    """sha256 over every file the benchmark is built from (the checkout
    need not be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("bench", "programs"), "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def expected_metric_names(trace):
    """The metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    digest = source_digest()
    results_dir = os.path.join(RESULTS_DIR, digest[:12])
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(results_dir, stem + ".spans.json")]
    code, out = run_group(cmd, args.seconds + RUN_GRACE_S,
                          stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail("perfbench exited with %d" % code)
    result = json.loads(lines[-1])
    result["provenance"].update(git_sha=git_sha(), source_digest=digest,
                                workload=args.workload, seed=args.seed,
                                seconds=args.seconds, trace=args.trace)
    names = expected_metric_names(args.trace)
    if names is not None and names != set(result["metrics"]):
        fail("metric names differ from BENCHMARK.json: %s" %
             sorted(names ^ set(result["metrics"])))
    result_path = os.path.join(results_dir, stem + ".json")
    with open(result_path, "w") as f:
        json.dump(result, f, indent=1)

    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    print("result filed as " + os.path.relpath(result_path, ROOT))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
