#!/usr/bin/env python3
"""Summarize (or validate) a cmarks trace JSON file.

The input is the Chrome trace-event JSON written by `cmarks_repl
--trace=FILE`, `SchemeEngine::dumpTrace()`, `(runtime-trace-dump
"FILE")`, or `EnginePool::dumpTrace()` (schema "cmarks-trace-v1";
loadable in ui.perfetto.dev). Pool exports are multi-threaded: worker N
renders as tid N+1, and serving jobs appear as named "job-<id>" spans.

  trace_report.py FILE            per-event counts and span durations
  trace_report.py --check FILE    validate the schema; exit 0/1 (CI).
                                  Warns on stderr when the ring dropped
                                  events (the export is truncated);
                                  with --max-dropped N, more than N
                                  dropped events fail the check.
  trace_report.py --jobs FILE     per-job table: id, worker, start, wall
"""
import argparse
import json
import sys
from collections import Counter, defaultdict

SCHEMA = "cmarks-trace-v1"
PHASES = {"B", "E", "i", "M"}


def fail(msg):
    print(f"trace_report: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def check(doc, path, max_dropped=None):
    """Validates the cmarks-trace-v1 shape; exits non-zero on violation,
    or when more than max_dropped events were dropped (if given)."""
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    other = doc.get("otherData")
    if not isinstance(other, dict) or other.get("schema") != SCHEMA:
        fail(f"{path}: otherData.schema is not {SCHEMA!r}")
    for key in ("events", "dropped"):
        if key not in other:
            fail(f"{path}: otherData lacks {key!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: traceEvents must be a list")
    # Begin/End balance is per thread: pool exports interleave workers,
    # and the exporter guarantees spans never cross engines (tids).
    depth = Counter()
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(f"{path}: event {i} is not an object")
        ph = e.get("ph")
        if ph not in PHASES:
            fail(f"{path}: event {i} has bad ph {ph!r}")
        if not isinstance(e.get("name"), str) or not e["name"]:
            fail(f"{path}: event {i} lacks a name")
        tid = e.get("tid")
        if e.get("pid") != 1 or not isinstance(tid, int) or tid < 1:
            fail(f"{path}: event {i} has bad pid/tid")
        if ph != "M":
            ts = e.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                fail(f"{path}: event {i} has bad ts {ts!r}")
        if ph == "B":
            depth[tid] += 1
        elif ph == "E":
            depth[tid] -= 1
            if depth[tid] < 0:
                fail(f"{path}: event {i}: E without a matching B (tid {tid})")
    for tid, d in depth.items():
        if d != 0:
            fail(f"{path}: tid {tid}: {d} B event(s) left unclosed")
    # otherData.events counts ring-buffer entries; the exported list can
    # differ slightly when the exporter repaired B/E pairs broken by
    # wraparound, so only the field's type is checked.
    if not isinstance(other["events"], int) or other["events"] < 0:
        fail(f"{path}: otherData.events is not a count")
    dropped = other["dropped"]
    if not isinstance(dropped, int) or dropped < 0:
        fail(f"{path}: otherData.dropped is not a count")
    if max_dropped is not None and dropped > max_dropped:
        fail(f"{path}: ring dropped {dropped} event(s), more than "
             f"--max-dropped {max_dropped}")
    if dropped > 0:
        print(f"trace_report: WARNING: {path}: ring dropped {dropped} "
              f"event(s); the export holds only the newest window "
              f"(raise the trace capacity)", file=sys.stderr)
    n_real = sum(1 for e in events if e.get("ph") != "M")
    n_tids = len({e.get("tid") for e in events})
    print(f"{path}: OK ({n_real} events, {dropped} dropped, {n_tids} "
          "thread(s))")


def job_spans(events):
    """Yields (job_id, tid, begin_ts, end_ts) for every job-<id> span."""
    open_jobs = {}
    for e in events:
        if e.get("cat") != "job":
            continue
        tid = e.get("tid", 1)
        if e["ph"] == "B":
            open_jobs[tid] = e
        elif e["ph"] == "E" and tid in open_jobs:
            b = open_jobs.pop(tid)
            name = b.get("name", "")
            jid = name[4:] if name.startswith("job-") else name
            yield jid, tid, b["ts"], e["ts"]


def report_jobs(doc, path):
    thread_names = {}
    for e in doc.get("traceEvents", []):
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            thread_names[e.get("tid")] = e.get("args", {}).get("name", "?")
    events = [e for e in doc.get("traceEvents", []) if e.get("ph") != "M"]
    jobs = sorted(job_spans(events), key=lambda j: j[2])
    if not jobs:
        print(f"{path}: no job spans (pool tracing off, or not a pool trace)")
        return
    print(f"{path}: {len(jobs)} job span(s)")
    print(f"  {'job':>8} {'worker':<12} {'start us':>12} {'wall us':>10}")
    for jid, tid, b, e in jobs:
        worker = thread_names.get(tid, f"tid-{tid}")
        print(f"  {jid:>8} {worker:<12} {b:>12.1f} {e - b:>10.1f}")
    walls = sorted(e - b for _, _, b, e in jobs)
    mid = walls[len(walls) // 2]
    print(f"  wall p50 {mid:.1f} us  max {walls[-1]:.1f} us")


def report(doc, path):
    events = [e for e in doc.get("traceEvents", []) if e.get("ph") != "M"]
    other = doc.get("otherData", {})
    n_tids = len({e.get("tid", 1) for e in events})
    print(f"{path}: {len(events)} events "
          f"({other.get('dropped', '?')} dropped, {n_tids} thread(s))")

    counts = Counter()
    for e in events:
        suffix = {"B": " (begin)", "E": " (end)"}.get(e["ph"], "")
        counts[(e.get("cat", "?"), e["name"] + suffix)] += 1
    print("\n  event counts")
    for (cat, name), n in sorted(counts.items()):
        print(f"    {cat:<14} {name:<24} {n}")

    # Span durations: stack-match B/E per tid (the exporter guarantees
    # per-thread balance; spans never cross engines).
    stack = defaultdict(list)
    totals = defaultdict(float)
    spans = Counter()
    for e in events:
        tid = e.get("tid", 1)
        if e["ph"] == "B":
            stack[tid].append(e)
        elif e["ph"] == "E" and stack[tid]:
            b = stack[tid].pop()
            totals[b["name"]] += e["ts"] - b["ts"]
            spans[b["name"]] += 1
    if spans:
        print("\n  span totals (inclusive wall-clock)")
        for name, n in spans.most_common():
            print(f"    {name:<24} {n:>6} slices  {totals[name]:>10.1f} us")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", help="trace JSON file")
    ap.add_argument("--check", action="store_true",
                    help="validate the schema instead of summarizing")
    ap.add_argument("--max-dropped", type=int, metavar="N",
                    help="with --check, fail when more than N events "
                         "were dropped (default: only warn)")
    ap.add_argument("--jobs", action="store_true",
                    help="per-job span table (EnginePool traces)")
    args = ap.parse_args()
    doc = load(args.file)
    if args.max_dropped is not None and not args.check:
        ap.error("--max-dropped needs --check")
    if args.check:
        check(doc, args.file, args.max_dropped)
    elif args.jobs:
        report_jobs(doc, args.file)
    else:
        report(doc, args.file)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
