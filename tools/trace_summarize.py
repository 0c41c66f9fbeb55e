#!/usr/bin/env python3
"""Summarize a Chrome trace-event JSON file produced by --trace-out.

Reads the span tree recorded by the hyperpower tracer (src/obs/trace.hpp)
and answers "where did the run's wall time actually go":

  --critical-path   walk the root span's timeline, attributing every moment
                    to the deepest span active at that moment; the reported
                    segments partition the root duration exactly, so their
                    sum always lands within a rounding error of wall time
  --phases          per-phase aggregation (count, total, self time), the
                    CLI end-of-run table's definition applied to the
                    events in the file; the CLI's table is exact, this
                    one is only as complete as the trace ring that wrote
                    the file (see its "dropped" count)
  --timeline        chronological listing of retry/failure/backoff/fault
                    instants with their parent span
  --slowest K       top-K slowest evaluation spans (default phase
                    optimizer.sample.evaluate)

Exit codes (mirroring tools/bench_compare.py):
  0  summary produced (and --check-coverage satisfied, if given)
  1  --check-coverage given and the critical path covers less of the root
     span than required
  2  unreadable or malformed trace file
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

INSTANT_EVENTS = ("eval.retry", "eval.failed", "eval.backoff",
                  "fault.injected")


class TraceError(Exception):
    """Raised for unreadable or structurally invalid trace files."""


class Span:
    __slots__ = ("name", "sid", "parent", "start", "dur", "tid", "args",
                 "children")

    def __init__(self, name, sid, parent, start, dur, tid, args):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.start = start
        self.dur = dur
        self.tid = tid
        self.args = args
        self.children = []

    @property
    def end(self):
        return self.start + self.dur


def parse_events(events, source="trace"):
    """Returns (spans, instants) from a traceEvents list."""
    spans, instants = [], []
    for event in events:
        if not isinstance(event, dict) or "ph" not in event:
            raise TraceError(f"{source}: malformed event {event!r}")
        args = event.get("args", {})
        if event["ph"] == "X":
            spans.append(
                Span(event.get("name", "?"), args.get("id"),
                     args.get("parent"), float(event["ts"]),
                     float(event.get("dur", 0.0)), event.get("tid", 0),
                     args))
        elif event["ph"] == "i":
            instants.append(event)
    return spans, instants


def load_trace(path):
    """Returns (spans, instants) from a Chrome trace-event JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise TraceError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise TraceError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise TraceError(f"{path}: missing traceEvents array")
    return parse_events(doc["traceEvents"], path)


def build_forest(spans):
    """Links spans into trees; returns the list of roots.

    Sibling spans can share an id (same name, parent, and key — e.g.
    repeated gp.cholesky calls), so children are linked per-occurrence by
    parent id, not through a unique-id map.
    """
    ids = {s.sid for s in spans}
    roots = []
    by_parent = defaultdict(list)
    for s in spans:
        if s.parent in ids and int(s.parent, 16) != 0:
            by_parent[s.parent].append(s)
        else:
            roots.append(s)
    # Resolve shared ids by containment: each child attaches to the
    # tightest occurrence of its parent id whose [start, end) window
    # contains it, falling back to the first occurrence.
    occurrences = defaultdict(list)
    for s in spans:
        occurrences[s.sid].append(s)
    for pid, kids in by_parent.items():
        candidates = occurrences[pid]
        for child in kids:
            home = None
            for parent in candidates:
                if parent.start <= child.start and child.end <= parent.end + 1e-9:
                    if home is None or parent.dur < home.dur:
                        home = parent
            (home or candidates[0]).children.append(child)
    return roots


def pick_root(roots):
    if not roots:
        raise TraceError("trace holds no spans")
    return max(roots, key=lambda s: s.dur)


def critical_path(root):
    """Partitions the root span's timeline into (name, duration) segments.

    Walks each span's children in start order. Time not covered by any
    child is the span's own (self) time; a child starting after the cursor
    is recursed into; a child overlapping already-attributed time (a
    parallel sibling) contributes only its uncovered tail, without
    recursion. Children are clamped to their parent's window (clock skew
    can make a child overhang its parent by a few microseconds), so the
    segments partition [root.start, root.end) exactly and their sum equals
    the root duration by construction.
    """
    segments = []

    def emit(name, dur):
        if dur > 0:
            segments.append((name, dur))

    def walk(span, limit):
        end = min(span.end, limit)
        cursor = span.start
        for child in sorted(span.children, key=lambda s: s.start):
            child_end = min(child.end, end)
            if child_end <= cursor:
                continue  # fully inside already-attributed time
            if child.start >= cursor:
                emit(span.name, child.start - cursor)
                walk(child, end)
                cursor = max(cursor, child_end)
            else:
                # Parallel overlap: only the uncovered tail advances the
                # timeline; attribute it to the child wholesale.
                emit(child.name, child_end - cursor)
                cursor = child_end
        emit(span.name, end - cursor)

    walk(root, root.end)
    return segments


def phase_stats(spans):
    """Per-phase (count, total, self) like obs::Tracer::phase_totals."""
    child_sum = defaultdict(float)
    for s in spans:
        for c in s.children:
            child_sum[id(s)] += c.dur
    stats = {}
    for s in spans:
        entry = stats.setdefault(s.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s.dur
        entry[2] += max(0.0, s.dur - child_sum.get(id(s), 0.0))
    return sorted(stats.items(), key=lambda kv: (-kv[1][2], kv[0]))


def print_critical_path(root, segments, check_coverage):
    merged = defaultdict(float)
    for name, dur in segments:
        merged[name] += dur
    total = sum(merged.values())
    coverage = 100.0 * total / root.dur if root.dur > 0 else 100.0
    print(f"critical path of {root.name} ({root.dur / 1e6:.6f} s):")
    for name, dur in sorted(merged.items(), key=lambda kv: -kv[1]):
        share = 100.0 * dur / root.dur if root.dur > 0 else 0.0
        print(f"  {name:<32} {dur / 1e3:12.3f} ms {share:6.1f}%")
    print(f"  {'[coverage]':<32} {total / 1e3:12.3f} ms {coverage:6.1f}%")
    if check_coverage is not None and coverage < check_coverage:
        print(
            f"FAIL: critical path covers {coverage:.2f}% of {root.name}, "
            f"required >= {check_coverage:.2f}%",
            file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def print_phases(spans):
    print(f"{'phase':<32} {'count':>8} {'self [ms]':>12} {'total [ms]':>12}")
    for name, (count, total, self_time) in phase_stats(spans):
        print(f"{name:<32} {count:>8} {self_time / 1e3:>12.3f} "
              f"{total / 1e3:>12.3f}")


def print_timeline(instants):
    rows = [e for e in instants if e.get("name") in INSTANT_EVENTS]
    rows.sort(key=lambda e: float(e["ts"]))
    if not rows:
        print("no retry/failure/backoff/fault instants recorded")
        return
    print(f"{'t [ms]':>12}  {'event':<16} details")
    for e in rows:
        args = {
            k: v
            for k, v in e.get("args", {}).items()
            if k not in ("id", "parent")
        }
        details = " ".join(f"{k}={v}" for k, v in args.items())
        print(f"{float(e['ts']) / 1e3:>12.3f}  {e['name']:<16} {details}")


def print_slowest(spans, top_k, phase):
    rows = sorted((s for s in spans if s.name == phase),
                  key=lambda s: -s.dur)[:top_k]
    if not rows:
        print(f"no '{phase}' spans recorded")
        return
    print(f"top {len(rows)} slowest {phase} spans:")
    for s in rows:
        sample = s.args.get("sample", "?")
        print(f"  sample={sample:<6} {s.dur / 1e3:12.3f} ms")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", help="Chrome trace-event JSON (--trace-out)")
    parser.add_argument("--critical-path", action="store_true",
                        help="attribute the root span's timeline per phase")
    parser.add_argument("--check-coverage", type=float, metavar="PCT",
                        help="with --critical-path: fail (exit 1) when the "
                        "path covers less than PCT%% of the root span")
    parser.add_argument("--phases", action="store_true",
                        help="per-phase count/self/total table")
    parser.add_argument("--timeline", action="store_true",
                        help="chronological retry/failure/fault instants")
    parser.add_argument("--slowest", type=int, metavar="K",
                        help="top-K slowest evaluation spans")
    parser.add_argument("--slowest-phase", default="optimizer.sample.evaluate",
                        help="span name ranked by --slowest "
                        "(default %(default)s)")
    args = parser.parse_args(argv)

    if not (args.critical_path or args.phases or args.timeline
            or args.slowest):
        args.critical_path = args.phases = True

    try:
        spans, instants = load_trace(args.trace)
        roots = build_forest(spans)
        status = EXIT_OK
        if args.critical_path:
            root = pick_root(roots)
            status = print_critical_path(root, critical_path(root),
                                         args.check_coverage)
        if args.phases:
            if args.critical_path:
                print()
            print_phases(spans)
        if args.timeline:
            if args.critical_path or args.phases:
                print()
            print_timeline(instants)
        if args.slowest:
            if args.critical_path or args.phases or args.timeline:
                print()
            print_slowest(spans, args.slowest, args.slowest_phase)
        return status
    except TraceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
