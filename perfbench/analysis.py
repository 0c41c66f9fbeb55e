"""Turns what perfbench_e2e measured into the benchmark's metrics.

Pure functions over plain data, so the tests in perfbench/tests can check
them on hand-built inputs:

- the percentile rule: a timing is reported as its median plus the
  highest percentile that still has at least ten samples beyond it;
- span self time: a span's duration minus the part of its interval that
  its children cover (overlapping children count once);
- the end-to-end metrics (from the untraced repetitions) and the
  per-layer metrics (from the traced repetitions' spans and probes).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# Percentiles considered for the tail, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(n: int, p: float) -> int:
    """1-based rank of the p-th percentile of n sorted samples (p to a
    tenth of a percent, in integer arithmetic so 99.9 of 10000 is 9990)."""
    tenths = round(p * 10)
    return max(1, -(-tenths * n // 1000))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with >= MIN_BEYOND samples above it."""
    best = None
    for p in PERCENTILE_LADDER:
        if n - nearest_rank(n, p) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), p) - 1]


def summarize(values) -> dict:
    """Median, tail percentile (None when fewer than 20 samples) and n."""
    values = list(values)
    if not values:
        return {"median": 0.0, "tail_p": None, "tail": None, "n": 0}
    p = tail_percentile(len(values))
    return {
        "median": statistics.median(values),
        "tail_p": p,
        "tail": percentile(values, p) if p is not None else None,
        "n": len(values),
    }


def tail_or_max(values) -> float:
    """The tail percentile's value, or the maximum below 20 samples."""
    s = summarize(values)
    if s["tail"] is not None:
        return s["tail"]
    return max(values) if values else 0.0


# --- spans --------------------------------------------------------------

class Span:
    __slots__ = ("name", "sid", "parent", "start", "end")

    def __init__(self, name, sid, parent, start, end):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.start = start
        self.end = end

    @property
    def dur(self):
        return self.end - self.start


def spans_from_chrome(doc) -> list[Span]:
    """Spans of a Chrome trace-event document written by perfbench_e2e."""
    spans = []
    for e in doc["traceEvents"]:
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        start = float(e["ts"])
        spans.append(Span(e["name"], int(args["id"], 16),
                          int(args["parent"], 16), start,
                          start + float(e["dur"])))
    return spans


def covered(intervals, lo, hi) -> float:
    """Length of [lo, hi) covered by the union of the intervals."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict:
    """Self time of every span, keyed by span id."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.sid: s.dur - covered(children[s.sid], s.start, s.end)
            for s in spans}


def descendants_by_search(spans) -> dict:
    """Maps each root span ("search") id to every span beneath it."""
    parent_of = {s.sid: s.parent for s in spans}

    def root(sid):
        while parent_of.get(sid, 0) != 0:
            sid = parent_of[sid]
        return sid

    groups = defaultdict(list)
    for s in spans:
        groups[root(s.sid)].append(s)
    return groups


# --- metrics ------------------------------------------------------------

# Per-repetition samples of the timed end-to-end metrics.
TIMED = {
    "wall_s": lambda r: r["wall_s"],
    "setup_s": lambda r: r["setup_s"],
    "evals_per_s": lambda r: r["evaluations"] / r["wall_s"],
    "cpu_s": lambda r: r["cpu_s"],
}


def by_seed(reps, fn) -> list[list]:
    groups = defaultdict(list)
    for r in reps:
        groups[r["seed"]].append(fn(r))
    return list(groups.values())


def end_to_end(result) -> dict:
    """End-to-end metrics from the untraced repetitions after the warm-up.

    Returns name -> summary, where "value" is the reported number. A run
    cycles through several search seeds whose searches differ in cost, so
    a timing's value is the median over seeds of each seed's median; the
    summary's median, tail and n describe every repetition. The quality
    figures (best error, simulated hours) are fixed per seed and are
    averaged over the seeds.
    """
    reps = [r for r in result["reps"] if not r["traced"] and not r["warmup"]]
    out = {}
    for name, fn in TIMED.items():
        out[name] = summarize(fn(r) for r in reps)
        out[name]["value"] = statistics.median(
            statistics.median(v) for v in by_seed(reps, fn))
    out["peak_rss_mb"] = summarize([result["peak_rss_mb"]])
    out["peak_rss_mb"]["value"] = result["peak_rss_mb"]
    for name, fn in (("best_error_pct", lambda r: 100.0 * r["best_error"]),
                     ("sim_hours", lambda r: r["sim_hours"])):
        out[name] = summarize(fn(r) for r in reps)
        out[name]["value"] = statistics.fmean(v[0] for v in by_seed(reps, fn))
    return out


def failure_counts(result) -> tuple[int, int]:
    """(attempted, failed): evaluations and failed evaluations, over every
    repetition."""
    reps = result["reps"]
    attempted = sum(r["evaluations"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return attempted, failed


def per_layer(result, spans) -> dict:
    """Per-layer metrics of a traced run: name -> value."""
    traced = [r for r in result["reps"] if r["traced"]]
    untraced = [r for r in result["reps"]
                if not r["traced"] and not r["warmup"]]
    own = self_times(spans)
    by_name = defaultdict(list)
    searches = []
    for sid, group in descendants_by_search(spans).items():
        per = defaultdict(list)
        for s in group:
            per[s.name].append(s)
            by_name[s.name].append(s.dur)
        root = next(s for s in group if s.sid == sid)
        searches.append((root, per))

    def per_search(fn):
        values = [fn(root, per) for root, per in searches]
        return statistics.median(values) if values else 0.0

    def total(name, scale=1e-6):
        return lambda _root, per: scale * sum(s.dur for s in per[name])

    def count(name):
        return lambda _root, per: len(per[name])

    threads = result["threads"]

    def busy_share(_root, per):
        execute = sum(s.dur for s in per["engine.execute"])
        busy = sum(s.dur for s in per["objective.evaluate"])
        return busy / (threads * execute) if execute > 0 else 0.0

    def tell_self(_root, per):
        return 1e-6 * sum(own[s.sid] for s in per["study.tell"])

    gp = {p["n"]: p for p in result["gp_probes"]}
    ms = [d / 1e3 for d in by_name["proposer.ask"]]
    obj_us = by_name["objective.evaluate"]
    fleet = result["fleet_probe"] or {"round_ms": []}
    rounds_ms = fleet["round_ms"]
    journal = result["journal_append_us"]
    root_total = sum(root.dur for root, _ in searches)
    root_self = sum(own[root.sid] for root, _ in searches)
    wall_traced = [r["wall_s"] for r in traced]
    wall_untraced = [r["wall_s"] for r in untraced]
    return {
        "proposer.propose_s": per_search(total("proposer.propose")),
        "proposer.observe_s": per_search(total("proposer.observe")),
        "proposer.calls": per_search(count("proposer.propose")),
        "proposer.ask_p50_ms": summarize(ms)["median"],
        "proposer.ask_tail_ms": tail_or_max(ms),
        "gp.fit_kernel_ms.n40":
            statistics.median(gp[40]["fit_ms"]) if 40 in gp else 0.0,
        "gp.fit_kernel_ms.n120":
            statistics.median(gp[120]["fit_ms"]) if 120 in gp else 0.0,
        "gp.lml_evals.n120": gp[120]["lml_evals"] if 120 in gp else 0,
        "objective.calls": per_search(count("objective.evaluate")),
        "objective.busy_s": per_search(total("objective.evaluate")),
        "objective.p50_us": summarize(obj_us)["median"],
        "objective.tail_us": tail_or_max(obj_us),
        "engine.execute_s": per_search(total("engine.execute")),
        "parallel.busy_share": per_search(busy_share),
        "dist.round_p50_ms": summarize(rounds_ms)["median"],
        "dist.round_tail_ms": tail_or_max(rounds_ms),
        "study.tell_s": per_search(tell_self),
        "journal.append_p50_us": summarize(journal)["median"],
        "journal.append_tail_us": tail_or_max(journal),
        "trace.unattributed_share":
            root_self / root_total if root_total > 0 else 0.0,
        "trace.overhead_share":
            statistics.median(wall_traced) / statistics.median(wall_untraced)
            - 1.0 if wall_traced and wall_untraced else 0.0,
    }
