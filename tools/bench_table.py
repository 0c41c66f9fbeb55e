#!/usr/bin/env python3
"""Render EXPERIMENTS.md's "Perf trajectory" table from the committed
micro-benchmark baseline, so the table cannot drift from the JSON.

    python3 tools/bench_table.py            # print the generated block
    python3 tools/bench_table.py --write    # rewrite it in EXPERIMENTS.md
    python3 tools/bench_table.py --check    # exit 1 if EXPERIMENTS.md differs

The block sits between the BEGIN/END marker comments in EXPERIMENTS.md.
Its numbers come from bench/baselines/BENCH_micro_components.json (the
real_time of each run), the proposer's 1-over-4-thread scaling from
bench/baselines/BENCH_micro_parallel.json, and the floors from
bench/baselines/tracked.json.

Exit codes: 0 ok, 1 the committed block differs from the rendering (--check),
2 missing markers, files or runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "bench" / "baselines" / "BENCH_micro_components.json"
PARALLEL_BASELINE = (ROOT / "bench" / "baselines" /
                     "BENCH_micro_parallel.json")
TRACKED = ROOT / "bench" / "baselines" / "tracked.json"
DOC = ROOT / "EXPERIMENTS.md"

BEGIN = ("<!-- BEGIN bench_table: generated by tools/bench_table.py from "
         "bench/baselines/BENCH_micro_components.json; do not edit -->")
END = "<!-- END bench_table -->"

# (benchmark, description, scaling); columns are n = 100 and n = 200.
ROWS = [
    ("BM_CholeskyFactorization", "", "O(n³)"),
    ("BM_CholeskyExtend", "one bordered update", "O(n²)"),
    ("BM_GpRefitFull", "fresh GP per fit", "O(n³)"),
    ("BM_GpRefitIncremental", "one BO round: extend + truncate", "O(n²)"),
]
SIZES = (100, 200)
RATIO = ("BM_GpRefitFull/200", "BM_GpRefitIncremental/200")
ML_FIT = "BM_KernelMlFit/40"
# (benchmark prefix, description) of the proposer phases that run on the
# engine's pool; each is timed at 1 and 4 threads in BENCH_micro_parallel.
SCALING = [
    ("BM_KernelMlFit",
     "the cifar config's last BO kernel fit (n = 117, 1 + 4 starts)"),
    ("BM_AcqArgmax", "one HW-IECI acquisition argmax (1,000 candidates)"),
]


def scaling_runs(prefix: str) -> tuple[str, str]:
    """The 1-thread and 4-thread run names of a SCALING benchmark."""
    return (f"{prefix}/threads:1/real_time", f"{prefix}/threads:4/real_time")


class TableError(Exception):
    """Missing file, run or marker."""


def format_ns(ns: float) -> str:
    """A time in ns as µs below 1 ms (one decimal below 10 µs), else ms."""
    us = ns / 1000.0
    if us < 10.0:
        return f"{us:.1f} µs"
    if us < 1000.0:
        return f"{us:.0f} µs"
    return f"{us / 1000.0:.2f} ms"


NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_baseline(path: Path) -> tuple[dict[str, float], dict]:
    """(run name -> real_time in ns, provenance object or {})."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        times = {run["name"]: float(run["real_time"])
                 * NS_PER_UNIT[run.get("time_unit", "ns")]
                 for run in doc.get("runs", [])
                 if "name" in run and "real_time" in run}
    except (OSError, json.JSONDecodeError) as exc:
        raise TableError(f"{path}: {exc}")
    except KeyError as exc:
        raise TableError(f"{path}: unknown time_unit {exc}")
    return times, doc.get("provenance", {})


def describe(provenance: dict) -> str:
    if not provenance:
        return "The baseline records no provenance."
    sha = str(provenance.get("git_sha", "?"))
    commit, dirty, _ = sha.partition("-dirty")
    return (f"Baseline measured with {provenance.get('compiler', '?')}, "
            f"{provenance.get('build_type', '?')} build, "
            f"{provenance.get('nproc', '?')} CPUs, commit "
            f"`{commit[:12]}{dirty}`.")


def ratio_floor(path: Path, ratio: tuple[str, str]) -> float:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise TableError(f"{path}: {exc}")
    for inv in doc.get("invariants", []):
        if (inv.get("numerator"), inv.get("denominator")) == ratio:
            return float(inv["min_ratio"])
    raise TableError(f"{path}: no invariant {ratio[0]} / {ratio[1]}")


def render(times: dict[str, float], provenance: dict, floor: float,
           parallel_times: dict[str, float],
           scaling_floors: list[float]) -> str:
    def lookup(table: dict[str, float], name: str, source: Path) -> float:
        if name not in table:
            raise TableError(f"run {name} missing from {source.name}")
        return table[name]

    def at(name: str) -> float:
        return lookup(times, name, BASELINE)

    lines = [BEGIN,
             "| benchmark | n = 100 | n = 200 | scaling |",
             "|---|---|---|---|"]
    for name, description, scaling in ROWS:
        label = f"`{name}`" + (f" ({description})" if description else "")
        cells = " | ".join(format_ns(at(f"{name}/{n}")) for n in SIZES)
        lines.append(f"| {label} | {cells} | {scaling} |")
    ratio = at(RATIO[0]) / at(RATIO[1])
    lines += [
        "",
        f"Full-vs-incremental GP refit at n = 200 is **≈ {ratio:.1f}×**, and "
        f"`bench/baselines/tracked.json` pins it at ≥ {floor:g}×. One "
        f"maximum-likelihood kernel fit (`{ML_FIT}`: n = 40, 6 inputs, "
        f"one restart) takes {format_ns(at(ML_FIT))}. "
        + describe(provenance),
        "",
        "The proposer phases that run on the engine's pool, at 1 and 4 "
        "threads (`BENCH_micro_parallel.json`; the 1-over-4 floors apply "
        "where nproc ≥ 4):",
        "",
        "| benchmark | 1 thread | 4 threads | speedup | floor |",
        "|---|---|---|---|---|",
    ]
    for (prefix, description), scaling_floor in zip(SCALING, scaling_floors):
        one, four = (lookup(parallel_times, run, PARALLEL_BASELINE)
                     for run in scaling_runs(prefix))
        lines.append(f"| `{prefix}` ({description}) | {format_ns(one)} | "
                     f"{format_ns(four)} | {one / four:.1f}× | "
                     f"≥ {scaling_floor:g}× |")
    lines.append(END)
    return "\n".join(lines)


def committed_block(text: str) -> str:
    start = text.find(BEGIN)
    end = text.find(END)
    if start < 0 or end < start:
        raise TableError(f"{DOC.name}: bench_table markers not found")
    return text[start:end + len(END)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="rewrite the block in EXPERIMENTS.md")
    mode.add_argument("--check", action="store_true",
                      help="exit 1 if EXPERIMENTS.md differs from the JSON")
    args = parser.parse_args(argv)
    try:
        times, provenance = load_baseline(BASELINE)
        parallel_times, _ = load_baseline(PARALLEL_BASELINE)
        block = render(times, provenance, ratio_floor(TRACKED, RATIO),
                       parallel_times,
                       [ratio_floor(TRACKED, scaling_runs(prefix))
                        for prefix, _ in SCALING])
        if not (args.write or args.check):
            print(block)
            return 0
        text = DOC.read_text(encoding="utf-8")
        current = committed_block(text)
    except (OSError, TableError) as exc:
        print(f"bench_table: {exc}", file=sys.stderr)
        return 2
    if args.write:
        DOC.write_text(text.replace(current, block), encoding="utf-8")
        return 0
    if current != block:
        print(f"bench_table: {DOC.name}'s perf table differs from "
              f"{BASELINE.relative_to(ROOT)}; run tools/bench_table.py "
              "--write", file=sys.stderr)
        return 1
    print("bench_table: EXPERIMENTS.md matches the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
