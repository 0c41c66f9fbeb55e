#!/usr/bin/env python3
"""Compare BENCH_*.json micro-benchmark snapshots against committed baselines.

The perf-trajectory gate for the BO hot path (DESIGN.md par.13): CI runs the
micro benches, then this script compares the fresh BENCH_*.json files in
--current-dir against the committed snapshots in --baseline-dir.

Checks, in order:

1. Per-run comparison: for every run name present in both files, the current
   real_time may not exceed the baseline by more than --threshold (default
   15%). Improvements are reported but never fail. Because absolute times are
   machine-dependent, --normalize <run-name> divides every time by that run's
   time *within the same file* before comparing, turning the check into a
   relative-shape comparison that transfers across machines.
2. Provenance: every BENCH file records where it was measured (nproc,
   compiler, build_type, contracts, git_sha; bench/common/report.cpp). A
   baseline whose nproc, compiler, build type or contracts setting differs
   from the current run's is compared with a WARNING naming the difference.
   Thread-scaling files (BENCH_micro_parallel.json) are refused outright
   (exit 2) unless both record the same core count: their timings measure
   the machine's parallelism, not the code.
3. Tracked invariants: <baseline-dir>/tracked.json pins machine-independent
   ratios, evaluated on the *current* files only. Each invariant carries
   min_ratio and/or max_ratio bounds — a floor pins a speedup that must
   persist (e.g. full GP refit over incremental refit >= 5x at n=200), a
   ceiling caps an overhead (e.g. fleet round over in-process round). The
   ratio is either numerator/denominator, two runs' real_time, or a
   ratio one benchmark measured itself and reported as a user counter
   ("run" + "counter": e.g. a paired measurement that interleaves both
   variants, so machine drift between two runs cannot move it). A
   thread-scaling ratio (e.g. 1 thread over 4) names the core count it
   needs as "min_nproc"; it is skipped, with a note, when the current
   file records fewer cores (or none).

Exit codes:
  0  no regression (missing baseline files only produce warnings)
  1  regression beyond threshold, or a tracked invariant violated
  2  malformed JSON, missing --normalize/invariant run names, a
     thread-scaling comparison across core counts, or usage error
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2


class CompareError(Exception):
    """Malformed input: missing keys, bad JSON, unusable values."""


# Files whose timings scale with the core count: comparing them across
# machines with different core counts measures the machines.
THREAD_SCALING_FILES = {"BENCH_micro_parallel.json"}
# Provenance fields whose difference makes absolute times incomparable.
PROVENANCE_KEYS = ("nproc", "compiler", "build_type", "contracts")


def load_doc(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CompareError(f"{path}: unreadable or malformed JSON: {exc}")
    if not isinstance(doc, dict):
        raise CompareError(f"{path}: top level is not an object")
    return doc


def load_provenance(path: Path) -> dict:
    """The file's "provenance" object, or {} for files that predate it."""
    provenance = load_doc(path).get("provenance", {})
    return provenance if isinstance(provenance, dict) else {}


def check_provenance(baseline: dict, current: dict, label: str) -> None:
    """Warns about provenance differences; raises CompareError for a
    thread-scaling file measured on different (or unknown) core counts."""
    if label in THREAD_SCALING_FILES:
        base_cpus, cur_cpus = baseline.get("nproc"), current.get("nproc")
        if base_cpus is None or cur_cpus is None or base_cpus != cur_cpus:
            raise CompareError(
                f"{label}: thread-scaling runs measured on nproc="
                f"{base_cpus if base_cpus is not None else 'unknown'} "
                f"(baseline) vs "
                f"{cur_cpus if cur_cpus is not None else 'unknown'} "
                "(current) are not comparable; re-capture the baseline on "
                "this machine")
    if not baseline:
        print(f"WARNING    {label}: baseline records no provenance")
        return
    for key in PROVENANCE_KEYS:
        if baseline.get(key) != current.get(key):
            print(f"WARNING    {label}: provenance differs: {key} "
                  f"{baseline.get(key)!r} (baseline) vs "
                  f"{current.get(key)!r} (current)")
    if baseline.get("git_sha") != current.get("git_sha"):
        print(f"INFO       {label}: baseline from {baseline.get('git_sha')}, "
              f"current from {current.get('git_sha')}")


def load_runs(path: Path) -> dict[str, float]:
    """Maps run name -> real_time for one BENCH_*.json file."""
    doc = load_doc(path)
    runs = doc.get("runs")
    if not isinstance(runs, list):
        raise CompareError(f"{path}: missing 'runs' array")
    out: dict[str, float] = {}
    for run in runs:
        if not isinstance(run, dict) or "name" not in run:
            raise CompareError(f"{path}: run entry without a name")
        if "error" in run:
            continue  # benchmark-level failures are not timing data
        time = run.get("real_time")
        if not isinstance(time, (int, float)) or time <= 0:
            raise CompareError(
                f"{path}: run '{run['name']}' has no positive real_time")
        out[str(run["name"])] = float(time)
    if not out:
        raise CompareError(f"{path}: no usable runs")
    return out


def load_counter(path: Path, run_name: str, counter: str) -> float:
    """One run's positive user counter from a BENCH_*.json file."""
    for run in load_doc(path).get("runs") or []:
        if isinstance(run, dict) and run.get("name") == run_name:
            value = (run.get("counters") or {}).get(counter)
            if not isinstance(value, (int, float)) or value <= 0:
                raise CompareError(f"{path}: run '{run_name}' has no "
                                   f"positive counter '{counter}'")
            return float(value)
    raise CompareError(f"{path}: invariant run '{run_name}' not present")


def normalize(runs: dict[str, float], reference: str,
              path: Path) -> dict[str, float]:
    if reference not in runs:
        raise CompareError(
            f"{path}: --normalize run '{reference}' not present")
    ref = runs[reference]
    return {name: time / ref for name, time in runs.items()}


def compare_file(baseline: dict[str, float], current: dict[str, float],
                 threshold: float, label: str) -> list[str]:
    """Returns regression messages; prints improvements and warnings."""
    regressions: list[str] = []
    for name in sorted(current):
        if name not in baseline:
            print(f"NEW        {label}:{name} (no baseline; not compared)")
            continue
        base, cur = baseline[name], current[name]
        ratio = cur / base
        if ratio > 1.0 + threshold:
            regressions.append(
                f"{label}:{name} regressed {ratio:.2f}x "
                f"({base:.1f} -> {cur:.1f})")
            print(f"REGRESSION {label}:{name} {ratio:.2f}x "
                  f"({base:.1f} -> {cur:.1f})")
        elif ratio < 1.0 - threshold:
            print(f"IMPROVED   {label}:{name} {1.0 / ratio:.2f}x faster "
                  f"({base:.1f} -> {cur:.1f})")
        else:
            print(f"OK         {label}:{name} {ratio:.2f}x")
    for name in sorted(set(baseline) - set(current)):
        print(f"WARNING    {label}:{name} present in baseline but not in "
              "current run")
    return regressions


def format_bound(bound) -> str:
    """One decimal (5.0), or every digit a finer bound needs (0.98)."""
    value = float(bound)
    return f"{value:.1f}" if round(value, 1) == value else f"{value:g}"


def check_invariants(tracked_path: Path, current_dir: Path) -> list[str]:
    """Evaluates tracked.json ratio invariants on the current snapshots."""
    if not tracked_path.exists():
        return []
    try:
        doc = json.loads(tracked_path.read_text())
        invariants = doc["invariants"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise CompareError(f"{tracked_path}: malformed: {exc}")
    violations: list[str] = []
    for inv in invariants:
        try:
            file_name = inv["file"]
            if "counter" in inv:
                label = f"{inv['run']}[{inv['counter']}]"
            else:
                label = f"{inv['numerator']}/{inv['denominator']}"
        except (TypeError, KeyError) as exc:
            raise CompareError(f"{tracked_path}: invariant missing key: {exc}")
        min_ratio = inv.get("min_ratio")
        max_ratio = inv.get("max_ratio")
        if min_ratio is None and max_ratio is None:
            raise CompareError(
                f"{tracked_path}: invariant {label} needs "
                "min_ratio and/or max_ratio")
        current_file = current_dir / file_name
        if not current_file.exists():
            print(f"WARNING    invariant {label}: "
                  f"{file_name} not in current dir, skipped")
            continue
        min_nproc = inv.get("min_nproc")
        if min_nproc is not None:
            nproc = load_provenance(current_file).get("nproc")
            if not isinstance(nproc, int) or nproc < int(min_nproc):
                print(f"SKIPPED    invariant {label}: needs nproc >= "
                      f"{min_nproc}, {file_name} was measured on nproc="
                      f"{nproc if nproc is not None else 'unknown'}")
                continue
        if "counter" in inv:
            ratio = load_counter(current_file, inv["run"], inv["counter"])
        else:
            runs = load_runs(current_file)
            for required in (inv["numerator"], inv["denominator"]):
                if required not in runs:
                    raise CompareError(f"{current_file}: invariant run "
                                       f"'{required}' not present")
            ratio = runs[inv["numerator"]] / runs[inv["denominator"]]
        bounds = []
        violated = False
        if min_ratio is not None:
            bounds.append(f">= {format_bound(min_ratio)}x")
            violated = violated or ratio < float(min_ratio)
        if max_ratio is not None:
            bounds.append(f"<= {format_bound(max_ratio)}x")
            violated = violated or ratio > float(max_ratio)
        status = "VIOLATION " if violated else "OK        "
        print(f"{status} invariant {label} = "
              f"{ratio:.3f}x (required {' and '.join(bounds)})")
        if violated:
            violations.append(
                f"{file_name}: {label} = {ratio:.3f}x "
                f"outside [{' , '.join(bounds)}]")
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", type=Path, required=True,
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--current-dir", type=Path, required=True,
                        help="directory of freshly produced BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed relative slowdown (default 0.15)")
    parser.add_argument("--normalize", default=None, metavar="RUN",
                        help="divide all times by this run's time within the "
                             "same file before comparing (cross-machine mode)")
    args = parser.parse_args(argv)
    if args.threshold < 0:
        print("error: --threshold must be >= 0", file=sys.stderr)
        return EXIT_ERROR

    try:
        current_files = sorted(args.current_dir.glob("BENCH_*.json"))
        if not current_files:
            print(f"error: no BENCH_*.json in {args.current_dir}",
                  file=sys.stderr)
            return EXIT_ERROR
        failures: list[str] = []
        for current_file in current_files:
            baseline_file = args.baseline_dir / current_file.name
            if not baseline_file.exists():
                print(f"WARNING    no baseline for {current_file.name}; "
                      "commit one from a Release run to arm the gate")
                continue
            check_provenance(load_provenance(baseline_file),
                             load_provenance(current_file), current_file.name)
            baseline = load_runs(baseline_file)
            current = load_runs(current_file)
            if args.normalize is not None:
                baseline = normalize(baseline, args.normalize, baseline_file)
                current = normalize(current, args.normalize, current_file)
            failures += compare_file(baseline, current, args.threshold,
                                     current_file.name)
        failures += check_invariants(args.baseline_dir / "tracked.json",
                                     args.current_dir)
    except CompareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if failures:
        print(f"\n{len(failures)} perf check(s) failed:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return EXIT_REGRESSION
    print("\nAll perf checks passed.")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
