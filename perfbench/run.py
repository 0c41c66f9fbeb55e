#!/usr/bin/env python3
"""End-to-end search benchmark: one command, two workloads.

    python3 perfbench/run.py --workload cifar_ieci_b8 [--seed N]
                             [--seconds S] [--trace 0|1]

Builds perfbench/CMakeLists.txt (the library sources, the fleet worker and
perfbench_e2e) into .bench_build/perfbench on first use, runs the workload
for --seconds of measured repetitions (and at least one pass over its
suite of search seeds), checks the outputs, and prints
every metric by name with its unit. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, holding
the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1. A run whose checks fail prints "correct": false with no
metrics and exits 1. The full result, with provenance, is saved under
.bench_build/perfbench/results/ for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import analysis  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# Workload name -> (default seed, the seed the workload was designed on;
# seconds the warm-up search and one pass over its suite of search seeds
# take on a 4-core Xeon VM).
WORKLOADS = {"cifar_ieci_b8": (1, 43.0), "tiny_mnist_nn": (17, 40.0)}
# A run must end within 180 s.
MAX_RUN_S = 170.0
# The traced run's layer spans must cover at least 95% of its wall time.
MAX_UNATTRIBUTED = 0.05


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build() -> None:
    """Configures (once) and builds the benchmark; build output goes to a
    log file so standard output stays the benchmark's own."""
    if not (ROOT / "src" / "core" / "evaluation_engine.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found on PATH")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log, "w", encoding="utf-8") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                tail = log.read_text(encoding="utf-8").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log})")


def source_digest() -> str:
    """sha256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "tools", "perfbench")
                   for p in (ROOT / d).rglob("*")
                   if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt",
                                                   ".py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "none"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(result: dict, out_dir: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": result["build"]["compiler"],
        "build_type": result["build"]["build_type"],
        "hp_contracts": result["build"]["hp_contracts"],
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "journal_fs": filesystem_of(out_dir),
    }


def run_timeout(workload: str, seconds: float) -> float:
    """A run measures for max(--seconds, one suite pass), plus set-up and
    the traced run's probes. Allow three times that: a loaded machine, or
    a seed whose search runs long (cifar_ieci_b8 seed 6000321 queries
    23,868 samples and takes 31 s, six times the usual)."""
    return min(MAX_RUN_S, 3.0 * max(seconds, WORKLOADS[workload][1]) + 30.0)


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding path, from the longest matching
    mount point in /proc/self/mounts."""
    best, fs = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                point = fields[1].replace("\\040", " ")
                inside = target == point or target.startswith(
                    point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, fs = point, fields[2]
    except OSError:
        pass
    return fs


def report_failure(errors, attempted: int, failed: int) -> int:
    for e in errors:
        print(f"FAIL: {e}")
    print(json.dumps({"correct": False, "attempted": max(1, attempted),
                      "failed": failed, "metrics": {}}))
    return 1


def load_bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = WORKLOADS[args.workload][0] if args.seed is None else args.seed
    if seed < 0:
        fail("--seed must be a non-negative integer")

    spec = load_bench_spec()
    build()
    out_dir = BUILD / "out" / f"{args.workload}.seed{seed}.trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in ("reps.json", "spans.json"):
        (out_dir / stale).unlink(missing_ok=True)

    cmd = [str(BUILD / "perfbench_e2e"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir),
           "--worker-bin", str(BUILD / "hpo-worker")]
    timeout = run_timeout(args.workload, args.seconds)
    try:
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout:g} s")
    reps_path = out_dir / "reps.json"
    if not reps_path.is_file():
        fail(f"perfbench_e2e exited {done.returncode} without results")
    with open(reps_path, encoding="utf-8") as fh:
        result = json.load(fh)

    attempted, failed = analysis.failure_counts(result)
    errors = list(result["errors"])
    if done.returncode != 0 and not errors:
        errors.append(f"perfbench_e2e exited {done.returncode}")
    prov = provenance(result, out_dir)
    print(f"perfbench {args.workload} seed {seed} trace {args.trace}: "
          + " ".join(f"{k}={v}" for k, v in prov.items()))
    if errors:
        return report_failure(errors, attempted, failed)

    if args.trace == 0:
        wanted = spec["end_to_end"]
        summaries = analysis.end_to_end(result)
        values = {name: s["value"] for name, s in summaries.items()}
        print(f"{'metric':<26} {'unit':<6} {'value':>12} {'rep median':>12} "
              f"{'tail':>14} n")
        units = {m["name"]: m["unit"] for m in wanted}
        units.update(best_error_pct="%", sim_hours="h")
        for name, s in summaries.items():
            tail = (f"p{s['tail_p']:g}={s['tail']:.6g}"
                    if s["tail_p"] is not None else "-")
            print(f"{name:<26} {units[name]:<6} {s['value']:>12.6g} "
                  f"{s['median']:>12.6g} {tail:>14} {s['n']}")
        print(f"{'failed_share':<26} {'ratio':<6} "
              f"{failed / attempted if attempted else 0.0:>12.6g}")
    else:
        wanted = spec["per_layer"]
        with open(out_dir / "spans.json", encoding="utf-8") as fh:
            spans = analysis.spans_from_chrome(json.load(fh))
        values = analysis.per_layer(result, spans)
        unattributed = values["trace.unattributed_share"]
        if unattributed > MAX_UNATTRIBUTED:
            return report_failure(
                [f"layer spans leave {unattributed:.2%} of the traced wall "
                 f"unattributed (at most {MAX_UNATTRIBUTED:.0%})"],
                attempted, failed)
        for m in wanted:
            print(f"{m['name']:<26} {m['unit']:<6} {values[m['name']]:>12.6g}")
        print(f"spans: {out_dir / 'spans.json'}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    saved = (results /
             f"{args.workload}.seed{seed}.trace{args.trace}.{stamp}.json")
    with open(saved, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": seed,
                   "trace": args.trace, "seconds": args.seconds,
                   "provenance": prov, "metrics": metrics,
                   "figures": values, "reps": result["reps"]}, fh, indent=1)
    print(f"result: {saved}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
