#!/usr/bin/env python3
"""Compares two saved benchmark results (.bench_build/perfbench/results/).

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the two were measured under different provenance:
another machine shape, compiler, build type, contract setting, or journal
filesystem makes them different programs or different hardware, so their
difference says nothing about the change. The git sha and source digest
are expected to differ and are only printed. Otherwise prints each
metric's base and new value with the relative change, marks end-to-end
metrics that got worse by more than their BENCHMARK.json bound, and exits
1 if any did, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MUST_MATCH = ("nproc", "cpu_model", "compiler", "build_type", "hp_contracts",
              "journal_fs")
ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8"))
                 for p in argv[1:])
    for key in ("workload", "trace", "seconds"):
        if base[key] != new[key]:
            print(f"refused: {key} differs ({base[key]} vs {new[key]})")
            return 2
    for key in MUST_MATCH:
        if base["provenance"][key] != new["provenance"][key]:
            print(f"refused: provenance {key} differs "
                  f"({base['provenance'][key]} vs {new['provenance'][key]})")
            return 2
    for key in ("git_sha", "source_digest"):
        print(f"{key}: {base['provenance'][key]} -> {new['provenance'][key]}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    for name, b in base["metrics"].items():
        bv, nv = b["value"], new["metrics"][name]["value"]
        change = (nv - bv) / bv if bv else 0.0
        verdict = ""
        rule = rules.get(name)
        if rule is not None:
            worse = change if rule["better"] == "lower" else -change
            if worse > rule["bound"]:
                verdict, regressed = "  WORSE than bound", True
        print(f"{name:<26} {bv:>14.6g} {nv:>14.6g} {change:>+9.2%} "
              f"{b['unit']}{verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
