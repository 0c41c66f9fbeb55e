"""Counts that a later change may claim as exact must repeat exactly.

Runs the traced cifar_ieci_b8 benchmark twice (building it on first use)
and checks that gp.lml_evals.n120, proposer.calls and objective.calls are
identical across the two runs. Takes about half a minute once built.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "run.py"
EXACT = ("gp.lml_evals.n120", "proposer.calls", "objective.calls")


def traced_metrics(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "1",
         "--trace", "1"],
        capture_output=True, text=True, check=False, timeout=900)
    if done.returncode != 0:
        raise AssertionError(done.stdout[-2000:] + done.stderr[-2000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], result
    return {k: v["value"] for k, v in result["metrics"].items()}


class ExactCountsTest(unittest.TestCase):
    def test_counts_repeat_across_runs(self):
        first = traced_metrics("cifar_ieci_b8")
        second = traced_metrics("cifar_ieci_b8")
        for name in EXACT:
            self.assertGreater(first[name], 0, name)
            self.assertEqual(first[name], second[name], name)


if __name__ == "__main__":
    unittest.main()
