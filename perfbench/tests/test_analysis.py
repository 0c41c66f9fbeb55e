"""Unit tests of perfbench/analysis.py on hand-built inputs.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import analysis  # noqa: E402
from analysis import Span  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # Nearest rank: p50 of 20 samples is rank 10, leaving 10 above.
        self.assertIsNone(analysis.tail_percentile(19))
        self.assertEqual(analysis.tail_percentile(20), 50.0)
        self.assertEqual(analysis.tail_percentile(39), 50.0)
        self.assertEqual(analysis.tail_percentile(40), 75.0)
        self.assertEqual(analysis.tail_percentile(99), 75.0)
        self.assertEqual(analysis.tail_percentile(100), 90.0)
        self.assertEqual(analysis.tail_percentile(200), 95.0)
        self.assertEqual(analysis.tail_percentile(1000), 99.0)
        self.assertEqual(analysis.tail_percentile(10000), 99.9)

    def test_every_chosen_tail_has_ten_beyond(self):
        for n in range(20, 2500, 7):
            p = analysis.tail_percentile(n)
            values = list(range(n))
            cut = analysis.percentile(values, p)
            self.assertGreaterEqual(sum(v > cut for v in values), 10, n)

    def test_summarize(self):
        s = analysis.summarize(range(1, 101))
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["median"], 50.5)
        self.assertEqual(s["tail_p"], 90.0)
        self.assertEqual(s["tail"], 90)
        few = analysis.summarize([3.0, 1.0, 2.0])
        self.assertEqual(few["median"], 2.0)
        self.assertIsNone(few["tail"])
        self.assertEqual(analysis.tail_or_max([3.0, 1.0, 2.0]), 3.0)


class SelfTimeTest(unittest.TestCase):
    def tree(self):
        # search [0, 100)
        #   proposer.ask    [0, 20)   with proposer.propose [2, 18)
        #   engine.execute  [20, 60)  with two overlapping objective calls
        #                             [22, 50) and [30, 58) (parallel)
        #   study.tell      [60, 95)  with proposer.observe [61, 70)
        #   (gap [95, 100) belongs to no layer)
        return [
            Span("search", 1, 0, 0, 100),
            Span("proposer.ask", 2, 1, 0, 20),
            Span("proposer.propose", 3, 2, 2, 18),
            Span("engine.execute", 4, 1, 20, 60),
            Span("objective.evaluate", 5, 4, 22, 50),
            Span("objective.evaluate", 6, 4, 30, 58),
            Span("study.tell", 7, 1, 60, 95),
            Span("proposer.observe", 8, 7, 61, 70),
        ]

    def test_self_times(self):
        own = analysis.self_times(self.tree())
        self.assertEqual(own[1], 5)    # only the uncovered tail
        self.assertEqual(own[2], 4)    # 20 - 16
        self.assertEqual(own[3], 16)   # leaf
        self.assertEqual(own[4], 4)    # 40 - union [22, 58) = 36
        self.assertEqual(own[7], 26)   # 35 - 9

    def test_children_clipped_to_parent(self):
        spans = [Span("a", 1, 0, 10, 20), Span("b", 2, 1, 5, 15),
                 Span("c", 3, 1, 18, 30)]
        self.assertEqual(analysis.self_times(spans)[1], 3)  # [15, 18)

    def test_unattributed_share_from_layers(self):
        spans = self.tree()
        result = {"reps": [{"traced": False, "warmup": True, "wall_s": 1},
                           {"traced": True, "warmup": False, "wall_s": 1e-4},
                           {"traced": False, "warmup": False,
                            "wall_s": 1e-4}],
                  "threads": 2, "gp_probes": [], "journal_append_us": [],
                  "fleet_probe": None}
        layer = analysis.per_layer(result, spans)
        self.assertAlmostEqual(layer["trace.unattributed_share"], 0.05)
        self.assertEqual(layer["objective.calls"], 2)
        self.assertAlmostEqual(layer["study.tell_s"], 26e-6)
        # busy 28 + 28 over 2 threads x 40 of execute
        self.assertAlmostEqual(layer["parallel.busy_share"], 56 / 80)
        self.assertEqual(layer["trace.overhead_share"], 0.0)


if __name__ == "__main__":
    unittest.main()
