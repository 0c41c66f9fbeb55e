#!/usr/bin/env python3
"""Unit tests for tools/bench_table.py (stdlib unittest, ctest-registered).

The ctest bench_table_py checks the committed EXPERIMENTS.md against the
committed baseline; these tests pin the rendering and the drift check on
synthetic inputs.
"""

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent.parent.parent / "tools"
sys.path.insert(0, str(TOOLS_DIR))

import bench_table  # noqa: E402


def times():
    out = {}
    for name, _, _ in bench_table.ROWS:
        out[f"{name}/100"] = 100_000.0
        out[f"{name}/200"] = 2_500_000.0
    out["BM_GpRefitIncremental/200"] = 250_000.0
    out[bench_table.ML_FIT] = 590_000.0
    return out


def parallel_times():
    out = {}
    for prefix, _ in bench_table.SCALING:
        one, four = bench_table.scaling_runs(prefix)
        out[one] = 40_000_000.0
        out[four] = 16_000_000.0
    return out


class FormatTest(unittest.TestCase):
    def test_units(self):
        self.assertEqual(bench_table.format_ns(7_150.0), "7.2 µs")
        self.assertEqual(bench_table.format_ns(838_147.5), "838 µs")
        self.assertEqual(bench_table.format_ns(6_684_057.0), "6.68 ms")


class LoadTest(unittest.TestCase):
    def test_times_are_converted_to_ns(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCH_x.json"
            path.write_text(
                '{"runs": [{"name": "a", "real_time": 2.5, '
                '"time_unit": "ms"}, {"name": "b", "real_time": 7.0}, '
                '{"name": "c", "real_time": 3.0, "time_unit": "us"}]}',
                encoding="utf-8")
            times, provenance = bench_table.load_baseline(path)
        self.assertEqual(times, {"a": 2_500_000.0, "b": 7.0, "c": 3_000.0})
        self.assertEqual(provenance, {})


class RenderTest(unittest.TestCase):
    def test_rows_ratio_and_provenance(self):
        block = bench_table.render(
            times(), {"compiler": "gcc 12.2.0", "build_type": "Release",
                      "nproc": 4, "git_sha": "0123456789abcdef"}, 5.0,
            parallel_times(), [1.3, 1.2])
        self.assertTrue(block.startswith(bench_table.BEGIN))
        self.assertTrue(block.endswith(bench_table.END))
        self.assertIn("| `BM_GpRefitFull` (fresh GP per fit) | 100 µs | "
                      "2.50 ms | O(n³) |", block)
        self.assertIn("**≈ 10.0×**", block)
        self.assertIn("≥ 5×", block)
        self.assertIn("takes 590 µs", block)
        self.assertIn("4 CPUs, commit `0123456789ab`.", block)
        self.assertIn("| `BM_KernelMlFit` (the cifar config's last BO kernel "
                      "fit (n = 117, 1 + 4 starts)) | 40.00 ms | 16.00 ms | "
                      "2.5× | ≥ 1.3× |", block)
        self.assertIn("| 2.5× | ≥ 1.2× |", block)

    def test_uncommitted_build_keeps_dirty_marker(self):
        block = bench_table.render(
            times(), {"git_sha": "0123456789abcdef-dirty"}, 5.0,
            parallel_times(), [1.6, 1.2])
        self.assertIn("commit `0123456789ab-dirty`.", block)

    def test_missing_run_is_an_error(self):
        partial = times()
        del partial["BM_CholeskyExtend/200"]
        with self.assertRaises(bench_table.TableError):
            bench_table.render(partial, {}, 5.0, parallel_times(),
                               [1.6, 1.2])

    def test_missing_scaling_run_is_an_error(self):
        partial = parallel_times()
        del partial[bench_table.scaling_runs("BM_AcqArgmax")[1]]
        with self.assertRaises(bench_table.TableError):
            bench_table.render(times(), {}, 5.0, partial, [1.6, 1.2])


class CheckTest(unittest.TestCase):
    def run_main(self, doc_text, argv):
        with tempfile.TemporaryDirectory() as tmp:
            doc = Path(tmp) / "EXPERIMENTS.md"
            doc.write_text(doc_text, encoding="utf-8")
            saved = bench_table.DOC
            bench_table.DOC = doc
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = bench_table.main(argv)
            finally:
                bench_table.DOC = saved
            return code, doc.read_text(encoding="utf-8")

    def test_check_detects_drift_and_write_repairs_it(self):
        stale = (f"intro\n{bench_table.BEGIN}\n| stale | 589 µs |\n"
                 f"{bench_table.END}\noutro\n")
        code, _ = self.run_main(stale, ["--check"])
        self.assertEqual(code, 1)
        code, repaired = self.run_main(stale, ["--write"])
        self.assertEqual(code, 0)
        self.assertNotIn("589 µs", repaired)
        self.assertTrue(repaired.startswith("intro\n"))
        self.assertTrue(repaired.endswith("\noutro\n"))
        code, _ = self.run_main(repaired, ["--check"])
        self.assertEqual(code, 0)

    def test_missing_markers_is_an_error(self):
        code, _ = self.run_main("no table here\n", ["--check"])
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
