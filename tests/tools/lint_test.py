#!/usr/bin/env python3
"""Unit tests for tools/lint.py (stdlib unittest, ctest-registered).

Every lint rule gets at least one firing fixture and one passing fixture
(including the sanctioned exemptions: src/stats for randomness, src/obs
for stdio, core/thread_annotations.hpp for raw synchronization), built in
throwaway source trees so the tests pin the rules themselves rather than
the current state of the repo. The CLI contract (exit 0 clean / 1
findings / 2 usage error, relative paths in findings) and the invariant
that the real tree is lint-clean are covered at the end.
"""

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent.parent.parent / "tools"
sys.path.insert(0, str(TOOLS_DIR))

import lint  # noqa: E402


def run_checks(files):
    """Runs all lint checks over a synthetic tree; returns the findings.

    `files` maps repo-relative paths to file contents. The tree always
    gets a src/ directory so it passes lint's repo-root sanity check.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp).resolve()
        (root / "src").mkdir()
        for rel, content in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        findings = []
        for path in lint.iter_source_files(root):
            lines = path.read_text().splitlines()
            for check in lint.CHECKS:
                check(path, root, lines, findings)
        return findings


def rules(findings):
    return {f.rule for f in findings}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    old_argv = sys.argv
    sys.argv = ["lint.py"] + argv
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lint.main()
    finally:
        sys.argv = old_argv
    return code, out.getvalue(), err.getvalue()


class RandomnessTest(unittest.TestCase):
    def test_fires_on_rand_and_random_device_in_src(self):
        findings = run_checks({
            "src/core/a.cpp": "int f() { return rand(); }\n",
            "src/core/b.cpp": "std::random_device rd;\n",
        })
        self.assertEqual(rules(findings), {"determinism-random"})
        self.assertEqual(len(findings), 2)

    def test_src_stats_and_comments_are_exempt(self):
        findings = run_checks({
            "src/stats/rng.cpp": "int f() { return rand(); }\n",
            "src/core/c.cpp": "// rand() is forbidden outside stats\n",
        })
        self.assertEqual(rules(findings), set())


class LibraryIoTest(unittest.TestCase):
    def test_fires_on_stdio_in_library_code(self):
        findings = run_checks({
            "src/core/a.cpp": 'void f() { std::cout << 1; printf("x"); }\n',
        })
        self.assertEqual(rules(findings), {"library-io"})

    def test_obs_sinks_and_tools_are_exempt(self):
        findings = run_checks({
            "src/obs/sink.cpp": "void f() { std::cerr << 1; }\n",
            "tools/cli.cpp": "void f() { std::cout << 1; }\n",
        })
        self.assertEqual(rules(findings), set())


class ExceptionSwallowTest(unittest.TestCase):
    def test_fires_on_silent_catch_all(self):
        # Fixture lives outside src/core so only the swallow rule fires
        # (in src/core the same handler also violates failure-recording).
        findings = run_checks({
            "src/nn/a.cpp": "void f() { try { g(); } catch (...) { } }\n",
        })
        self.assertEqual(rules(findings), {"exception-swallow"})

    def test_rethrow_and_capture_pass(self):
        findings = run_checks({
            "src/core/a.cpp":
                "void f() { try { g(); } catch (...) { throw; } }\n"
                "void h() { try { g(); } catch (...) "
                "{ e = std::current_exception(); } }\n",
        })
        self.assertEqual(rules(findings), set())


class FailureRecordingTest(unittest.TestCase):
    def test_fires_on_unrecorded_typed_catch_in_core(self):
        findings = run_checks({
            "src/core/a.cpp":
                "void f() { try { g(); } "
                "catch (const std::exception&) { count = 0; } }\n",
        })
        self.assertEqual(rules(findings), {"failure-recording"})

    def test_fires_in_gp_and_linalg(self):
        # A numerical layer reports "not positive definite" as a typed
        # outcome; a catch that maps any exception to a score hides bugs.
        findings = run_checks({
            "src/gp/fit.cpp":
                "double f() { try { return g(); } "
                "catch (const std::exception&) { return -1.0; } }\n",
            "src/linalg/chol.cpp":
                "void f() { try { g(); } catch (...) { ok = false; } }\n",
        })
        self.assertEqual(
            {(f.path.parent.name, f.rule) for f in findings
             if f.rule == "failure-recording"},
            {("gp", "failure-recording"), ("linalg", "failure-recording")})

    def test_rethrow_in_gp_and_linalg_passes(self):
        findings = run_checks({
            "src/gp/fit.cpp":
                "void f() { try { g(); } "
                "catch (const std::exception&) { throw; } }\n",
            "src/linalg/chol.cpp":
                "void f() { try { g(); } catch (...) "
                "{ e = std::current_exception(); } }\n",
        })
        self.assertEqual(rules(findings), set())

    def test_recording_and_other_dirs_pass(self):
        findings = run_checks({
            "src/core/a.cpp":
                "void f() { try { g(); } "
                "catch (const std::exception&) { record_failure(); } }\n",
            "src/nn/b.cpp":
                "void f() { try { g(); } "
                "catch (const std::exception&) { count = 0; } }\n",
        })
        self.assertEqual(rules(findings), set())


class RawObjectiveEvaluateTest(unittest.TestCase):
    def test_fires_on_direct_evaluate_call(self):
        findings = run_checks({
            "src/core/a.cpp": "auto r = objective->evaluate(x);\n",
        })
        self.assertEqual(rules(findings), {"raw-objective-evaluate"})

    def test_pipeline_and_cost_model_callers_pass(self):
        findings = run_checks({
            "src/core/evaluation_engine.cpp":
                "auto r = objective->evaluate(x);\n",
            "src/core/b.cpp": "auto c = device.cost_model().evaluate(net);\n",
        })
        self.assertEqual(rules(findings), set())


class StudyAskTellTest(unittest.TestCase):
    def test_fires_on_proposer_and_recorder_mutation_outside_study(self):
        findings = run_checks({
            "src/core/evaluation_engine.cpp":
                "void f() { auto c = proposer_.propose(rng);\n"
                "  auto batch = proposer.propose_batch(base, count);\n"
                "  recorder_.observe_sample(record, mode);\n"
                "  recorder_.commit(std::move(record), mode);\n"
                "  recorder_.begin_run(); }\n",
            "src/dist/job_scheduler.cpp":
                "void g() { proposer->observe(record);\n"
                "  auto t = recorder.take_trace(); }\n",
        })
        self.assertEqual(rules(findings), {"study-ask-tell"})
        self.assertEqual(len(findings), 7)

    def test_study_internals_self_calls_and_tests_are_exempt(self):
        findings = run_checks({
            # The sanctioned owner of ask/tell state transitions.
            "src/core/study.cpp":
                "void f() { auto c = proposer_.propose(rng);\n"
                "  recorder_.observe_sample(record, mode);\n"
                "  proposer_.observe(record);\n"
                "  recorder_.commit(std::move(record), mode); }\n",
            # A proposer's own batch helper calls propose() bare — no
            # member receiver, so subclass internals stay legal.
            "src/core/bayes_opt.cpp":
                "auto fill = [this](Rng& rng) { return propose(rng); };\n",
            # Histogram::observe shares the name; non-proposer receivers
            # don't match.
            "src/parallel/pool.cpp": "wait_hist_->observe(elapsed);\n",
            # Tests drive studies and proposers directly.
            "tests/core/study_test.py_like.cpp":
                "auto c = proposer.propose(rng);\n",
        })
        self.assertEqual(rules(findings), set())


class TraceNameLiteralTest(unittest.TestCase):
    def test_fires_on_runtime_formatted_name(self):
        findings = run_checks({
            "src/core/a.cpp": "ScopedTimer t(make_name(round));\n",
        })
        self.assertEqual(rules(findings), {"trace-name-literal"})

    def test_dotted_literal_passes(self):
        findings = run_checks({
            "src/core/a.cpp":
                'ScopedTimer t("optimizer.round.propose", tracer);\n',
        })
        self.assertEqual(rules(findings), set())


class RawProcessControlTest(unittest.TestCase):
    def test_fires_on_fork_pipe_waitpid_outside_dist(self):
        findings = run_checks({
            "src/core/a.cpp":
                "void f() {\n"
                "  int fds[2];\n"
                "  ::pipe(fds);\n"
                "  const pid_t pid = fork();\n"
                "  waitpid(pid, nullptr, 0);\n"
                "}\n",
        })
        self.assertEqual(rules(findings), {"raw-process-control"})
        self.assertEqual(len(findings), 3)

    def test_fires_on_exec_and_spawn_variants(self):
        findings = run_checks({
            "src/hw/a.cpp":
                "void f(char** argv) {\n"
                "  ::execv(argv[0], argv);\n"
                "  posix_spawn(nullptr, argv[0], nullptr, nullptr,\n"
                "              argv, nullptr);\n"
                "}\n",
        })
        self.assertEqual(rules(findings), {"raw-process-control"})
        self.assertEqual(len(findings), 2)

    def test_dist_tests_members_and_comments_are_exempt(self):
        findings = run_checks({
            # The sanctioned owner of process lifecycle.
            "src/dist/supervisor.cpp":
                "void f() { int fds[2]; ::pipe(fds);\n"
                "  const pid_t pid = ::fork();\n"
                "  ::waitpid(pid, nullptr, 0); }\n",
            # Tests may reap directly to assert no zombies remain.
            "tests/dist/a_test.cpp": "waitpid(-1, nullptr, WNOHANG);\n",
            # Member calls and identifiers containing the names don't match.
            "src/core/b.cpp":
                "void g() { table.fork(); pipeline(x); my_waitpid_count++; }\n"
                "// fork() belongs in src/dist\n",
        })
        self.assertEqual(rules(findings), set())


class RawMutexTest(unittest.TestCase):
    def test_fires_on_each_raw_primitive_and_header(self):
        findings = run_checks({
            "src/core/locks.cpp":
                "#include <mutex>\n"
                "#include <condition_variable>\n"
                "void f() {\n"
                "  std::mutex m;\n"
                "  std::lock_guard<std::mutex> lock(m);\n"
                "  std::unique_lock<std::mutex> ul(m);\n"
                "  std::condition_variable cv;\n"
                "}\n",
        })
        self.assertEqual(rules(findings), {"raw-mutex"})
        # Two forbidden includes plus four declaration lines.
        self.assertEqual(len(findings), 6)

    def test_fires_on_shared_and_recursive_variants(self):
        findings = run_checks({
            "src/hw/a.hpp":
                "#pragma once\n"
                "#include <shared_mutex>\n"
                "struct S {\n"
                "  std::shared_mutex sm;\n"
                "  std::recursive_mutex rm;\n"
                "  std::condition_variable_any cva;\n"
                "};\n",
        })
        self.assertEqual(rules(findings), {"raw-mutex"})
        self.assertEqual(len(findings), 4)

    def test_annotation_header_tests_and_comments_are_exempt(self):
        findings = run_checks({
            # The one sanctioned owner of the raw primitives.
            "src/core/thread_annotations.hpp":
                "#pragma once\n"
                "#include <mutex>\n"
                "#include <condition_variable>\n"
                "class Mutex { std::mutex mutex_; };\n",
            # Tests may use std primitives to probe the wrappers.
            "tests/core/a_test.cpp": "std::mutex test_mutex;\n",
            "src/core/doc.cpp": "// prefer hp::Mutex over std::mutex\n",
        })
        self.assertEqual(rules(findings), set())


class PragmaOnceTest(unittest.TestCase):
    def test_fires_when_header_lacks_pragma_once(self):
        findings = run_checks({"src/core/a.hpp": "int x;\n"})
        self.assertEqual(rules(findings), {"pragma-once"})

    def test_pragma_after_leading_comment_passes(self):
        findings = run_checks({
            "src/core/a.hpp": "// doc comment\n#pragma once\nint x;\n",
        })
        self.assertEqual(rules(findings), set())


class IncludeChecksTest(unittest.TestCase):
    def test_include_exists_fires_on_stale_path(self):
        findings = run_checks({
            "src/core/a.cpp": '#include "core/gone.hpp"\n',
        })
        self.assertEqual(rules(findings), {"include-exists"})

    def test_include_exists_resolves_against_src(self):
        findings = run_checks({
            "src/core/real.hpp": "#pragma once\n",
            "src/nn/a.cpp": '#include "core/real.hpp"\n',
        })
        self.assertEqual(rules(findings), set())

    def test_no_bits_include_fires(self):
        findings = run_checks({
            "src/core/a.cpp": "#include <bits/stdc++.h>\n",
        })
        self.assertEqual(rules(findings), {"no-bits-include"})

    def test_header_no_iostream_fires_in_headers_only(self):
        findings = run_checks({
            "src/core/a.hpp": "#pragma once\n#include <iostream>\n",
            "src/core/b.cpp": "#include <iostream>\n",
        })
        self.assertEqual(rules(findings), {"header-no-iostream"})
        self.assertEqual(len(findings), 1)

    def test_self_include_first_fires_when_own_header_not_first(self):
        findings = run_checks({
            "src/core/foo.hpp": "#pragma once\n",
            "src/core/other.hpp": "#pragma once\n",
            "src/core/foo.cpp":
                '#include "core/other.hpp"\n#include "core/foo.hpp"\n',
        })
        self.assertEqual(rules(findings), {"self-include-first"})

    def test_self_include_first_passes_when_first(self):
        findings = run_checks({
            "src/core/foo.hpp": "#pragma once\n",
            "src/core/other.hpp": "#pragma once\n",
            "src/core/foo.cpp":
                '#include "core/foo.hpp"\n#include "core/other.hpp"\n',
        })
        self.assertEqual(rules(findings), set())


class CliTest(unittest.TestCase):
    def test_findings_exit_1_with_relative_paths(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "src" / "core").mkdir(parents=True)
            (root / "src" / "core" / "a.cpp").write_text(
                "int f() { return rand(); }\n")
            code, out, err = run_main(["--root", str(root)])
        self.assertEqual(code, 1)
        self.assertIn("[determinism-random]", out)
        self.assertIn("src/core/a.cpp", out)
        self.assertNotIn(tmp, out)  # findings print repo-relative paths
        self.assertIn("1 finding(s)", err)

    def test_clean_tree_exits_0(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "src").mkdir()
            code, _, err = run_main(["--root", str(root)])
        self.assertEqual(code, 0)
        self.assertIn("clean", err)

    def test_non_repo_root_exits_2(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, _, err = run_main(["--root", tmp])
        self.assertEqual(code, 2)
        self.assertIn("error:", err)

    def test_real_tree_is_clean(self):
        code, _, _ = run_main(["--root", str(TOOLS_DIR.parent)])
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
