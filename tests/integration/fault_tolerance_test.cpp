// Acceptance tests for the fault-tolerant evaluation pipeline:
//   1. a run with injected transient faults and periodic sensor failures
//      completes, recording every candidate exactly once;
//   2. a run killed mid-way and resumed from its journal produces a
//      bit-identical final trace (and journal) vs an uninterrupted run;
//   3. a damaged journal either resumes from exactly the records before
//      the damage or is refused untouched — never silently shortened.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/framework.hpp"
#include "core/hw_models.hpp"
#include "core/random_search.hpp"
#include "core/spaces.hpp"
#include "core/trace_io.hpp"
#include "hw/device.hpp"
#include "testbed/testbed_objective.hpp"

#include "../core/fake_objective.hpp"

namespace hp::core {
namespace {

using testing::FakeObjective;
using testing::fake_space;

std::string trace_csv(const RunTrace& trace) {
  std::ostringstream os;
  trace.write_csv(os);
  return os.str();
}

std::string file_contents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

RetryPolicy fast_retries() {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_initial_s = 10.0;
  policy.backoff_jitter = 0.1;
  return policy;
}

TEST(FaultTolerance, FaultyTestbedRunRecordsEveryCandidateExactlyOnce) {
  // The full acceptance scenario: 20% of evaluation attempts throw
  // injected transient faults, the power sensor glitches periodically, and
  // the memory counter occasionally fails — yet the run completes with a
  // gapless trace.
  BenchmarkProblem problem = mnist_problem();
  testbed::TestbedOptions testbed_options =
      testbed::calibrated_options("mnist", hw::gtx1070());
  testbed_options.sensor_faults.failure_rate = 0.15;
  testbed_options.sensor_faults.fail_memory = true;
  testbed_options.sensor_faults.seed = 321;
  testbed_options.sensor_fallback_after = 3;
  testbed::TestbedObjective objective(problem, testbed::mnist_landscape(),
                                      hw::gtx1070(), testbed_options);
  // Fallback predictors (mnist z is 4-dimensional); accuracy is irrelevant
  // here, only that degraded samples get *some* prediction instead of
  // dying.
  const HardwareModel power_model(ModelForm::Linear,
                                  linalg::Vector{0.5, 1.0, -1.0, 0.02}, 40.0,
                                  2.0);
  const HardwareModel memory_model(ModelForm::Linear,
                                   linalg::Vector{2.0, 5.0, -3.0, 0.5}, 500.0,
                                   20.0);
  objective.set_fallback_models(&power_model, &memory_model);

  FaultSpec faults;
  faults.failure_rate = 0.2;
  faults.seed = 2024;
  FaultInjectingObjective faulty(objective, faults);

  OptimizerOptions options;
  options.max_function_evaluations = 25;
  options.seed = 5;
  options.retry = fast_retries();
  RandomSearchProposer rand(problem.space());
  const RunResult result =
      EvaluationEngine(problem.space(), faulty, {}, nullptr, options, rand)
          .run();

  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.trace.function_evaluations(), 25u);
  ASSERT_TRUE(result.best.has_value());
  // Every candidate exactly once, indices gapless and ordered.
  std::set<std::size_t> indices;
  for (const auto& record : result.trace.records()) {
    indices.insert(record.index);
  }
  EXPECT_EQ(indices.size(), result.trace.size());
  EXPECT_EQ(*indices.rbegin(), result.trace.size() - 1);
  // The faults actually fired and were absorbed.
  EXPECT_GT(faulty.injected_failures(), 0u);
  EXPECT_GT(result.trace.total_retries(), 0u);
  // Timestamps stay monotone through retries and failures.
  double prev = -1.0;
  for (const auto& record : result.trace.records()) {
    EXPECT_GT(record.timestamp_s, prev) << "sample " << record.index;
    prev = record.timestamp_s;
  }
}

TEST(FaultTolerance, PersistentlyBrokenEnvironmentAbortsInsteadOfSpinning) {
  auto space = fake_space();
  FakeObjective inner(space);
  FaultSpec faults;
  faults.failure_rate = 1.0;
  faults.transient_weight = 0.0;
  faults.persistent_weight = 1.0;
  FaultInjectingObjective faulty(inner, faults);
  OptimizerOptions options;
  options.max_function_evaluations = 50;
  options.seed = 6;
  options.retry.max_consecutive_failed_samples = 5;
  RandomSearchProposer rand(space);
  const RunResult result =
      EvaluationEngine(space, faulty, {}, nullptr, options, rand).run();
  EXPECT_TRUE(result.aborted);
  EXPECT_FALSE(result.abort_reason.empty());
  EXPECT_FALSE(result.best.has_value());
  EXPECT_EQ(result.trace.failed_count(), 5u);
}

/// Runs @p method twice: once uninterrupted, once "crashed" after
/// @p keep completed records and resumed from the journal. Both traces and
/// both final journals must be bit-identical.
void expect_resume_bit_identical(Method method, OptimizerOptions options,
                                 std::size_t keep, const std::string& tag) {
  const HyperParameterSpace space = fake_space();
  const std::string full_journal = temp_path("journal_full_" + tag + ".hpj");
  const std::string resumed_journal =
      temp_path("journal_resumed_" + tag + ".hpj");

  FaultSpec faults;
  faults.failure_rate = 0.2;
  faults.seed = 77;

  // Uninterrupted reference run (journaled, with live fault injection).
  options.journal_path = full_journal;
  FakeObjective reference_inner(space);
  FaultInjectingObjective reference_faulty(reference_inner, faults);
  const auto reference = make_proposer(method, space);
  const RunResult uninterrupted =
      EvaluationEngine(space, reference_faulty, {}, nullptr, options,
                       *reference)
          .run();
  ASSERT_GT(uninterrupted.trace.size(), keep);

  // "Crash": keep only the first @p keep journaled records.
  JournalLoadResult crashed = EvalJournal::load(full_journal);
  ASSERT_GE(crashed.records.size(), keep);
  crashed.records.resize(keep);

  // Fresh objective + proposer, resumed from the truncated journal.
  options.journal_path = resumed_journal;
  FakeObjective resumed_inner(space);
  FaultInjectingObjective resumed_faulty(resumed_inner, faults);
  const auto fresh = make_proposer(method, space);
  const RunResult resumed =
      EvaluationEngine(space, resumed_faulty, {}, nullptr, options, *fresh)
          .resume(crashed.records);

  EXPECT_EQ(trace_csv(resumed.trace), trace_csv(uninterrupted.trace))
      << tag << ": resumed trace differs from uninterrupted run";
  ASSERT_TRUE(uninterrupted.best.has_value());
  ASSERT_TRUE(resumed.best.has_value());
  EXPECT_EQ(resumed.best->config, uninterrupted.best->config);
  EXPECT_EQ(resumed.best->test_error, uninterrupted.best->test_error);
  // The rebuilt journal is byte-identical too: a second crash loses
  // nothing.
  EXPECT_EQ(file_contents(resumed_journal), file_contents(full_journal))
      << tag << ": resumed journal differs";
  std::remove(full_journal.c_str());
  std::remove(resumed_journal.c_str());
}

OptimizerOptions base_options(std::uint64_t seed, std::size_t evals) {
  OptimizerOptions options;
  options.max_function_evaluations = evals;
  options.seed = seed;
  options.retry = fast_retries();
  return options;
}

TEST(FaultTolerance, ResumeIsBitIdentical_RandSequential) {
  expect_resume_bit_identical(Method::Rand, base_options(11, 20), 7,
                              "rand_seq");
}

TEST(FaultTolerance, ResumeIsBitIdentical_RandBatchedParallel) {
  OptimizerOptions options = base_options(12, 20);
  options.batch_size = 4;
  options.num_threads = 4;
  // 6 is mid-round for batch 4: the partial round must be dropped and
  // re-evaluated identically.
  expect_resume_bit_identical(Method::Rand, options, 6, "rand_batched");
}

TEST(FaultTolerance, ResumeIsBitIdentical_HwIeciSequential) {
  expect_resume_bit_identical(Method::HwIeci, base_options(13, 10), 5,
                              "ieci_seq");
}

TEST(FaultTolerance, ResumeIsBitIdentical_HwIeciBatched) {
  OptimizerOptions options = base_options(14, 10);
  options.batch_size = 3;
  options.num_threads = 2;
  expect_resume_bit_identical(Method::HwIeci, options, 4, "ieci_batched");
}

TEST(FaultTolerance, ResumeFromEmptyJournalEqualsFreshRun) {
  auto space = fake_space();
  FakeObjective a_inner(space);
  RandomSearchProposer a(space);
  const auto reference =
      EvaluationEngine(space, a_inner, {}, nullptr, base_options(15, 10), a)
          .run();
  FakeObjective b_inner(space);
  RandomSearchProposer b(space);
  const auto resumed =
      EvaluationEngine(space, b_inner, {}, nullptr, base_options(15, 10), b)
          .resume({});
  EXPECT_EQ(trace_csv(resumed.trace), trace_csv(reference.trace));
}

TEST(FaultTolerance, ResumeRejectsMismatchedRecords) {
  auto space = fake_space();
  FakeObjective a_inner(space);
  RandomSearchProposer a(space);
  const auto reference =
      EvaluationEngine(space, a_inner, {}, nullptr, base_options(16, 8), a)
          .run();
  // Same method, different seed: the replayed proposals cannot match.
  FakeObjective b_inner(space);
  RandomSearchProposer b(space);
  EvaluationEngine resumed(space, b_inner, {}, nullptr, base_options(17, 8), b);
  EXPECT_THROW((void)resumed.resume(reference.trace.records()),
               std::runtime_error);
}

/// Sweeps damaged copies of a finished run's journal through the resume
/// policy: every truncation, and every single-bit flip. A case that loads
/// must hold exactly the records before the damage, and resuming from
/// them must reproduce the uninterrupted run; damage anywhere before the
/// final line must be refused, with the file left as it was.
TEST(FaultTolerance, DamagedJournalResumesFromItsValidPrefixOrIsRefused) {
  const HyperParameterSpace space = fake_space();
  OptimizerOptions options = base_options(21, 4);
  const std::string clean_path = temp_path("journal_sweep_clean.hpj");
  const std::string damaged_path = temp_path("journal_sweep_damaged.hpj");
  const std::string resumed_path = temp_path("journal_sweep_resumed.hpj");
  options.journal_path = clean_path;
  FakeObjective reference_objective(space);
  RandomSearchProposer reference_proposer(space);
  const std::string reference_csv = trace_csv(
      EvaluationEngine(space, reference_objective, {}, nullptr, options,
                       reference_proposer)
          .run()
          .trace);
  const std::string clean = file_contents(clean_path);
  const std::vector<EvaluationRecord> records =
      EvalJournal::load(clean_path).records;
  const JournalHeader header{reference_proposer.name(), options.seed,
                             options.batch_size};

  // Offsets of the '\n' ending each line: header, records, epilogue.
  std::vector<std::size_t> line_end;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean[i] == '\n') line_end.push_back(i);
  }
  const std::size_t n = records.size();
  ASSERT_EQ(n, 4u);
  ASSERT_EQ(line_end.size(), n + 2);

  std::set<std::size_t> prefixes_resumed;
  // nullopt expected_prefix: the damage must be refused.
  const auto check = [&](const std::string& bytes,
                         std::optional<std::size_t> expected_prefix,
                         const std::string& what) {
    write_file(damaged_path, bytes);
    std::optional<JournalLoadResult> loaded;
    try {
      loaded = load_journal_for_resume(damaged_path, header);
    } catch (const std::invalid_argument&) {
      EXPECT_FALSE(expected_prefix.has_value()) << what << ": refused";
      EXPECT_EQ(file_contents(damaged_path), bytes) << what;
      return;
    }
    ASSERT_TRUE(expected_prefix.has_value()) << what << ": not refused";
    ASSERT_TRUE(loaded.has_value()) << what;
    ASSERT_EQ(loaded->records.size(), *expected_prefix) << what;
    for (std::size_t i = 0; i < *expected_prefix; ++i) {
      ASSERT_EQ(format_record_line(loaded->records[i]),
                format_record_line(records[i]))
          << what << ": record " << i;
    }
    if (!prefixes_resumed.insert(*expected_prefix).second) return;
    OptimizerOptions resumed_options = options;
    resumed_options.journal_path = resumed_path;
    FakeObjective objective(space);
    RandomSearchProposer proposer(space);
    const RunResult resumed = EvaluationEngine(space, objective, {}, nullptr,
                                               resumed_options, proposer)
                                  .resume(loaded->records);
    EXPECT_EQ(trace_csv(resumed.trace), reference_csv) << what;
    EXPECT_EQ(file_contents(resumed_path), clean) << what;
  };

  for (std::size_t k = 0; k < clean.size(); ++k) {
    // Truncation only ever tears the final line, so once the header is
    // whole every record line ending at or before k survives.
    std::optional<std::size_t> expected;
    if (k >= line_end[0]) {
      std::size_t whole = 0;
      while (whole < n && line_end[whole + 1] <= k) ++whole;
      expected = whole;
    }
    check(clean.substr(0, k), expected, "truncated at " + std::to_string(k));
  }
  for (std::size_t p = 0; p < clean.size(); ++p) {
    std::string bytes = clean;
    bytes[p] = static_cast<char>(bytes[p] ^ 0x01);
    // Only the epilogue is a final line: damage before it is mid-file,
    // except a flipped newline that merges the last record into it.
    std::optional<std::size_t> expected;
    if (p == line_end[n]) expected = n - 1;
    if (p > line_end[n]) expected = n;
    check(bytes, expected, "bit flipped at " + std::to_string(p));
  }
  EXPECT_EQ(prefixes_resumed.size(), n + 1);

  std::remove(clean_path.c_str());
  std::remove(damaged_path.c_str());
  std::remove(resumed_path.c_str());
}

}  // namespace
}  // namespace hp::core
