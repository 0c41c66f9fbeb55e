#include "core/run_trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace hp::core {
namespace {

EvaluationRecord record(EvaluationStatus status, double error, double ts,
                        bool violates = false, bool diverged = false) {
  EvaluationRecord r;
  r.status = status;
  r.test_error = error;
  r.timestamp_s = ts;
  r.violates_constraints = violates;
  r.diverged = diverged;
  return r;
}

RunTrace sample_trace() {
  RunTrace t;
  t.add(record(EvaluationStatus::Completed, 0.30, 100.0));
  t.add(record(EvaluationStatus::ModelFiltered, 1.0, 103.0, true));
  t.add(record(EvaluationStatus::Completed, 0.25, 200.0, true));  // violating
  t.add(record(EvaluationStatus::EarlyTerminated, 0.9, 230.0, false, true));
  t.add(record(EvaluationStatus::Completed, 0.20, 340.0));
  t.add(record(EvaluationStatus::InfeasibleArchitecture, 1.0, 345.0));
  t.add(record(EvaluationStatus::Completed, 0.22, 460.0));
  return t;
}

TEST(RunTrace, Counters) {
  RunTrace t = sample_trace();
  EXPECT_EQ(t.size(), 7u);
  EXPECT_EQ(t.function_evaluations(), 5u);  // completed + early-terminated
  EXPECT_EQ(t.completed_count(), 4u);
  EXPECT_EQ(t.model_filtered_count(), 1u);
  EXPECT_EQ(t.early_terminated_count(), 1u);
  EXPECT_EQ(t.infeasible_count(), 1u);
  EXPECT_EQ(t.measured_violation_count(), 1u);  // only the trained violator
  EXPECT_EQ(t.failed_count(), 0u);
  EXPECT_EQ(t.fallback_count(), 0u);
  EXPECT_EQ(t.total_retries(), 0u);

  // One violation definition: a violating early-terminated evaluation
  // counts (it was trained), a filtered or failed "violator" does not.
  t.add(record(EvaluationStatus::EarlyTerminated, 0.9, 500.0,
               /*violates=*/true, /*diverged=*/true));
  EvaluationRecord failed = record(EvaluationStatus::Failed, 1.0, 510.0, true);
  failed.attempts = 3;  // two retries, then skipped
  t.add(failed);
  EvaluationRecord retried = record(EvaluationStatus::Completed, 0.4, 520.0);
  retried.attempts = 2;  // one retry, then completed
  t.add(retried);
  EvaluationRecord fallback = record(EvaluationStatus::Completed, 0.5, 530.0);
  fallback.measured = false;  // power came from the fallback model
  fallback.measured_power_w = 80.0;
  t.add(fallback);
  EvaluationRecord dark = record(EvaluationStatus::Failed, 1.0, 540.0);
  dark.measured = false;  // no metrics at all: not a fallback
  t.add(dark);

  EXPECT_EQ(t.size(), 12u);
  EXPECT_EQ(t.function_evaluations(), 8u);
  EXPECT_EQ(t.completed_count(), 6u);
  EXPECT_EQ(t.early_terminated_count(), 2u);
  EXPECT_EQ(t.measured_violation_count(), 2u);
  EXPECT_EQ(t.failed_count(), 2u);
  EXPECT_EQ(t.fallback_count(), 1u);
  EXPECT_EQ(t.total_retries(), 3u);

  // The running counts equal a recount of the records.
  std::size_t completed = 0, early = 0, filtered = 0, infeasible = 0;
  std::size_t failed_n = 0, violations = 0, fallbacks = 0, retries = 0;
  for (const EvaluationRecord& r : t.records()) {
    completed += r.status == EvaluationStatus::Completed ? 1 : 0;
    early += r.status == EvaluationStatus::EarlyTerminated ? 1 : 0;
    filtered += r.status == EvaluationStatus::ModelFiltered ? 1 : 0;
    infeasible += r.status == EvaluationStatus::InfeasibleArchitecture ? 1 : 0;
    failed_n += r.status == EvaluationStatus::Failed ? 1 : 0;
    const bool trained = r.status == EvaluationStatus::Completed ||
                         r.status == EvaluationStatus::EarlyTerminated;
    violations += trained && r.violates_constraints ? 1 : 0;
    fallbacks +=
        !r.measured && (r.measured_power_w || r.measured_memory_mb) ? 1 : 0;
    retries += r.attempts - 1;
  }
  EXPECT_EQ(t.completed_count(), completed);
  EXPECT_EQ(t.early_terminated_count(), early);
  EXPECT_EQ(t.model_filtered_count(), filtered);
  EXPECT_EQ(t.infeasible_count(), infeasible);
  EXPECT_EQ(t.failed_count(), failed_n);
  EXPECT_EQ(t.function_evaluations(), completed + early);
  EXPECT_EQ(t.measured_violation_count(), violations);
  EXPECT_EQ(t.fallback_count(), fallbacks);
  EXPECT_EQ(t.total_retries(), retries);
  EXPECT_EQ(t.violations_per_function_evaluation().back(), violations);
}

TEST(RunTrace, BestIgnoresViolatingAndNonCompleted) {
  const RunTrace t = sample_trace();
  const auto best = t.best();
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->test_error, 0.20);
}

TEST(RunTrace, BestEmptyWhenNothingFeasible) {
  RunTrace t;
  t.add(record(EvaluationStatus::Completed, 0.2, 10.0, /*violates=*/true));
  t.add(record(EvaluationStatus::ModelFiltered, 1.0, 12.0, true));
  EXPECT_FALSE(t.best().has_value());
}

TEST(RunTrace, BestErrorUpToIndex) {
  const RunTrace t = sample_trace();
  EXPECT_DOUBLE_EQ(t.best_error_up_to(0), 0.30);
  EXPECT_DOUBLE_EQ(t.best_error_up_to(3), 0.30);  // violator doesn't count
  EXPECT_DOUBLE_EQ(t.best_error_up_to(4), 0.20);
  EXPECT_DOUBLE_EQ(t.best_error_up_to(100), 0.20);
}

TEST(RunTrace, BestErrorSeriesPerFunctionEvaluation) {
  const RunTrace t = sample_trace();
  const auto series = t.best_error_per_function_evaluation();
  ASSERT_EQ(series.size(), 5u);
  EXPECT_DOUBLE_EQ(series[0], 0.30);
  EXPECT_DOUBLE_EQ(series[1], 0.30);
  EXPECT_DOUBLE_EQ(series[2], 0.30);
  EXPECT_DOUBLE_EQ(series[3], 0.20);
  EXPECT_DOUBLE_EQ(series[4], 0.20);
}

TEST(RunTrace, ViolationSeriesCumulative) {
  const RunTrace t = sample_trace();
  const auto series = t.violations_per_function_evaluation();
  ASSERT_EQ(series.size(), 5u);
  EXPECT_EQ(series[0], 0u);
  EXPECT_EQ(series[1], 1u);
  EXPECT_EQ(series[4], 1u);
}

TEST(RunTrace, TimeToSampleCount) {
  const RunTrace t = sample_trace();
  EXPECT_FALSE(t.time_to_sample_count(0).has_value());
  EXPECT_DOUBLE_EQ(*t.time_to_sample_count(1), 100.0);
  EXPECT_DOUBLE_EQ(*t.time_to_sample_count(7), 460.0);
  EXPECT_FALSE(t.time_to_sample_count(8).has_value());
}

TEST(RunTrace, TimeToError) {
  const RunTrace t = sample_trace();
  EXPECT_DOUBLE_EQ(*t.time_to_error(0.30), 100.0);
  EXPECT_DOUBLE_EQ(*t.time_to_error(0.21), 340.0);
  EXPECT_FALSE(t.time_to_error(0.1).has_value());
}

TEST(RunTrace, TotalTime) {
  EXPECT_DOUBLE_EQ(sample_trace().total_time_s(), 460.0);
  EXPECT_DOUBLE_EQ(RunTrace{}.total_time_s(), 0.0);
}

TEST(RunTrace, CsvHasHeaderAndOneRowPerRecord) {
  const RunTrace t = sample_trace();
  std::ostringstream os;
  t.write_csv(os);
  const std::string csv = os.str();
  std::size_t lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 8u);  // header + 7 records
  EXPECT_NE(csv.find("model_filtered"), std::string::npos);
  EXPECT_NE(csv.find("early_terminated"), std::string::npos);
}

TEST(RunTrace, EmptyTraceDerivedSeries) {
  const RunTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.function_evaluations(), 0u);
  EXPECT_EQ(t.measured_violation_count(), 0u);
  EXPECT_FALSE(t.best().has_value());
  EXPECT_DOUBLE_EQ(t.best_error_up_to(0), 1.0);
  EXPECT_TRUE(t.best_error_per_function_evaluation().empty());
  EXPECT_TRUE(t.violations_per_function_evaluation().empty());
  EXPECT_FALSE(t.time_to_sample_count(1).has_value());
  EXPECT_FALSE(t.time_to_error(1.0).has_value());
  std::ostringstream os;
  t.write_csv(os);
  std::size_t lines = 0;
  for (char c : os.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 1u);  // header only
}

TEST(RunTrace, AllSamplesFilteredTrace) {
  // A HyperPower run where the models reject everything: samples exist but
  // no function evaluation ever happens, so the per-evaluation series stay
  // empty while the per-sample queries still work.
  RunTrace t;
  for (int i = 0; i < 3; ++i) {
    t.add(record(EvaluationStatus::ModelFiltered, 1.0, 10.0 * (i + 1), true));
  }
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.function_evaluations(), 0u);
  EXPECT_EQ(t.model_filtered_count(), 3u);
  EXPECT_EQ(t.measured_violation_count(), 0u);  // violating by prediction only
  EXPECT_FALSE(t.best().has_value());
  EXPECT_TRUE(t.best_error_per_function_evaluation().empty());
  EXPECT_TRUE(t.violations_per_function_evaluation().empty());
  EXPECT_DOUBLE_EQ(*t.time_to_sample_count(3), 30.0);
  EXPECT_FALSE(t.time_to_error(1.0).has_value());
  EXPECT_DOUBLE_EQ(t.total_time_s(), 30.0);
}

TEST(RunTrace, SingleEarlyTerminatedRecord) {
  RunTrace t;
  t.add(record(EvaluationStatus::EarlyTerminated, 0.9, 42.0, false, true));
  EXPECT_EQ(t.function_evaluations(), 1u);  // it did invoke the objective
  EXPECT_EQ(t.completed_count(), 0u);
  EXPECT_EQ(t.early_terminated_count(), 1u);
  EXPECT_FALSE(t.best().has_value());  // but never counts for best
  const auto series = t.best_error_per_function_evaluation();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0], 1.0);  // nothing feasible yet
  EXPECT_DOUBLE_EQ(*t.time_to_sample_count(1), 42.0);
  EXPECT_FALSE(t.time_to_error(0.9).has_value());
}

TEST(EvaluationStatus, ToStringCoversAll) {
  EXPECT_EQ(to_string(EvaluationStatus::Completed), "completed");
  EXPECT_EQ(to_string(EvaluationStatus::EarlyTerminated), "early_terminated");
  EXPECT_EQ(to_string(EvaluationStatus::ModelFiltered), "model_filtered");
  EXPECT_EQ(to_string(EvaluationStatus::InfeasibleArchitecture),
            "infeasible_architecture");
}

TEST(EvaluationRecord, CountsForBestRules) {
  EXPECT_TRUE(record(EvaluationStatus::Completed, 0.1, 0).counts_for_best());
  EXPECT_FALSE(
      record(EvaluationStatus::Completed, 0.1, 0, true).counts_for_best());
  EXPECT_FALSE(record(EvaluationStatus::Completed, 0.9, 0, false, true)
                   .counts_for_best());
  EXPECT_FALSE(
      record(EvaluationStatus::EarlyTerminated, 0.9, 0).counts_for_best());
  EXPECT_FALSE(
      record(EvaluationStatus::ModelFiltered, 1.0, 0).counts_for_best());
}

}  // namespace
}  // namespace hp::core
