// The per-sample "optimizer.progress" events and the end-of-run
// "optimizer.done" event report the run's counts. Those counts live in one
// place, RunTrace: every field an event carries must equal the RunTrace
// getters over the samples booked so far — through model filtering, early
// termination, injected faults with retries, batching, and a journal
// resume (whose replayed samples emit no events).

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluation_engine.hpp"
#include "core/fault_injection.hpp"
#include "core/framework.hpp"
#include "fake_objective.hpp"
#include "obs/log.hpp"

namespace hp::core {
namespace {

using testing::FakeObjective;
using testing::fake_space;

/// Keeps every event it is handed (Logger dispatch is serialized, so no
/// lock is needed).
class RecordingSink final : public obs::LogSink {
 public:
  void write(const obs::LogEvent& event) override { events.push_back(event); }
  std::vector<obs::LogEvent> events;
};

/// Attaches a recording sink to the process-wide logger for one scope.
class AttachedSink {
 public:
  AttachedSink() : sink_(std::make_shared<RecordingSink>()) {
    obs::logger().add_sink(sink_, obs::LogLevel::kInfo);
  }
  ~AttachedSink() { obs::logger().clear_sinks(); }
  AttachedSink(const AttachedSink&) = delete;
  AttachedSink& operator=(const AttachedSink&) = delete;

  [[nodiscard]] std::vector<obs::LogEvent> named(
      const std::string& name) const {
    std::vector<obs::LogEvent> out;
    for (const obs::LogEvent& e : sink_->events) {
      if (e.name == name) out.push_back(e);
    }
    return out;
  }

 private:
  std::shared_ptr<RecordingSink> sink_;
};

/// Field name -> serialized value, so comparisons are exact and typed.
using Fields = std::map<std::string, std::string>;

Fields fields_of(const obs::LogEvent& event) {
  Fields out;
  for (const obs::LogField& f : event.fields) out[f.key] = f.value.dump();
  return out;
}

std::string json(const obs::JsonValue& v) { return v.dump(); }

/// What "optimizer.progress" must carry after the samples of @p trace.
Fields expected_progress(const RunTrace& trace,
                         const OptimizerOptions& options) {
  Fields f;
  f["samples"] = json(trace.size());
  f["evals"] = json(trace.function_evaluations());
  f["filtered"] = json(trace.model_filtered_count());
  f["early_terminated"] = json(trace.early_terminated_count());
  f["violations"] = json(trace.measured_violation_count());
  f["clock_s"] = json(trace.records().back().timestamp_s);
  if (trace.failed_count() > 0) f["failed"] = json(trace.failed_count());
  if (const auto best = trace.best()) f["best_error"] = json(best->test_error);
  f["max_evals"] = json(options.max_function_evaluations);
  return f;
}

/// Checks the progress events (one per live sample, in sample order) and
/// the done event of one run against the trace it produced. Samples
/// replayed from a journal (the "optimizer.resume" event says how many)
/// must emit nothing.
void expect_events_match_trace(const AttachedSink& sink, const RunResult& run,
                               const OptimizerOptions& options) {
  std::size_t first_live = 0;
  for (const obs::LogEvent& resume : sink.named("optimizer.resume")) {
    first_live = static_cast<std::size_t>(
        std::stod(fields_of(resume).at("replayed")));
  }
  const std::vector<obs::LogEvent> progress = sink.named("optimizer.progress");
  ASSERT_EQ(progress.size(), run.trace.size() - first_live);
  RunTrace prefix;
  for (std::size_t i = 0; i < run.trace.size(); ++i) {
    prefix.add(run.trace.records()[i]);
    if (i < first_live) continue;
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(fields_of(progress[i - first_live]),
              expected_progress(prefix, options));
  }

  const std::vector<obs::LogEvent> done = sink.named("optimizer.done");
  ASSERT_EQ(done.size(), 1u);
  const Fields got = fields_of(done.front());
  const RunTrace& t = run.trace;
  EXPECT_EQ(got.at("samples"), json(t.size()));
  EXPECT_EQ(got.at("completed"), json(t.completed_count()));
  EXPECT_EQ(got.at("model_filtered"), json(t.model_filtered_count()));
  EXPECT_EQ(got.at("early_terminated"), json(t.early_terminated_count()));
  EXPECT_EQ(got.at("infeasible"), json(t.infeasible_count()));
  EXPECT_EQ(got.at("failed"), json(t.failed_count()));
  EXPECT_EQ(got.at("retries"), json(t.total_retries()));
  EXPECT_EQ(got.at("fallbacks"), json(t.fallback_count()));
  EXPECT_EQ(got.at("measured_violations"),
            json(t.measured_violation_count()));
  ASSERT_TRUE(run.best.has_value());
  EXPECT_EQ(got.at("best_error"), json(run.best->test_error));
}

/// A run that books every kind of count: the power model under-predicts
/// (30 W/unit vs the measured 100), so some a-priori-feasible samples
/// violate the measured 15 W budget while others are model-filtered;
/// diverging samples are terminated early; 40% of attempts fail, two
/// attempts per sample, so there are both retries and Failed samples.
struct Scenario {
  HyperParameterSpace space = fake_space();
  HardwareConstraints constraints{
      ConstraintBudgets{15.0, std::nullopt},
      HardwareModel(ModelForm::Linear, linalg::Vector{30.0}, 0.0, 0.5),
      std::nullopt};
  FakeObjective inner{space};
  FaultInjectingObjective faulty{inner, faults()};
  OptimizerOptions options;
  std::unique_ptr<Proposer> proposer = make_proposer(Method::Rand, space);

  Scenario(std::size_t batch, const std::string& journal_path) {
    inner.set_diverge_above(0.55);
    options.seed = 31;
    options.batch_size = batch;
    options.num_threads = batch;
    options.max_function_evaluations = 14;
    options.max_samples = 80;
    options.retry.max_attempts = 2;
    options.retry.backoff_initial_s = 5.0;
    options.journal_path = journal_path;
  }

  static FaultSpec faults() {
    FaultSpec spec;
    spec.failure_rate = 0.4;
    spec.seed = 11;
    return spec;
  }

  EvaluationEngine engine() {
    return EvaluationEngine(space, faulty, constraints.budgets(),
                            &constraints, options, *proposer);
  }
};

void check_batch(std::size_t batch) {
  const std::string tag = "progress_events_b" + std::to_string(batch);
  const std::string full_journal = ::testing::TempDir() + tag + "_full.hpj";
  const std::string resumed_journal =
      ::testing::TempDir() + tag + "_resumed.hpj";

  Scenario full(batch, full_journal);
  RunResult uninterrupted;
  {
    SCOPED_TRACE("uninterrupted, batch " + std::to_string(batch));
    AttachedSink sink;
    uninterrupted = full.engine().run();
    expect_events_match_trace(sink, uninterrupted, full.options);
    EXPECT_TRUE(sink.named("optimizer.resume").empty());
  }
  // The scenario really exercises every count.
  const RunTrace& t = uninterrupted.trace;
  EXPECT_GT(t.model_filtered_count(), 0u);
  EXPECT_GT(t.early_terminated_count(), 0u);
  EXPECT_GT(t.measured_violation_count(), 0u);
  EXPECT_GT(t.failed_count(), 0u);
  EXPECT_GT(t.total_retries(), 0u);

  // "Crash" after 6 samples and resume; at batch 4 that is mid-round, so
  // only the first whole round is replayed.
  constexpr std::size_t kKeep = 6;
  JournalLoadResult crashed = EvalJournal::load(full_journal);
  ASSERT_GT(crashed.records.size(), kKeep);
  crashed.records.resize(kKeep);
  Scenario again(batch, resumed_journal);
  {
    SCOPED_TRACE("resumed, batch " + std::to_string(batch));
    AttachedSink sink;
    const RunResult resumed = again.engine().resume(crashed.records);
    EXPECT_EQ(resumed.trace.size(), t.size());
    ASSERT_EQ(sink.named("optimizer.resume").size(), 1u);
    expect_events_match_trace(sink, resumed, again.options);
  }
  std::remove(full_journal.c_str());
  std::remove(resumed_journal.c_str());
}

TEST(ProgressEvents, CountsEqualTheTraceGetters_Batch1) { check_batch(1); }
TEST(ProgressEvents, CountsEqualTheTraceGetters_Batch4) { check_batch(4); }

}  // namespace
}  // namespace hp::core
