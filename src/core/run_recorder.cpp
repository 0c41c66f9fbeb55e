#include "core/run_recorder.hpp"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/evaluation_engine.hpp"
#include "obs/obs.hpp"

namespace hp::core {

void RunRecorder::begin_run() {
  trace_ = RunTrace{};
  incumbent_.reset();
  consecutive_failures_ = 0;
}

void RunRecorder::observe_sample(EvaluationRecord& record) {
  record.index = trace_.size();
  if (record.counts_for_best() &&
      (!incumbent_ || record.test_error < incumbent_->test_error)) {
    incumbent_ = record;
  }
}

const EvaluationRecord& RunRecorder::commit(EvaluationRecord record,
                                            SampleMode mode) {
  const bool failed = record.status == EvaluationStatus::Failed;
  trace_.add(std::move(record));
  const EvaluationRecord& stored = trace_.records().back();
  if (mode == SampleMode::kLive) {
    // Replay must not re-trigger the consecutive-failure abort: the
    // original run already survived those samples.
    if (failed) {
      ++consecutive_failures_;
    } else {
      consecutive_failures_ = 0;
    }
    emit_sample_events(stored);
  }
  return stored;
}

void RunRecorder::emit_sample_events(const EvaluationRecord& record) const {
  obs::Logger& log = obs::logger();
  if (log.enabled(obs::LogLevel::kDebug)) {
    log.debug("optimizer.sample",
              {{"index", obs::JsonValue(record.index)},
               {"status", obs::JsonValue(to_string(record.status))},
               {"error", obs::JsonValue(record.test_error)},
               {"cost_s", obs::JsonValue(record.cost_s)},
               {"clock_s", obs::JsonValue(record.timestamp_s)},
               {"attempts", obs::JsonValue(record.attempts)},
               {"violates", obs::JsonValue(record.violates_constraints)}});
  }
  if (log.enabled(obs::LogLevel::kInfo)) {
    std::vector<obs::LogField> fields{
        {"samples", obs::JsonValue(trace_.size())},
        {"evals", obs::JsonValue(trace_.function_evaluations())},
        {"filtered", obs::JsonValue(trace_.model_filtered_count())},
        {"early_terminated", obs::JsonValue(trace_.early_terminated_count())},
        {"violations", obs::JsonValue(trace_.measured_violation_count())},
        {"clock_s", obs::JsonValue(record.timestamp_s)},
    };
    if (trace_.failed_count() > 0) {
      fields.push_back({"failed", obs::JsonValue(trace_.failed_count())});
    }
    if (incumbent_) {
      fields.push_back({"best_error", obs::JsonValue(incumbent_->test_error)});
    }
    if (options_.max_function_evaluations !=
        std::numeric_limits<std::size_t>::max()) {
      fields.push_back(
          {"max_evals", obs::JsonValue(options_.max_function_evaluations)});
    }
    if (std::isfinite(options_.max_runtime_s)) {
      fields.push_back(
          {"max_runtime_s", obs::JsonValue(options_.max_runtime_s)});
    }
    log.info("optimizer.progress", std::move(fields));
  }
}

}  // namespace hp::core
