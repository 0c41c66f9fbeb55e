#pragma once
// Recording layer of the evaluation pipeline (DESIGN.md §12): owns
// everything a finished sample updates — the trace (which keeps the run's
// counts), the incumbent, the consecutive-failure streak — and emits the
// per-sample observability events ("optimizer.sample" debug records and
// "optimizer.progress" info lines, whose counts are the trace's). It
// performs no optimization logic and touches neither the clock nor the
// journal: Study::tell stamps records (timestamp, constraint
// classification) and journals them after commit; the recorder just keeps
// the books. Only the Study calls the mutating entry points (lint rule
// `study-ask-tell`, DESIGN.md §16) — drivers read run state through
// Study::snapshot.
//
// Replay (journal resume) uses the same entry points with
// SampleMode::kReplay, which keeps the trace and incumbent exactly right
// while skipping the per-sample events and the failure streak — a
// replayed Failed sample must not re-trigger the consecutive-failure
// abort the original run already survived.

#include <cstddef>
#include <optional>
#include <utility>

#include "core/run_trace.hpp"

namespace hp::core {

struct OptimizerOptions;

/// Trace + incumbent bookkeeping for one run at a time.
class RunRecorder {
 public:
  /// @param options the run options (progress-event budget fields and the
  ///        consecutive-failure limit); must outlive the recorder.
  explicit RunRecorder(const OptimizerOptions& options) : options_(options) {}

  RunRecorder(const RunRecorder&) = delete;
  RunRecorder& operator=(const RunRecorder&) = delete;

  /// Whether a sample is being evaluated live or replayed from a journal.
  enum class SampleMode { kLive, kReplay };

  /// Resets all state for a fresh run/resume.
  void begin_run();

  /// Stamps record.index and updates the incumbent. Followed by commit().
  void observe_sample(EvaluationRecord& record);

  /// Appends the sample to the trace (which counts it) and — live only —
  /// advances the consecutive-failure streak and emits the per-sample log
  /// events, so their counts include this sample. The Study calls this
  /// before the proposer observes the record, matching the event order of
  /// the original per-method search loops. Returns the stored record
  /// (stable until the next commit) so the Study can hand the proposer and
  /// the journal exactly what the trace holds.
  const EvaluationRecord& commit(EvaluationRecord record, SampleMode mode);

  [[nodiscard]] const RunTrace& trace() const noexcept { return trace_; }
  /// The trace is surrendered to the run result when the loop ends; the
  /// recorder is left with an empty one.
  [[nodiscard]] RunTrace take_trace() noexcept {
    return std::exchange(trace_, RunTrace{});
  }

  /// Best feasible record so far. The reference is stable across the
  /// recorder's lifetime (proposers hold it through ProposerRunContext).
  [[nodiscard]] const std::optional<EvaluationRecord>& incumbent()
      const noexcept {
    return incumbent_;
  }
  [[nodiscard]] std::size_t consecutive_failures() const noexcept {
    return consecutive_failures_;
  }

 private:
  /// Live-only observability tail: the "optimizer.sample" /
  /// "optimizer.progress" events of the just-committed @p record.
  void emit_sample_events(const EvaluationRecord& record) const;

  const OptimizerOptions& options_;
  RunTrace trace_;
  std::optional<EvaluationRecord> incumbent_;
  std::size_t consecutive_failures_ = 0;
};

}  // namespace hp::core
