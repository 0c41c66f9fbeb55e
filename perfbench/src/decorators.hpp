#pragma once
// Thin timing decorators over the public seams an in-process search calls
// through: core::Proposer and core::Objective. Each forwards every call
// unchanged and records one span per call into the search's SearchTracer.
// Used only in the traced run; the untraced run hands the engine the
// undecorated objects.

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/objective.hpp"
#include "core/proposer.hpp"
#include "span_recorder.hpp"

namespace perfbench {

class TracedProposer final : public hp::core::Proposer {
 public:
  TracedProposer(const hp::core::HyperParameterSpace& space,
                 hp::core::Proposer& inner, SearchTracer& tracer)
      : Proposer(space), inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void begin_run(const hp::core::ProposerRunContext& context) override {
    Proposer::begin_run(context);
    inner_.begin_run(context);
  }
  [[nodiscard]] hp::core::Configuration propose(
      hp::stats::Rng& rng) override {
    return timed_propose([&] { return inner_.propose(rng); });
  }
  [[nodiscard]] bool supports_parallel_proposals() const override {
    return inner_.supports_parallel_proposals();
  }
  [[nodiscard]] std::vector<hp::core::Configuration> propose_batch(
      std::size_t first_sample_index, std::size_t count) override {
    return timed_propose(
        [&] { return inner_.propose_batch(first_sample_index, count); });
  }
  void observe(const hp::core::EvaluationRecord& record) override {
    SpanRecorder& rec = tracer_.recorder();
    const std::int64_t t0 = rec.now_ns();
    const std::uint64_t parent = tracer_.on_observe_begin(t0);
    inner_.observe(record);
    rec.add(Span{rec.new_id(), parent, "proposer.observe", t0, rec.now_ns(),
                 tracer_.round(), thread_number()});
  }
  [[nodiscard]] double proposal_overhead_s() const override {
    return inner_.proposal_overhead_s();
  }
  [[nodiscard]] bool exhausted() const override { return inner_.exhausted(); }

 private:
  template <typename Call>
  std::invoke_result_t<Call> timed_propose(Call&& call) {
    SpanRecorder& rec = tracer_.recorder();
    const std::int64_t t0 = rec.now_ns();
    const std::uint64_t parent = tracer_.on_propose_begin(t0);
    auto result = call();
    const std::int64_t t1 = rec.now_ns();
    tracer_.on_propose_end(t1);
    rec.add(Span{rec.new_id(), parent, "proposer.propose", t0, t1,
                 tracer_.round(), thread_number()});
    return result;
  }

  hp::core::Proposer& inner_;
  SearchTracer& tracer_;
};

class TracedObjective final : public hp::core::Objective {
 public:
  TracedObjective(hp::core::Objective& inner, SearchTracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] hp::core::EvaluationRecord evaluate(
      const hp::core::Configuration& config,
      const hp::core::EarlyTerminationRule* rule) override {
    return timed([&] { return inner_.evaluate(config, rule); });
  }
  [[nodiscard]] bool supports_concurrent_evaluation() const noexcept override {
    return inner_.supports_concurrent_evaluation();
  }
  [[nodiscard]] hp::core::EvaluationRecord evaluate_detached(
      const hp::core::Configuration& config,
      const hp::core::EarlyTerminationRule* rule) override {
    return timed([&] { return inner_.evaluate_detached(config, rule); });
  }
  [[nodiscard]] hp::core::Clock& clock() override { return inner_.clock(); }

 private:
  template <typename Call>
  hp::core::EvaluationRecord timed(Call&& call) {
    SpanRecorder& rec = tracer_.recorder();
    const std::uint64_t parent = tracer_.execute_parent();
    const std::int64_t round = tracer_.round();
    const std::int64_t t0 = rec.now_ns();
    hp::core::EvaluationRecord record = call();
    rec.add(Span{rec.new_id(), parent, "objective.evaluate", t0, rec.now_ns(),
                 round, thread_number()});
    return record;
  }

  hp::core::Objective& inner_;
  SearchTracer& tracer_;
};

}  // namespace perfbench
