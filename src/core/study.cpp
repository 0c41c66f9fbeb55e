#include "core/study.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/proposer.hpp"
#include "obs/obs.hpp"

namespace hp::core {

const char* to_string(TrialState state) noexcept {
  switch (state) {
    case TrialState::kProposed:
      return "proposed";
    case TrialState::kPending:
      return "pending";
    case TrialState::kReported:
      return "reported";
    case TrialState::kFailed:
      return "failed";
    case TrialState::kDropped:
      return "dropped";
  }
  return "unknown";
}

Study::Study(const HyperParameterSpace& space, ConstraintBudgets budgets,
             const HardwareConstraints* apriori_constraints,
             const OptimizerOptions& options, Proposer& proposer, Clock& clock)
    : space_(space),
      budgets_(budgets),
      apriori_constraints_(apriori_constraints),
      options_(options),
      proposer_(proposer),
      clock_(clock),
      recorder_(options_) {}

const HardwareConstraints* Study::active_constraints() const noexcept {
  return options_.use_hardware_models ? apriori_constraints_ : nullptr;
}

void Study::begin() { start_run(nullptr); }

void Study::resume(const std::vector<EvaluationRecord>& completed) {
  start_run(&completed);
}

void Study::start_run(const std::vector<EvaluationRecord>* replay) {
  recorder_.begin_run();
  pending_.clear();
  asked_ = reported_ = failed_ = dropped_ = 0;
  stopped_ = aborted_ = false;
  abort_reason_.clear();

  ProposerRunContext context;
  context.budgets = &budgets_;
  context.active_constraints = active_constraints();
  context.incumbent = &recorder_.incumbent();
  context.seed = options_.seed;
  proposer_.begin_run(context);

  obs::Logger& log = obs::logger();
  if (log.enabled(obs::LogLevel::kInfo)) {
    log.info("optimizer.run",
             {{"method", obs::JsonValue(proposer_.name())},
              {"mode", obs::JsonValue(options_.batch_size > 1
                                          ? std::string("batched")
                                          : std::string("sequential"))},
              {"seed", obs::JsonValue(options_.seed)},
              {"batch_size", obs::JsonValue(options_.batch_size)},
              {"num_threads", obs::JsonValue(options_.num_threads)},
              {"resumed", obs::JsonValue(replay != nullptr)}});
  }

  // Batched mode replays only whole rounds: round r's proposals (and the
  // constant-liar surrogate state behind them) are a function of rounds
  // 0..r-1, so a partial round cannot be re-aligned — it is dropped and
  // re-evaluated instead (index-pure evaluations make the records come
  // out identical).
  std::vector<EvaluationRecord> kept;
  if (replay != nullptr) {
    kept = *replay;
    if (options_.batch_size > 1) {
      kept.resize(kept.size() / options_.batch_size * options_.batch_size);
    }
  }

  journal_ = EvalJournal{};
  if (!options_.journal_path.empty()) {
    const JournalHeader header{proposer_.name(), options_.seed,
                               options_.batch_size};
    journal_ = replay != nullptr
                   ? EvalJournal::rewrite(options_.journal_path, header, kept)
                   : EvalJournal::create(options_.journal_path, header);
  }

  shared_rng_ = stats::Rng(options_.seed);
  if (!kept.empty()) {
    replay_records(kept);
    log.info("optimizer.resume",
             {{"replayed", obs::JsonValue(kept.size())},
              {"dropped", obs::JsonValue(replay->size() - kept.size())},
              {"clock_s", obs::JsonValue(clock_.now_s())}});
  }
  next_sample_ = recorder_.trace().size();
}

void Study::replay_one(const EvaluationRecord& record) {
  if (record.index != recorder_.trace().size()) {
    throw std::runtime_error(
        "resume: journal records are not a contiguous prefix (record index " +
        std::to_string(record.index) + " at position " +
        std::to_string(recorder_.trace().size()) + ")");
  }
  const double delta = record.timestamp_s - clock_.now_s();
  if (delta > 0.0) clock_.advance(delta);
  EvaluationRecord copy = record;
  recorder_.observe_sample(copy);
  proposer_.observe(
      recorder_.commit(std::move(copy), RunRecorder::SampleMode::kReplay));
}

void Study::replay_records(const std::vector<EvaluationRecord>& kept) {
  const auto mismatch = [](std::size_t index) {
    throw std::runtime_error(
        "resume: replayed proposal diverges from the journal at sample " +
        std::to_string(index) +
        " (journal written with different seed/method/options?)");
  };
  if (options_.batch_size == 1) {
    // The sequential loop consumes one propose() per record from a single
    // shared stream; re-proposing (and discarding) advances the stream and
    // any strategy-internal proposal state exactly as the original run
    // did.
    for (const EvaluationRecord& record : kept) {
      if (proposer_.propose(shared_rng_) != record.config) {
        mismatch(record.index);
      }
      replay_one(record);
    }
    return;
  }
  std::size_t base = 0;
  while (base < kept.size()) {
    const std::size_t count =
        std::min(options_.batch_size, kept.size() - base);
    if (!proposer_.supports_parallel_proposals()) {
      // Sequential proposal state (the constant-liar surrogate, the grid
      // cursor) must be re-advanced; re-running the batch keeps it aligned
      // with the original run.
      const std::vector<Configuration> proposals =
          proposer_.propose_batch(base, count);
      for (std::size_t j = 0; j < count; ++j) {
        if (j >= proposals.size() || proposals[j] != kept[base + j].config) {
          mismatch(base + j);
        }
      }
    }
    // Parallel proposals only *read* shared state (per-sample streams),
    // so they need no replay; finalize order is all that matters.
    for (std::size_t j = 0; j < count; ++j) {
      replay_one(kept[base + j]);
    }
    base += count;
  }
}

std::vector<Trial> Study::ask(std::size_t k) {
  if (!pending_.empty()) {
    throw std::logic_error(
        "Study::ask: previous batch still pending (" +
        std::to_string(pending_.size()) +
        " trials owe a begin_trial/tell) — one round in flight at a time");
  }
  if (k == 0 || finished()) return {};
  const std::size_t round_base = next_sample_;
  std::size_t count = std::min(k, options_.max_samples - round_base);
  const bool batched = options_.batch_size > 1;

  // Sequential mode draws its one candidate from the run's shared stream;
  // strategies with sequential proposal state (constant-liar BO, the grid
  // cursor) produce the whole round up front; parallel-proposal strategies
  // draw each sample from its own (seed, sample-index) stream. All of
  // these only read round-constant shared state, so materializing here on
  // the asking thread is bit-identical to any execution-side ordering.
  std::vector<Configuration> proposals;
  {
    std::optional<obs::ScopedTimer> timer;
    if (!batched || !proposer_.supports_parallel_proposals()) {
      timer.emplace("optimize.propose", round_base);
    }
    if (!batched) {
      proposals.push_back(proposer_.propose(shared_rng_));
    } else if (!proposer_.supports_parallel_proposals()) {
      proposals = proposer_.propose_batch(round_base, count);
      // A finite strategy may run out mid-batch: truncate the round to the
      // proposals actually produced instead of padding with repeats.
      if (proposals.size() < count) count = proposals.size();
    } else {
      proposals.reserve(count);
      for (std::size_t j = 0; j < count; ++j) {
        stats::Rng rng(stats::stream_seed(options_.seed, round_base + j));
        proposals.push_back(proposer_.propose(rng));
      }
    }
  }
  if (count == 0) {
    stopped_ = true;
    return {};
  }

  const HardwareConstraints* filter =
      options_.filter_before_training ? active_constraints() : nullptr;
  std::vector<Trial> trials;
  trials.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    Trial trial;
    trial.sample_index = round_base + j;
    Configuration config = std::move(proposals[j]);
    if (filter != nullptr &&
        !filter->predicted_feasible(space_.structural_vector(config))) {
      trial.requires_evaluation = false;
      trial.resolved.config = config;
      trial.resolved.status = EvaluationStatus::ModelFiltered;
      trial.resolved.test_error = 1.0;
      trial.resolved.violates_constraints = true;  // violating *by prediction*
      trial.resolved.cost_s = options_.model_filter_overhead_s;
    }
    pending_.push_back(PendingTrial{trial.sample_index, config,
                                    TrialState::kProposed});
    trial.config = std::move(config);
    trials.push_back(std::move(trial));
  }
  next_sample_ = round_base + count;
  asked_ += count;
  return trials;
}

bool Study::begin_trial(std::size_t sample_index) {
  if (pending_.empty() || pending_.front().sample_index != sample_index) {
    throw std::logic_error(
        "Study::begin_trial: trials must begin in ask order (got sample " +
        std::to_string(sample_index) + ")");
  }
  // A round crossing a budget discards its tail, so the trace never
  // depends on batch scheduling; an aborted study likewise stops booking.
  if (stopped_ || aborted_ ||
      recorder_.trace().function_evaluations() >=
          options_.max_function_evaluations ||
      clock_.now_s() >= options_.max_runtime_s) {
    dropped_ += pending_.size();
    pending_.clear();
    stopped_ = true;
    return false;
  }
  pending_.front().state = TrialState::kPending;
  clock_.advance(proposer_.proposal_overhead_s());
  return true;
}

void Study::tell(TrialResult result) {
  if (pending_.empty() || pending_.front().sample_index != result.sample_index) {
    throw std::logic_error(
        "Study::tell: results must arrive in ask order (got sample " +
        std::to_string(result.sample_index) + ")");
  }
  if (pending_.front().state != TrialState::kPending) {
    throw std::logic_error(
        "Study::tell: trial " + std::to_string(result.sample_index) +
        " was not begun (call begin_trial first)");
  }
  PendingTrial front = std::move(pending_.front());
  pending_.pop_front();

  EvaluationRecord record = std::move(result.record);
  // Re-stamp the configuration from the study's own proposal copy:
  // results, not configurations, are what must survive execution (and the
  // fleet's wire).
  record.config = std::move(front.config);
  if (!result.cost_on_clock) clock_.advance(record.cost_s);
  const bool failed = record.status == EvaluationStatus::Failed;
  book(record);
  if (failed) {
    ++failed_;
  } else {
    ++reported_;
  }
  check_abort();
}

void Study::book(EvaluationRecord& record) {
  obs::ScopedTimer finalize_span("optimizer.sample.finalize",
                                 recorder_.trace().size());
  // Classify against the *measured* metrics (both modes measure after
  // training; the default mode just could not avoid the cost).
  if (record.status == EvaluationStatus::Completed ||
      record.status == EvaluationStatus::EarlyTerminated) {
    if (apriori_constraints_ != nullptr) {
      record.violates_constraints = !apriori_constraints_->measured_feasible(
          record.measured_power_w, record.measured_memory_mb);
    } else {
      HardwareConstraints plain(budgets_, std::nullopt, std::nullopt);
      record.violates_constraints = !plain.measured_feasible(
          record.measured_power_w, record.measured_memory_mb);
    }
  }
  record.timestamp_s = clock_.now_s();
  recorder_.observe_sample(record);
  const EvaluationRecord& stored =
      recorder_.commit(std::move(record), RunRecorder::SampleMode::kLive);
  proposer_.observe(stored);
  // Journal after the record is final (index/timestamp/classification
  // set): the journal's crash-safety contract is "what it holds can be
  // replayed verbatim".
  journal_.append(stored);
}

void Study::check_abort() {
  const std::size_t limit = options_.retry.max_consecutive_failed_samples;
  const std::size_t failures = recorder_.consecutive_failures();
  if (limit == 0 || failures < limit) return;
  aborted_ = true;
  abort_reason_ = "aborted after " + std::to_string(failures) +
                  " consecutive failed evaluations";
  obs::logger().error(
      "optimizer.aborted",
      {{"consecutive_failures", obs::JsonValue(failures)},
       {"samples", obs::JsonValue(recorder_.trace().size())}});
  if (obs::flight_recorder().enabled()) {
    obs::flight_recorder().dump_to_stderr("consecutive-failure abort");
  }
}

bool Study::finished() const {
  if (stopped_ || aborted_) return true;
  if (next_sample_ >= options_.max_samples) return true;
  if (recorder_.trace().function_evaluations() >=
      options_.max_function_evaluations) {
    return true;
  }
  if (clock_.now_s() >= options_.max_runtime_s) return true;
  return proposer_.exhausted();
}

StudySnapshot Study::snapshot() const {
  StudySnapshot snap;
  snap.asked = asked_;
  snap.pending = pending_.size();
  snap.reported = reported_;
  snap.failed = failed_;
  snap.dropped = dropped_;
  snap.samples = recorder_.trace().size();
  snap.function_evaluations = recorder_.trace().function_evaluations();
  snap.clock_s = clock_.now_s();
  snap.best = recorder_.incumbent();
  snap.finished = finished();
  snap.aborted = aborted_;
  snap.abort_reason = abort_reason_;
  return snap;
}

RunResult Study::finish() {
  // A driver that broke out mid-round (abort) leaves its tail pending;
  // those trials were never booked and never will be.
  dropped_ += pending_.size();
  pending_.clear();

  RunResult result;
  result.aborted = aborted_;
  result.abort_reason = abort_reason_;
  result.best = recorder_.incumbent();
  journal_.finalize(aborted_ ? "aborted" : "completed",
                    recorder_.trace().size());
  result.trace = recorder_.take_trace();

  obs::Logger& log = obs::logger();
  if (log.enabled(obs::LogLevel::kInfo)) {
    const RunTrace& trace = result.trace;
    std::vector<obs::LogField> fields{
        {"method", obs::JsonValue(proposer_.name())},
        {"samples", obs::JsonValue(trace.size())},
        {"completed", obs::JsonValue(trace.completed_count())},
        {"model_filtered", obs::JsonValue(trace.model_filtered_count())},
        {"early_terminated", obs::JsonValue(trace.early_terminated_count())},
        {"infeasible", obs::JsonValue(trace.infeasible_count())},
        {"failed", obs::JsonValue(trace.failed_count())},
        {"retries", obs::JsonValue(trace.total_retries())},
        {"fallbacks", obs::JsonValue(trace.fallback_count())},
        {"measured_violations",
         obs::JsonValue(trace.measured_violation_count())},
        {"aborted", obs::JsonValue(result.aborted)},
        {"clock_s", obs::JsonValue(clock_.now_s())},
    };
    if (result.best) {
      fields.push_back({"best_error", obs::JsonValue(result.best->test_error)});
    }
    log.info("optimizer.done", std::move(fields));
  }
  journal_ = EvalJournal{};  // close the file
  return result;
}

std::vector<RoundJob> jobs_from_trials(const std::vector<Trial>& trials) {
  std::vector<RoundJob> jobs;
  for (const Trial& trial : trials) {
    if (trial.requires_evaluation) {
      jobs.push_back(RoundJob{trial.sample_index, trial.config});
    }
  }
  return jobs;
}

}  // namespace hp::core
