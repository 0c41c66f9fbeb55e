#pragma once
// In-memory span recording for the traced benchmark run.
//
// Spans are appended to a vector under a mutex and written out once, at
// exit, as Chrome trace-event JSON (Perfetto and tools/trace_summarize.py
// read it). Unlike the program's own sampling ring, no span of a kept
// search is ever dropped; only whole older searches are let go.
//
// SearchTracer turns the order of calls through the public seams into
// per-round spans. The Study drives one round at a time on the engine
// thread: proposals (ask), then execution, then one observe per told
// trial. So for each round:
//
//   proposer.ask    first propose call start .. last propose call end
//   engine.execute  last propose call end .. first observe call start
//   study.tell      first observe call start .. next round's first propose
//
// These three tile the search span; the decorators' own call spans
// (proposer.propose, objective.evaluate, proposer.observe) nest beneath
// them. Every span of a round carries the round id, the round's base
// sample index.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";
  std::int64_t start_ns = 0;  ///< relative to the recorder's epoch
  std::int64_t end_ns = 0;
  std::int64_t round = -1;  ///< base sample index; -1 outside rounds
  int tid = 0;
};

/// Thread-safe, append-only span store.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(SteadyClock::now()) {}

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - epoch_)
        .count();
  }
  [[nodiscard]] std::uint64_t new_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void add(const Span& span);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Drops every span older than the @p n most recent root spans, so a
  /// long traced run keeps a bounded trace. Searches run one after
  /// another, so a search's spans all start at or after its root.
  void keep_last_searches(std::size_t n);

  /// Writes every span as a Chrome trace-event "X" event; ids are hex
  /// strings in args.id/args.parent, as tools/trace_summarize.py expects.
  void write_chrome_json(const std::string& path) const;

 private:
  SteadyClock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Small stable per-thread number for the trace's tid field.
[[nodiscard]] int thread_number();

/// Derives the round spans of one search from the seam calls (see the
/// file comment). on_propose/on_observe are called from the engine
/// thread only; execute_parent()/round() may be read from pool threads.
class SearchTracer {
 public:
  explicit SearchTracer(SpanRecorder& recorder) : recorder_(recorder) {}

  SpanRecorder& recorder() { return recorder_; }

  void start();
  void finish();

  /// A propose call is starting at @p t; returns its parent (the round's
  /// proposer.ask span).
  std::uint64_t on_propose_begin(std::int64_t t);
  void on_propose_end(std::int64_t t);
  /// An observe call is starting at @p t; returns its parent (the round's
  /// study.tell span).
  std::uint64_t on_observe_begin(std::int64_t t);

  /// Parent for execution-side spans (objective calls).
  [[nodiscard]] std::uint64_t execute_parent() const {
    return execute_id_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::int64_t round() const {
    return round_.load(std::memory_order_acquire);
  }

 private:
  enum class Phase { kIdle, kAsk, kTell };

  void emit(std::uint64_t id, std::uint64_t parent, const char* name,
            std::int64_t start, std::int64_t end);
  void close_round(std::int64_t t);

  SpanRecorder& recorder_;
  Phase phase_ = Phase::kIdle;
  std::uint64_t search_id_ = 0;
  std::int64_t search_start_ = 0;
  std::uint64_t ask_id_ = 0;
  std::uint64_t tell_id_ = 0;
  std::atomic<std::uint64_t> execute_id_{0};
  std::atomic<std::int64_t> round_{-1};
  std::int64_t ask_start_ = 0;
  std::int64_t ask_end_ = 0;
  std::int64_t tell_start_ = 0;
  std::int64_t observed_ = 0;
};

}  // namespace perfbench
