#pragma once
// RAII span timing keyed by run phase — the only way the program times
// itself. A ScopedTimer samples the steady clock only while the tracer is
// recording, so with tracing off a span costs one relaxed atomic load.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>

#include "obs/trace.hpp"

namespace hp::obs {

/// Times a scope as a trace span under the thread's current span; on
/// destruction the tracer records it into its ring and per-name totals.
/// Wall time is observability output only — it never feeds back into the
/// run (the virtual clock is charged from modelled costs, not from spans).
class ScopedTimer {
 public:
  /// @param name stable dotted phase name, e.g. "optimize.merge"; must be
  ///   a literal (not copied; the tracer ring stores the pointer).
  /// @param key deterministic discriminator for same-named sibling spans
  ///   (sample index, attempt number, round base) so span IDs are stable
  ///   across thread counts.
  explicit ScopedTimer(const char* name, std::uint64_t key = 0) noexcept
      : name_(name) {
    if (!tracer().enabled()) return;
    Live& live = live_.emplace();
    live.parent = tracer().current_context();
    live.id = tracer().begin_span(name, key, &live.child_s);
    live.start = std::chrono::steady_clock::now();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { stop(); }

  /// Attaches a typed annotation to the span (no-op while tracing is off).
  void trace_arg(TraceArg arg) noexcept {
    if (!live_ || live_->num_args >= kMaxTraceArgs) return;
    live_->args[live_->num_args++] = arg;
  }

  /// Records and disarms early (idempotent).
  void stop() noexcept {
    if (!live_) return;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      live_->start)
            .count();
    tracer().end_span(live_->id, live_->parent, name_, live_->start, elapsed,
                      live_->child_s.load(std::memory_order_relaxed),
                      live_->args, live_->num_args);
    live_.reset();
  }

 private:
  /// The state of a recording span. Constructed only when the tracer is
  /// on, so a dark span initializes nothing beyond the optional's flag.
  struct Live {
    std::uint64_t id = 0;
    SpanContext parent;
    /// Summed durations of this span's direct children, credited by them
    /// at their end — from pool threads too, hence atomic.
    std::atomic<double> child_s{0.0};
    std::uint8_t num_args = 0;
    TraceArg args[kMaxTraceArgs];
    std::chrono::steady_clock::time_point start;
  };

  const char* name_;
  std::optional<Live> live_;
};

}  // namespace hp::obs
