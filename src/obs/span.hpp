#pragma once
// RAII span timing keyed by run phase — the only way the program times
// itself. A ScopedTimer samples the steady clock only while the tracer is
// recording, so with tracing off a span costs one relaxed atomic load.

#include <atomic>
#include <chrono>
#include <cstdint>

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
      : name_(name), on_(tracer().enabled()) {
    if (!on_) return;
    parent_ = tracer().current_context();
    id_ = tracer().begin_span(name, key, &child_s_);
    start_ = std::chrono::steady_clock::now();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { stop(); }

  /// Attaches a typed annotation to the span (no-op while tracing is off).
  void trace_arg(TraceArg arg) noexcept {
    if (!on_ || num_args_ >= kMaxTraceArgs) return;
    args_[num_args_++] = arg;
  }

  /// Records and disarms early (idempotent).
  void stop() noexcept {
    if (!on_) return;
    on_ = false;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    tracer().end_span(id_, parent_, name_, start_, elapsed,
                      child_s_.load(std::memory_order_relaxed), args_,
                      num_args_);
  }

 private:
  const char* name_;
  bool on_;
  std::uint64_t id_ = 0;
  SpanContext parent_;
  /// Summed durations of this span's direct children, credited by them at
  /// their end — from pool threads too, hence atomic.
  std::atomic<double> child_s_{0.0};
  std::uint8_t num_args_ = 0;
  TraceArg args_[kMaxTraceArgs];
  std::chrono::steady_clock::time_point start_;
};

}  // namespace hp::obs
