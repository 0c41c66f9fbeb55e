// Thread-safety of the observability layer under ThreadPool concurrency —
// the suite the ThreadSanitizer phase of tools/run_tests.sh rebuilds.
// Workers log structured events and time spans concurrently; totals must
// come out exact and TSan must stay silent.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace hp::obs {
namespace {

constexpr std::size_t kTasks = 512;

/// Counts events and checksums their payloads (no storage, no locks).
class CountingSink final : public LogSink {
 public:
  void write(const LogEvent& event) override {
    events_.fetch_add(1, std::memory_order_relaxed);
    for (const LogField& f : event.fields) {
      payload_.fetch_add(
          static_cast<std::uint64_t>(f.value.number_or(0.0)),
          std::memory_order_relaxed);
    }
  }
  [[nodiscard]] std::uint64_t events() const noexcept {
    return events_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t payload() const noexcept {
    return payload_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> payload_{0};
};

TEST(ObsConcurrencyTest, WorkersLogThroughSharedLoggerWithoutLoss) {
  Logger lg;
  auto sink = std::make_shared<CountingSink>();
  lg.add_sink(sink, LogLevel::kTrace);

  parallel::ThreadPool pool(7);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    lg.debug("worker.event", {{"index", JsonValue(static_cast<long long>(i))},
                              {"one", JsonValue(1)}});
  });

  EXPECT_EQ(sink->events(), kTasks);
  EXPECT_EQ(sink->payload(), kTasks * (kTasks - 1) / 2 + kTasks);
}

TEST(ObsConcurrencyTest, SinkRegistrationRacesWithLogging) {
  // add_sink/remove_sink while workers log: no crash, no TSan report, and
  // the permanently attached sink still sees every event.
  Logger lg;
  auto stable = std::make_shared<CountingSink>();
  lg.add_sink(stable, LogLevel::kTrace);

  parallel::ThreadPool pool(7);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    if (i % 16 == 0) {
      auto transient = std::make_shared<CountingSink>();
      lg.add_sink(transient, LogLevel::kTrace);
      lg.remove_sink(transient);
    }
    lg.info("worker.event");
  });

  EXPECT_EQ(stable->events(), kTasks);
}

TEST(ObsConcurrencyTest, ScopedTimersRecordFromWorkers) {
  // ScopedTimer reads the global tracer() enable flag; leave it untouched
  // (disabled) to keep this test hermetic: dark timers opened and closed
  // on every worker must neither race nor drop a body.
  std::atomic<std::size_t> bodies{0};

  parallel::ThreadPool pool(7);
  pool.parallel_for(kTasks, [&](std::size_t) {
    ScopedTimer dark("test.noop");
    bodies.fetch_add(1, std::memory_order_relaxed);
  });

  EXPECT_EQ(bodies.load(std::memory_order_relaxed), kTasks);
}

}  // namespace
}  // namespace hp::obs
