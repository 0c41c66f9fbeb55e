// Thread-safety of the observability layer under ThreadPool concurrency —
// the suite the ThreadSanitizer phase of tools/run_tests.sh rebuilds.
// Workers log structured events, bump shared instruments, and time spans
// concurrently; totals must come out exact and TSan must stay silent.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

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

TEST(ObsConcurrencyTest, SharedInstrumentsCountExactly) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  Counter& hits = reg.counter("test.hits");
  Gauge& depth = reg.gauge("test.depth");
  Histogram& values = reg.histogram("test.values", {0.25, 0.5, 1.0});

  parallel::ThreadPool pool(7);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    hits.add(1);
    depth.add(1.0);
    depth.add(-1.0);
    values.observe(static_cast<double>(i % 4) / 4.0);
  });

  EXPECT_EQ(hits.value(), kTasks);
  EXPECT_EQ(depth.value(), 0.0);
  EXPECT_EQ(values.count(), kTasks);
  // i % 4 / 4 cycles 0, 0.25, 0.5, 0.75: 256 land in the first bucket
  // (<= 0.25), then 128 in (0.25, 0.5], 128 in (0.5, 1.0], 0 overflow.
  EXPECT_EQ(values.bucket_counts(),
            (std::vector<std::uint64_t>{256, 128, 128, 0}));
  EXPECT_EQ(values.min(), 0.0);
  EXPECT_EQ(values.max(), 0.75);
}

TEST(ObsConcurrencyTest, RegistryLookupsRaceSafely) {
  // Fetch-or-create from many workers: everyone must get the same
  // instrument, and the total must be exact.
  MetricsRegistry reg;
  parallel::ThreadPool pool(7);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    reg.counter("shared." + std::to_string(i % 8)).add(1);
  });
  std::uint64_t total = 0;
  for (int k = 0; k < 8; ++k) {
    total += reg.counter("shared." + std::to_string(k)).value();
  }
  EXPECT_EQ(total, kTasks);
}

TEST(ObsConcurrencyTest, ScopedTimersRecordFromWorkers) {
  // ScopedTimer reads the global tracer() enable flag; leave it untouched
  // (disabled) and drive the histogram directly through a registry-enabled
  // path to keep this test hermetic.
  MetricsRegistry reg;
  reg.set_enabled(true);
  Histogram& spans = reg.histogram("test.span_s", duration_buckets());

  parallel::ThreadPool pool(7);
  pool.parallel_for(kTasks, [&](std::size_t) {
    // The global tracer is disabled, so the timer itself stays dark;
    // this mirrors how instrumented layers behave with obs off while the
    // local registry records the span length.
    ScopedTimer dark("test.noop");
    spans.observe(1e-6);
  });

  EXPECT_EQ(spans.count(), kTasks);
}

}  // namespace
}  // namespace hp::obs
