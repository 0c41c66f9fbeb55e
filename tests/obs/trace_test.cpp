// Unit tests for the span tracer and flight recorder (src/obs/trace.hpp):
// stable span-id derivation, current-span context restoration, ring
// wrap/truncation accounting, Chrome-trace JSON escaping (same hostile
// strings as the JSONL sink fixtures in log_test.cpp), flight-recorder
// dumps on an injected ContractViolation, and the per-name phase totals.

#include "obs/trace.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "obs/span.hpp"

namespace hp::obs {
namespace {

/// Starts the process-wide tracer for one test and tears it back down so
/// later tests (and the rest of the binary) see it disabled and empty.
class TracerOn {
 public:
  explicit TracerOn(TraceConfig config = {}) { tracer().start(config); }
  ~TracerOn() {
    tracer().stop();
    tracer().reset();
    flight_recorder().reset();
  }

  TracerOn(const TracerOn&) = delete;
  TracerOn& operator=(const TracerOn&) = delete;
};

/// Closes a span opened with begin_span() under @p parent, zero-length.
void end_span(std::uint64_t id, std::uint64_t parent, const char* name) {
  tracer().end_span(id, {parent, nullptr}, name,
                    std::chrono::steady_clock::now(), /*dur_s=*/0.0,
                    /*children_s=*/0.0, nullptr, 0);
}

/// Opens and immediately closes a span, returning its id.
std::uint64_t record_span(const char* name, std::uint64_t key) {
  const std::uint64_t parent = tracer().current_context().id;
  const std::uint64_t id = tracer().begin_span(name, key, nullptr);
  end_span(id, parent, name);
  return id;
}

/// A span of a fixed, caller-chosen duration whose children credit it
/// like a ScopedTimer's do — for exact self-time arithmetic in tests.
class SyntheticSpan {
 public:
  SyntheticSpan(const char* name, std::uint64_t key, double dur_s)
      : name_(name),
        dur_s_(dur_s),
        parent_(tracer().current_context()),
        id_(tracer().begin_span(name, key, &child_s_)) {}
  ~SyntheticSpan() {
    tracer().end_span(id_, parent_, name_, std::chrono::steady_clock::now(),
                      dur_s_, child_s_.load(), nullptr, 0);
  }

  SyntheticSpan(const SyntheticSpan&) = delete;
  SyntheticSpan& operator=(const SyntheticSpan&) = delete;

 private:
  const char* name_;
  double dur_s_;
  std::atomic<double> child_s_{0.0};
  SpanContext parent_;
  std::uint64_t id_;
};

TEST(TraceIdTest, IdsAreStableAcrossRestartsAndDistinctPerPosition) {
  std::uint64_t first_a = 0;
  std::uint64_t first_b = 0;
  std::uint64_t first_child = 0;
  {
    TracerOn on;
    first_a = record_span("phase.a", 1);
    first_b = record_span("phase.a", 2);
    const std::uint64_t outer = tracer().begin_span("phase.outer", 0, nullptr);
    first_child = record_span("phase.a", 1);
    end_span(outer, 0, "phase.outer");
  }
  // Same (parent, name, key) => same id; any coordinate change => new id.
  EXPECT_NE(first_a, 0u);
  EXPECT_NE(first_a, first_b);
  EXPECT_NE(first_a, first_child);
  {
    TracerOn on;
    EXPECT_EQ(record_span("phase.a", 1), first_a);
    EXPECT_EQ(record_span("phase.a", 2), first_b);
    EXPECT_NE(record_span("phase.b", 1), first_a);
  }
}

TEST(TraceIdTest, BeginSpanMakesSpanCurrentAndEndSpanRestoresParent) {
  TracerOn on;
  EXPECT_EQ(tracer().current_context().id, 0u);
  const std::uint64_t outer = tracer().begin_span("phase.outer", 0, nullptr);
  EXPECT_EQ(tracer().current_context().id, outer);
  const std::uint64_t inner = tracer().begin_span("phase.inner", 0, nullptr);
  EXPECT_EQ(tracer().current_context().id, inner);
  end_span(inner, outer, "phase.inner");
  EXPECT_EQ(tracer().current_context().id, outer);
  end_span(outer, 0, "phase.outer");
  EXPECT_EQ(tracer().current_context().id, 0u);
}

TEST(TraceIdTest, ScopedParentExchangesAndRestoresContext) {
  TracerOn on;
  const std::uint64_t outer = tracer().begin_span("phase.outer", 0, nullptr);
  {
    const ScopedParent adopted({1234, nullptr});
    EXPECT_EQ(tracer().current_context().id, 1234u);
  }
  EXPECT_EQ(tracer().current_context().id, outer);
  end_span(outer, 0, "phase.outer");
}

TEST(ScopedTimerTest, NestedTimersRecordParentLinkedSpans) {
  TracerOn on;
  {
    ScopedTimer outer("test.outer");
    {
      ScopedTimer inner("test.inner", 7);
      inner.trace_arg({"sample", 7});
    }
  }
  const std::vector<TraceEventView> events = tracer().snapshot();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const TraceEventView& v : events) {
    if (std::string(v.event.name) == "test.outer") outer = &v.event;
    if (std::string(v.event.name) == "test.inner") inner = &v.event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  ASSERT_EQ(inner->num_args, 1u);
  EXPECT_STREQ(inner->args[0].key, "sample");
  EXPECT_EQ(inner->args[0].u, 7u);
}

TEST(ScopedTimerTest, DisabledTracerRecordsNothing) {
  tracer().stop();
  tracer().reset();
  {
    ScopedTimer timer("test.disabled");
    timer.trace_arg({"sample", 1});
  }
  EXPECT_EQ(tracer().current_context().id, 0u);
  EXPECT_TRUE(tracer().snapshot().empty());
  EXPECT_EQ(tracer().dropped_events(), 0u);
}

TEST(TraceRingTest, WrappingKeepsNewestEventsAndCountsDropped) {
  TraceConfig config;
  config.ring_kb = 0;  // rounds down to the 4-event minimum capacity
  TracerOn on(config);
  for (std::uint64_t i = 0; i < 10; ++i) record_span("test.wrap", i);
  const std::vector<TraceEventView> events = tracer().snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(tracer().dropped_events(), 6u);
  // Oldest-first within the ring: the four newest keys survive, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].event.id, record_span("test.wrap", 6 + i));
  }
}

TEST(TraceExportTest, ChromeTraceEscapesHostileStringsLikeTheJsonlSink) {
  TracerOn on;
  // Same fixture family as JsonEscapeTest in log_test.cpp. Names and arg
  // strings must have static storage (the ring keeps pointers).
  static constexpr char kHostile[] = "a\"b\\c\nd\te\rf\bg\fh\x01z";
  {
    ScopedTimer timer("test.escape");
    timer.trace_arg({"detail", static_cast<const char*>(kHostile)});
    timer.trace_arg({"ratio", 0.5});
  }
  tracer().instant("test.instant", {{"attempt", 3}});
  std::ostringstream os;
  tracer().write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(
      json.find("a\\\"b\\\\c\\nd\\te\\rf\\bg\\fh\\u0001z"),
      std::string::npos);
  // Raw control characters must never reach the output.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  // Span ids export as 16-hex-digit strings, never as JSON numbers.
  EXPECT_NE(json.find("\"id\":\"0x"), std::string::npos);
}

TEST(FlightRecorderTest, DumpsRecentEventsOnInjectedContractViolation) {
  FlightRecorder& flight = flight_recorder();
  flight.arm(16);
  std::string caught;
  try {
    const TraceArg args[] = {{"sample", 11}, {"attempt", 2}};
    flight.record("eval.failed", /*instant=*/true, /*t_s=*/1.5, args, 2);
    throw core::ContractViolation(core::ContractViolation::Kind::kAssert,
                                  "injected", __FILE__, __LINE__,
                                  "trace_test fixture");
  } catch (const core::ContractViolation& e) {
    caught = e.what();
    std::ostringstream os;
    flight.dump(os, "contract violation");
    const std::string text = os.str();
    EXPECT_NE(text.find("flight recorder dump (contract violation)"),
              std::string::npos);
    EXPECT_NE(text.find("1 events recorded, last 1 shown"),
              std::string::npos);
    EXPECT_NE(text.find("+1500000us I eval.failed sample=11 attempt=2"),
              std::string::npos);
  }
  EXPECT_NE(caught.find("injected"), std::string::npos);
  flight.reset();
  EXPECT_FALSE(flight.enabled());
}

TEST(FlightRecorderTest, RingWrapKeepsNewestAndDumpFdMatchesDump) {
  FlightRecorder& flight = flight_recorder();
  flight.arm(16);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const TraceArg args[] = {{"attempt", i}};
    flight.record("eval.retry", true, static_cast<double>(i), args, 1);
  }
  EXPECT_EQ(flight.recorded(), 20u);
  std::ostringstream os;
  flight.dump(os, "wrap");
  const std::string text = os.str();
  EXPECT_NE(text.find("20 events recorded, last 16 shown"),
            std::string::npos);
  EXPECT_EQ(text.find("attempt=3"), std::string::npos);  // overwritten
  EXPECT_NE(text.find("attempt=4"), std::string::npos);  // oldest survivor
  EXPECT_NE(text.find("attempt=19"), std::string::npos);

  // dump_fd is the async-signal-safe twin: identical decode via write().
  char path[] = "/tmp/hp_flight_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  flight.dump_fd(fd, "wrap");
  ::lseek(fd, 0, SEEK_SET);
  std::string fd_text(text.size(), '\0');
  const ssize_t n = ::read(fd, fd_text.data(), fd_text.size());
  ::close(fd);
  std::remove(path);
  ASSERT_EQ(static_cast<std::size_t>(n), text.size());
  EXPECT_EQ(fd_text, text);
  flight.reset();
}

TEST(FlightRecorderTest, TracerForwardsSpansWhenArmed) {
  TraceConfig config;
  config.flight_recorder = true;
  config.flight_entries = 32;
  TracerOn on(config);
  ASSERT_TRUE(flight_recorder().enabled());
  record_span("test.forwarded", 5);
  tracer().instant("test.ping", {{"round", 9}});
  std::ostringstream os;
  flight_recorder().dump(os, "forwarding");
  const std::string text = os.str();
  EXPECT_NE(text.find("S test.forwarded"), std::string::npos);
  EXPECT_NE(text.find("I test.ping round=9"), std::string::npos);
}

TEST(PhaseSelfTimesTest, SubtractsDirectChildrenAndSortsBySelfTime) {
  TracerOn on;
  {
    SyntheticSpan run("run", 0, 10.0);
    {
      SyntheticSpan round("round", 1, 4.0);
      SyntheticSpan eval("eval", 1, 3.5);
    }
    {
      SyntheticSpan round("round", 2, 4.0);
      SyntheticSpan eval("eval", 2, 1.0);
    }
  }
  tracer().instant("ping", {});

  const std::vector<PhaseStat> stats = tracer().phase_totals();
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_EQ(stats[0].name, "eval");  // 4.5 s self, no children
  EXPECT_EQ(stats[0].count, 2u);
  EXPECT_DOUBLE_EQ(stats[0].total_s, 4.5);
  EXPECT_DOUBLE_EQ(stats[0].self_s, 4.5);
  EXPECT_EQ(stats[1].name, "round");  // 8 - 4.5 = 3.5 s self
  EXPECT_DOUBLE_EQ(stats[1].self_s, 3.5);
  EXPECT_EQ(stats[2].name, "run");  // 10 - 8 = 2 s self
  EXPECT_DOUBLE_EQ(stats[2].self_s, 2.0);
  EXPECT_EQ(stats[3].name, "ping");  // instants carry no time
  EXPECT_EQ(stats[3].count, 0u);
  EXPECT_EQ(stats[3].instants, 1u);
}

TEST(PhaseSelfTimesTest, ClampsNegativeSelfTimeToZero) {
  TracerOn on;
  {
    SyntheticSpan parent("short", 0, 1.0);
    SyntheticSpan child("long", 0, 2.0);  // e.g. parallel children
  }
  const std::vector<PhaseStat> stats = tracer().phase_totals();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "long");
  EXPECT_EQ(stats[1].name, "short");
  EXPECT_DOUBLE_EQ(stats[1].total_s, 1.0);
  EXPECT_DOUBLE_EQ(stats[1].self_s, 0.0);
}

TEST(PhaseSelfTimesTest, TotalsSurviveRingWrapping) {
  TraceConfig config;
  config.ring_kb = 1;  // a handful of events per thread
  TracerOn on(config);
  constexpr std::uint64_t kSpans = 1000;
  for (std::uint64_t i = 0; i < kSpans; ++i) {
    ScopedTimer span("test.wrapped", i);
  }
  ASSERT_GT(tracer().dropped_events(), 0u);
  const std::vector<PhaseStat> stats = tracer().phase_totals();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].count, kSpans);
}

}  // namespace
}  // namespace hp::obs
