// Span-tree reconstruction across ThreadPool threads. Work fanned out via
// parallel_for must record its spans under the span that was open
// on the *submitting* thread, and because span ids are pure functions of
// (parent, name, key), the reconstructed (name, id, parent) tree must be
// identical at every worker count — only timings and ring/tid placement
// may differ. Runs under TSan in CI phase 3 with the rest of test_obs.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace hp::obs {
namespace {

using SpanKey = std::tuple<std::string, std::uint64_t, std::uint64_t>;

/// Runs a two-level fan-out (round span -> parallel evaluate spans, each
/// with a nested attempt span) on @p num_threads workers and returns the
/// recorded (name, id, parent) set.
std::multiset<SpanKey> run_fanout(std::size_t num_threads) {
  TraceConfig config;
  config.ring_kb = 64;
  tracer().start(config);
  {
    parallel::ThreadPool pool(num_threads);
    ScopedTimer round("tree.round", 1);
    pool.parallel_for(8, [](std::size_t i) {
      ScopedTimer eval("tree.evaluate", i);
      ScopedTimer attempt("tree.attempt", 0);
      tracer().instant("tree.ping", {{"index", i}});
    });
  }
  tracer().stop();
  std::multiset<SpanKey> keys;
  for (const TraceEventView& v : tracer().snapshot()) {
    keys.emplace(v.event.name, v.event.id, v.event.parent);
  }
  tracer().reset();
  return keys;
}

TEST(TraceTreeTest, ParallelForChildrenLinkToSubmittingSpan) {
  TraceConfig config;
  config.ring_kb = 64;
  tracer().start(config);
  std::uint64_t round_id = 0;
  {
    parallel::ThreadPool pool(4);
    ScopedTimer round("tree.round", 1);
    round_id = tracer().current_context().id;
    pool.parallel_for(8, [](std::size_t i) {
      ScopedTimer eval("tree.evaluate", i);
    });
  }
  tracer().stop();
  const std::vector<TraceEventView> events = tracer().snapshot();
  tracer().reset();

  ASSERT_NE(round_id, 0u);
  std::size_t evaluate_count = 0;
  std::set<std::uint64_t> evaluate_ids;
  for (const TraceEventView& v : events) {
    if (std::string(v.event.name) != "tree.evaluate") continue;
    ++evaluate_count;
    evaluate_ids.insert(v.event.id);
    // Every worker-side span hangs off the round span opened on the
    // submitting thread, never off 0 or a worker-local leftover.
    EXPECT_EQ(v.event.parent, round_id);
  }
  EXPECT_EQ(evaluate_count, 8u);
  EXPECT_EQ(evaluate_ids.size(), 8u);  // keyed by index => all distinct
}

TEST(TraceTreeTest, SpanTreeIsInvariantAcrossWorkerCounts) {
  const std::multiset<SpanKey> sequential = run_fanout(1);
  const std::multiset<SpanKey> parallel4 = run_fanout(4);
  // 1 round + 8 evaluate + 8 attempt spans + 8 instants.
  EXPECT_EQ(sequential.size(), 25u);
  EXPECT_EQ(sequential, parallel4);
}

TEST(TraceTreeTest, InstantsAttachToTheWorkerSideSpan) {
  TraceConfig config;
  config.ring_kb = 64;
  tracer().start(config);
  {
    parallel::ThreadPool pool(4);
    ScopedTimer round("tree.round", 1);
    pool.parallel_for(4, [](std::size_t i) {
      ScopedTimer eval("tree.evaluate", i);
      tracer().instant("tree.ping", {{"index", i}});
    });
  }
  tracer().stop();
  const std::vector<TraceEventView> events = tracer().snapshot();
  tracer().reset();

  std::set<std::uint64_t> evaluate_ids;
  for (const TraceEventView& v : events) {
    if (std::string(v.event.name) == "tree.evaluate") {
      evaluate_ids.insert(v.event.id);
    }
  }
  std::size_t pings = 0;
  for (const TraceEventView& v : events) {
    if (std::string(v.event.name) != "tree.ping") continue;
    ++pings;
    EXPECT_TRUE(v.event.instant);
    EXPECT_EQ(v.event.id, 0u);
    EXPECT_EQ(evaluate_ids.count(v.event.parent), 1u)
        << "instant not under an evaluate span";
  }
  EXPECT_EQ(pings, 4u);
}

/// Per-name totals rebuilt from a lossless snapshot by span id: the
/// reference the tracer's own totals must reproduce.
std::map<std::string, PhaseStat> reference_totals(
    const std::vector<TraceEventView>& events) {
  std::unordered_map<std::uint64_t, double> child_sum;
  for (const TraceEventView& v : events) {
    if (!v.event.instant && v.event.parent != 0) {
      child_sum[v.event.parent] += v.event.dur_s;
    }
  }
  std::map<std::string, PhaseStat> out;
  for (const TraceEventView& v : events) {
    PhaseStat& stat = out[v.event.name];
    stat.name = v.event.name;
    if (v.event.instant) {
      ++stat.instants;
      continue;
    }
    ++stat.count;
    stat.total_s += v.event.dur_s;
    stat.self_s += std::max(0.0, v.event.dur_s - child_sum[v.event.id]);
  }
  return out;
}

TEST(TraceTreeTest, PhaseTotalsMatchALosslessSnapshot) {
  TraceConfig config;
  config.ring_kb = 256;  // large enough that nothing wraps
  tracer().start(config);
  {
    parallel::ThreadPool pool(7);
    ScopedTimer run("tree.run", 0);
    for (std::uint64_t r = 0; r < 3; ++r) {
      ScopedTimer round("tree.round", r);
      // Eight sleeping children on eight threads: their durations sum to
      // far more than the round's, so its self time clamps at 0.
      pool.parallel_for(8, [r](std::size_t i) {
        ScopedTimer eval("tree.evaluate", r * 8 + i);
        {
          ScopedTimer attempt("tree.attempt", 0);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        tracer().instant("tree.ping", {{"index", i}});
      });
    }
    ScopedTimer merge("tree.merge", 0);
  }
  tracer().stop();
  const std::vector<TraceEventView> events = tracer().snapshot();
  const std::vector<PhaseStat> totals = tracer().phase_totals();
  ASSERT_EQ(tracer().dropped_events(), 0u);
  tracer().reset();

  const std::map<std::string, PhaseStat> reference = reference_totals(events);
  ASSERT_EQ(totals.size(), reference.size());
  for (const PhaseStat& stat : totals) {
    SCOPED_TRACE(stat.name);
    const auto it = reference.find(stat.name);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(stat.count, it->second.count);
    EXPECT_EQ(stat.instants, it->second.instants);
    EXPECT_NEAR(stat.total_s, it->second.total_s, 1e-9);
    EXPECT_NEAR(stat.self_s, it->second.self_s, 1e-9);
  }
  EXPECT_EQ(reference.at("tree.evaluate").count, 24u);
  EXPECT_EQ(reference.at("tree.ping").instants, 24u);
  // The clamp is exercised: every round's children outlast it.
  double round_dur_s = 0.0;
  for (const TraceEventView& v : events) {
    if (std::string(v.event.name) == "tree.round") round_dur_s += v.event.dur_s;
  }
  EXPECT_GT(reference.at("tree.evaluate").total_s, round_dur_s);
  EXPECT_EQ(reference.at("tree.round").self_s, 0.0);
  for (std::size_t i = 1; i < totals.size(); ++i) {
    EXPECT_GE(totals[i - 1].self_s, totals[i].self_s);
  }
}

}  // namespace
}  // namespace hp::obs
