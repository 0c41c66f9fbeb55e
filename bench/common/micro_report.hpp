#pragma once
// BENCH_<name>.json emission for the google-benchmark micro binaries.
// Replaces BENCHMARK_MAIN(): run_micro_bench() drives the normal console
// reporter through a capturing wrapper and then writes every run (name,
// real/cpu time, iterations, user counters) through the shared BenchReport,
// so the micro benches produce the same machine-readable artifacts as the
// table/figure benches.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/report.hpp"
#include "obs/json.hpp"

namespace hp::bench {

/// ConsoleReporter that also records every run for the JSON file.
class CapturingReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) captured_.push_back(run);
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<Run>& captured() const noexcept {
    return captured_;
  }

 private:
  std::vector<Run> captured_;
};

inline obs::JsonValue micro_run_to_json(
    const benchmark::BenchmarkReporter::Run& run) {
  obs::JsonValue out = obs::JsonValue::object();
  out["name"] = run.benchmark_name();
  out["iterations"] = static_cast<long long>(run.iterations);
  out["real_time"] = run.GetAdjustedRealTime();
  out["cpu_time"] = run.GetAdjustedCPUTime();
  out["time_unit"] = benchmark::GetTimeUnitString(run.time_unit);
  if (run.error_occurred) out["error"] = run.error_message;
  if (!run.counters.empty()) {
    obs::JsonValue counters = obs::JsonValue::object();
    for (const auto& [key, counter] : run.counters) {
      counters[key] = static_cast<double>(counter);
    }
    out["counters"] = std::move(counters);
  }
  return out;
}

/// The micro benches' main(): standard benchmark CLI handling plus a
/// BENCH_<name>.json dump of all executed runs.
inline int run_micro_bench(const std::string& name, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BenchReport report(name);
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  obs::JsonValue runs = obs::JsonValue::array();
  for (const auto& run : reporter.captured()) {
    // Of a repeated bench's aggregates only the mean and median are times;
    // stddev and cv would be compared against baselines as if they were.
    if (run.run_type == benchmark::BenchmarkReporter::Run::RT_Aggregate &&
        run.aggregate_name != "mean" && run.aggregate_name != "median") {
      continue;
    }
    runs.push_back(micro_run_to_json(run));
  }
  report.root()["runs"] = std::move(runs);
  benchmark::Shutdown();
  return 0;
}

}  // namespace hp::bench
