// Google-benchmark timings of the parallel-evaluation engine: raw
// ThreadPool parallel_for dispatch/speedup over a CPU-bound body, the
// EvaluationEngine's batched rounds end to end at varying thread counts,
// and the proposer's two pooled phases (the multi-start kernel fit and the
// acquisition argmax) at 1 and 4 threads. On a multi-core host the
// *_Threads counters show the scaling; on a single-core CI box they
// degenerate to overhead measurements (the determinism tests, not these
// timings, are the correctness gate).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/experiment.hpp"
#include "common/micro_report.hpp"
#include "core/bayes_opt.hpp"
#include "core/evaluation_engine.hpp"
#include "core/random_search.hpp"
#include "gp/kernel_fit.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"
#include "testbed/testbed_objective.hpp"

namespace {

using namespace hp;

/// CPU-bound unit of work: a splitmix64 chain, unoptimizable-away.
std::uint64_t spin(std::uint64_t seed, std::size_t iters) {
  std::uint64_t x = seed;
  for (std::size_t i = 0; i < iters; ++i) x = stats::splitmix64(x);
  return x;
}

void BM_ParallelForSpin(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kItersPerTask = 200000;
  parallel::ThreadPool pool(threads - 1);  // caller participates
  // One slot per task: pool threads never write the same variable.
  std::vector<std::uint64_t> results(kTasks);
  for (auto _ : state) {
    pool.parallel_for(kTasks, [&](std::size_t i) {
      results[i] = spin(i, kItersPerTask);
    });
    benchmark::DoNotOptimize(
        std::accumulate(results.begin(), results.end(), std::uint64_t{0}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTasks));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ParallelForSpin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelForDispatchOverhead(benchmark::State& state) {
  // Empty bodies: isolates the per-batch wakeup/merge cost.
  const auto threads = static_cast<std::size_t>(state.range(0));
  parallel::ThreadPool pool(threads - 1);
  for (auto _ : state) {
    pool.parallel_for(64, [](std::size_t) {});
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ParallelForDispatchOverhead)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_BatchedOptimizerRun(benchmark::State& state) {
  // End-to-end batched random search on the mnist testbed (the objective
  // walks full learning curves and simulates measurement, so the per-task
  // work is real). Virtual clock costs are identical across thread counts;
  // only wall time changes.
  const auto threads = static_cast<std::size_t>(state.range(0));
  const core::BenchmarkProblem problem = core::mnist_problem();
  core::ConstraintBudgets budgets;
  budgets.power_w = 85.0;
  budgets.memory_mb = 680.0;
  for (auto _ : state) {
    testbed::TestbedObjective objective(
        problem, testbed::mnist_landscape(), hw::gtx1070(),
        testbed::calibrated_options("mnist", hw::gtx1070()));
    core::OptimizerOptions opt;
    opt.seed = 1;
    opt.max_function_evaluations = 32;
    opt.batch_size = 8;
    opt.num_threads = threads;
    opt.use_hardware_models = false;
    core::RandomSearchProposer rand(problem.space());
    const auto result =
        core::EvaluationEngine(problem.space(), objective, budgets, nullptr,
                               opt, rand)
            .run();
    benchmark::DoNotOptimize(result.trace.size());
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_BatchedOptimizerRun)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// The objective GP's training set at the cifar config's last kernel fit
/// and the kernel that fit starts from, recorded from a real search (see
/// the header of bench/data/cifar10_kernel_fit_n117.txt).
struct RecordedFit {
  gp::KernelParams kernel;
  double noise_variance = 0.0;
  linalg::Matrix x;
  linalg::Vector y;
  double best = 0.0;  ///< best feasible test error at that point
};

RecordedFit load_recorded_fit() {
  const std::string path =
      std::string(HYPERPOWER_BENCH_DATA_DIR) + "/cifar10_kernel_fit_n117.txt";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  RecordedFit fit;
  std::vector<std::vector<double>> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    if (!(fields >> tag) || tag.front() == '#') continue;
    std::vector<double> values;
    for (double v = 0.0; fields >> v;) values.push_back(v);
    if (tag == "kernel") {
      fit.kernel.signal_variance = values.at(0);
      fit.noise_variance = values.at(1);
      fit.kernel.length_scales.assign(values.begin() + 2, values.end());
    } else if (tag == "obs") {
      rows.push_back(std::move(values));
    } else if (tag == "best") {
      fit.best = values.at(0);
    }
  }
  const std::size_t dims = fit.kernel.length_scales.size();
  fit.x = linalg::Matrix(rows.size(), dims);
  fit.y = linalg::Vector(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != dims + 1) throw std::runtime_error("bad row");
    for (std::size_t d = 0; d < dims; ++d) fit.x(i, d) = rows[i][d];
    fit.y[i] = rows[i][dims];
  }
  return fit;
}

void BM_KernelMlFit(benchmark::State& state) {
  // The cifar config's last kernel fit (117 observations; the default
  // 1 + 4 starts, start 0 from the recorded incumbent kernel) with its
  // starts spread over `threads` threads. The result is bitwise the same
  // at any count; the incumbent start probes far more than the random
  // ones, which bounds the speedup.
  const auto threads = static_cast<std::size_t>(state.range(0));
  const RecordedFit recorded = load_recorded_fit();
  const core::BayesOptOptions bo;
  gp::KernelFitOptions options = bo.kernel_fit;
  options.min_noise_variance = bo.observation_noise;
  parallel::ThreadPool pool(threads - 1);
  int probes = 0;
  for (auto _ : state) {
    gp::GaussianProcess gp(gp::Matern52Kernel(recorded.kernel),
                           recorded.noise_variance);
    probes = gp::fit_kernel_by_ml(gp, recorded.x, recorded.y, options, &pool)
                 .evaluations;
    benchmark::DoNotOptimize(probes);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["probes"] = probes;
}
BENCHMARK(BM_KernelMlFit)->ArgName("threads")->Arg(1)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_AcqArgmax(benchmark::State& state) {
  // One HW-IECI acquisition argmax over the default 1,000-candidate pool on
  // cifar10 at the cifar config's 90 W budget, scored against the recorded
  // surrogate (the GP on the 117 recorded observations under the recorded
  // kernel) and trained power model, its score blocks spread over
  // `threads` threads.
  const auto threads = static_cast<std::size_t>(state.range(0));
  const core::BenchmarkProblem problem = core::cifar10_problem();
  const RecordedFit recorded = load_recorded_fit();
  gp::GaussianProcess gp(gp::Matern52Kernel(recorded.kernel),
                         recorded.noise_variance);
  gp.fit(recorded.x, recorded.y);
  const auto bench_pair =
      bench::make_pair(bench::Dataset::Cifar10, bench::Platform::Gtx1070);
  const auto models = bench::train_models(bench_pair, 50, 1);
  core::ConstraintBudgets budgets;
  budgets.power_w = 90.0;
  const core::HardwareConstraints constraints(
      budgets, std::optional<core::HardwareModel>(models.power->model),
      std::nullopt);
  core::AcquisitionContext ctx{problem.space()};
  ctx.objective_gp = &gp;
  ctx.best_observed = recorded.best;
  ctx.constraints = &constraints;
  const core::HwIeciAcquisition acquisition;
  core::CandidatePool candidates(problem.space());
  parallel::ThreadPool pool(threads - 1);
  stats::Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        candidates.maximize(acquisition, ctx, rng, &pool).score);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_AcqArgmax)->ArgName("threads")->Arg(1)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return hp::bench::run_micro_bench("micro_parallel", argc, argv);
}
