// Google-benchmark micro timings of HyperPower's building blocks: GP
// fitting and prediction, acquisition maximization, Cholesky, hardware
// model training, profiling, landscape evaluation. These quantify the
// per-iteration bookkeeping costs that the virtual-clock overhead model
// (BayesOptOptions::overhead_*) abstracts.

#include <benchmark/benchmark.h>

#include <chrono>
#include <sstream>

#include "common/experiment.hpp"
#include "common/micro_report.hpp"
#include "core/candidate_pool.hpp"
#include "gp/kernel_fit.hpp"
#include "linalg/cholesky.hpp"
#include "nn/sgd_trainer.hpp"
#include "obs/obs.hpp"

namespace {

using namespace hp;

linalg::Matrix random_inputs(std::size_t n, std::size_t d, std::uint64_t seed) {
  stats::Rng rng(seed);
  linalg::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform();
  }
  return x;
}

linalg::Vector random_targets(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = rng.uniform(0.0, 1.0);
  return y;
}

void BM_CholeskyFactorization(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix b = random_inputs(n, n, 1);
  linalg::Matrix a = b * b.transposed();
  a.add_to_diagonal(static_cast<double>(n));
  for (auto _ : state) {
    linalg::Cholesky chol(a);
    benchmark::DoNotOptimize(chol.log_det());
  }
}
BENCHMARK(BM_CholeskyFactorization)->Arg(10)->Arg(50)->Arg(100)->Arg(200);

void BM_CholeskyExtend(benchmark::State& state) {
  // One bordered O(n^2) update — the per-round factor cost of the
  // incremental GP refit path, vs BM_CholeskyFactorization's O(n^3).
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix b = random_inputs(n + 1, n + 1, 1);
  linalg::Matrix full = b * b.transposed();
  full.add_to_diagonal(static_cast<double>(n + 1));
  linalg::Matrix base(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) base(i, j) = full(i, j);
  }
  linalg::Vector row(n);
  for (std::size_t j = 0; j < n; ++j) row[j] = full(n, j);
  const linalg::Cholesky chol(base);
  for (auto _ : state) {
    auto ext = chol.extended(row, full(n, n));
    benchmark::DoNotOptimize(ext->log_det());
  }
}
BENCHMARK(BM_CholeskyExtend)->Arg(50)->Arg(100)->Arg(200);

void BM_GpFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_inputs(n, 6, 2);
  const auto y = random_targets(n, 3);
  gp::KernelParams params;
  params.length_scales = {0.3};
  for (auto _ : state) {
    gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp.log_marginal_likelihood());
  }
}
BENCHMARK(BM_GpFit)->Arg(10)->Arg(25)->Arg(50)->Arg(100);

void BM_GpRefitFull(benchmark::State& state) {
  // From-scratch refit baseline: a fresh GP each iteration can never take
  // an incremental path (Gram + O(n^3) factorization every time).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_inputs(n, 6, 2);
  const auto y = random_targets(n, 3);
  gp::KernelParams params;
  params.length_scales = {0.3};
  for (auto _ : state) {
    gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp.num_observations());
  }
}
BENCHMARK(BM_GpRefitFull)->Arg(100)->Arg(200);

void BM_GpRefitIncremental(benchmark::State& state) {
  // One BO round on a persistent GP: append an observation (extension
  // path), then pop it (truncation path) — two O(n^2) refits per
  // iteration. tracked.json pins BM_GpRefitFull/200 over this at >= 5x.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x_plus = random_inputs(n + 1, 6, 2);
  const auto y_plus = random_targets(n + 1, 3);
  linalg::Matrix x_base(n, 6);
  linalg::Vector y_base(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 6; ++j) x_base(i, j) = x_plus(i, j);
    y_base[i] = y_plus[i];
  }
  gp::KernelParams params;
  params.length_scales = {0.3};
  gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
  gp.fit(x_base, y_base);
  for (auto _ : state) {
    gp.fit(x_plus, y_plus);
    gp.fit(x_base, y_base);
    benchmark::DoNotOptimize(gp.num_observations());
  }
}
BENCHMARK(BM_GpRefitIncremental)->Arg(100)->Arg(200);

void BM_GpPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gp::KernelParams params;
  params.length_scales = {0.3};
  gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
  gp.fit(random_inputs(n, 6, 4), random_targets(n, 5));
  const linalg::Vector q(std::vector<double>(6, 0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.predict(q).mean);
  }
}
BENCHMARK(BM_GpPredict)->Arg(10)->Arg(50)->Arg(100);

void BM_KernelMlFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_inputs(n, 6, 6);
  const auto y = random_targets(n, 7);
  gp::KernelFitOptions opt;
  opt.num_restarts = 1;
  opt.iterations_per_restart = 10;
  for (auto _ : state) {
    gp::KernelParams params;
    params.length_scales = {0.3};
    gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
    benchmark::DoNotOptimize(
        gp::fit_kernel_by_ml(gp, x, y, opt).log_marginal_likelihood);
  }
}
BENCHMARK(BM_KernelMlFit)->Arg(15)->Arg(40);

void BM_AcquisitionMaximization(benchmark::State& state) {
  const auto problem = core::cifar10_problem();
  gp::KernelParams params;
  params.length_scales.assign(13, 0.3);
  gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
  gp.fit(random_inputs(30, 13, 8), random_targets(30, 9));
  core::CandidatePool pool(problem.space());
  core::HwIeciAcquisition acquisition;
  const auto bench_pair =
      bench::make_pair(bench::Dataset::Cifar10, bench::Platform::Gtx1070);
  const auto models = bench::train_models(bench_pair, 50, 1);
  core::HardwareConstraints constraints(
      bench_pair.budgets,
      std::optional<core::HardwareModel>(models.power->model),
      models.memory
          ? std::optional<core::HardwareModel>(models.memory->model)
          : std::nullopt);
  core::AcquisitionContext ctx{problem.space()};
  ctx.objective_gp = &gp;
  ctx.best_observed = 0.3;
  ctx.constraints = &constraints;
  stats::Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.maximize(acquisition, ctx, rng).score);
  }
}
BENCHMARK(BM_AcquisitionMaximization);

void BM_HardwareModelPredict(benchmark::State& state) {
  const auto pair =
      bench::make_pair(bench::Dataset::Cifar10, bench::Platform::Gtx1070);
  const auto models = bench::train_models(pair, 50, 11);
  const std::vector<double> z{40, 3, 2, 40, 3, 2, 40, 3, 2, 400};
  for (auto _ : state) {
    benchmark::DoNotOptimize(models.power->model.predict(z));
  }
}
BENCHMARK(BM_HardwareModelPredict);

void BM_ProfileOneConfig(benchmark::State& state) {
  hw::GpuSimulator sim(hw::gtx1070(), 12);
  hw::InferenceProfiler profiler(sim);
  nn::CnnSpec spec;
  spec.input = {1, 3, 32, 32};
  spec.conv_stages = {{40, 3, 2}, {40, 3, 2}, {40, 3, 1}};
  spec.dense_stages = {{400}};
  spec.num_classes = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.profile(spec).power_w);
  }
}
BENCHMARK(BM_ProfileOneConfig);

void BM_TrainHardwareModel(benchmark::State& state) {
  const auto pair =
      bench::make_pair(bench::Dataset::Cifar10, bench::Platform::Gtx1070);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::train_models(pair, 100, 13).power->cv.rmspe);
  }
}
BENCHMARK(BM_TrainHardwareModel);

void BM_LandscapeEvaluation(benchmark::State& state) {
  const auto problem = core::cifar10_problem();
  const testbed::ErrorLandscape landscape(problem,
                                          testbed::cifar10_landscape());
  const core::Configuration config{40, 3, 2, 40, 3, 2, 40, 3, 2,
                                   400, 0.01, 0.9, 0.001};
  for (auto _ : state) {
    benchmark::DoNotOptimize(landscape.final_error(config, 1));
  }
}
BENCHMARK(BM_LandscapeEvaluation);

void BM_RealCnnTrainingEpoch(benchmark::State& state) {
  nn::SyntheticDataOptions data_opt;
  data_opt.train_size = 100;
  data_opt.test_size = 50;
  data_opt.image_size = 12;
  const nn::DataSplit data = nn::make_synthetic_mnist(data_opt);
  nn::CnnSpec spec;
  spec.input = {1, 1, 12, 12};
  spec.conv_stages = {{8, 3, 2}};
  spec.dense_stages = {{32}};
  spec.num_classes = 10;
  for (auto _ : state) {
    nn::Network net = nn::build_network(spec);
    stats::Rng rng(14);
    net.initialize(rng);
    nn::TrainingConfig config;
    config.epochs = 1;
    nn::SgdTrainer trainer(config);
    benchmark::DoNotOptimize(
        trainer.train(net, data.train, data.test).final_test_error);
  }
}
BENCHMARK(BM_RealCnnTrainingEpoch);

// ---- tracing overhead ------------------------------------------------
// The same small Cholesky workload bare, under a dark span (tracing off),
// and under a recording span. The committed tracked.json invariant pins
// the dark span's cost: bare / dark >= 0.98 on a microsecond-scale
// workload (in practice it is one relaxed load). Two separate benchmarks
// run seconds apart, and on a shared host their medians drift by more
// than 2% on noise alone; so BM_TraceOverheadPaired interleaves short
// blocks of both in one benchmark, alternating which goes first, and
// reports the ratio of their summed times as a counter. Both variants see
// the same machine state, and the ratio gated is the median of 9 such
// paired repetitions.

linalg::Matrix trace_bench_matrix() {
  linalg::Matrix b = random_inputs(32, 32, 7);
  linalg::Matrix a = b * b.transposed();
  a.add_to_diagonal(32.0);
  return a;
}

void factorize(const linalg::Matrix& a) {
  linalg::Cholesky chol(a);
  benchmark::DoNotOptimize(chol.log_det());
}

/// Seconds taken by one block of factorizations, each under a dark
/// ScopedTimer when @p Spanned.
template <bool Spanned>
double time_trace_block(const linalg::Matrix& a) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 32; ++i) {
    if constexpr (Spanned) {
      obs::ScopedTimer span("bench.trace_overhead");
      factorize(a);
    } else {
      factorize(a);
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void BM_TraceOverheadPaired(benchmark::State& state) {
  const linalg::Matrix a = trace_bench_matrix();
  double bare_s = 0.0;
  double dark_s = 0.0;
  bool dark_first = false;
  for (auto _ : state) {
    if (dark_first) dark_s += time_trace_block<true>(a);
    bare_s += time_trace_block<false>(a);
    if (!dark_first) dark_s += time_trace_block<true>(a);
    dark_first = !dark_first;
  }
  state.counters["bare_over_dark"] = bare_s / dark_s;
}
BENCHMARK(BM_TraceOverheadPaired)->Repetitions(9)->ReportAggregatesOnly(true);

void BM_TraceOverheadRing(benchmark::State& state) {
  // Tracing enabled: every span takes two clock samples and one ring slot.
  obs::TraceConfig config;
  config.ring_kb = 256;
  obs::tracer().start(config);
  const linalg::Matrix a = trace_bench_matrix();
  for (auto _ : state) {
    obs::ScopedTimer span("bench.trace_overhead");
    factorize(a);
  }
  obs::tracer().stop();
  obs::tracer().reset();
}
BENCHMARK(BM_TraceOverheadRing)->Repetitions(9)->ReportAggregatesOnly(true);

void BM_TraceExport(benchmark::State& state) {
  // Chrome trace-event JSON serialization of a full ring (4096 spans),
  // the one-shot end-of-run cost of --trace-out.
  obs::TraceConfig config;
  config.ring_kb = 256;  // 4096 events at 64 B/event
  obs::tracer().start(config);
  for (int i = 0; i < 4096; ++i) {
    obs::ScopedTimer span("bench.trace_overhead",
                          static_cast<std::uint64_t>(i));
    span.trace_arg({"index", i});
    benchmark::DoNotOptimize(i);
  }
  obs::tracer().stop();
  for (auto _ : state) {
    std::ostringstream os;
    obs::tracer().write_chrome_trace(os);
    benchmark::DoNotOptimize(os.str().size());
  }
  obs::tracer().reset();
}
BENCHMARK(BM_TraceExport);

}  // namespace

int main(int argc, char** argv) {
  return hp::bench::run_micro_bench("micro_components", argc, argv);
}
