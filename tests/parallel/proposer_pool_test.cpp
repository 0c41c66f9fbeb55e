// The proposer's share of the engine's thread pool. Acquisition scoring
// (CandidatePool::maximize) and the multi-start kernel fit
// (gp::fit_kernel_by_ml) must return bitwise-equal results with no pool and
// on a pool of any size, and the engine must hand its pool to the proposer
// in sequential, batched and fleet mode alike. Runs under TSan with the
// rest of test_parallel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/acquisition.hpp"
#include "core/candidate_pool.hpp"
#include "core/evaluation_engine.hpp"
#include "core/random_search.hpp"
#include "core/spaces.hpp"
#include "gp/kernel_fit.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"
#include "../core/fake_objective.hpp"

namespace hp::core {
namespace {

/// Thread counts checked against the pool-less path; T threads = a pool of
/// T - 1 workers plus the calling thread.
constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

/// n random unit points of @p dims dimensions with a smooth target.
void make_dataset(std::size_t n, std::size_t dims, std::uint64_t seed,
                  linalg::Matrix* x, linalg::Vector* y) {
  stats::Rng rng(seed);
  *x = linalg::Matrix(n, dims);
  *y = linalg::Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      (*x)(i, d) = rng.uniform();
      s += std::sin(3.0 * (*x)(i, d) + static_cast<double>(d));
    }
    (*y)[i] = 0.2 + 0.05 * s + rng.gaussian(0.0, 0.01);
  }
}

gp::GaussianProcess fitted_gp(std::size_t dims, std::size_t n) {
  linalg::Matrix x;
  linalg::Vector y;
  make_dataset(n, dims, 40 + n, &x, &y);
  gp::KernelParams params;
  params.signal_variance = 1.0;
  params.length_scales.assign(dims, 0.3);
  gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
  gp.fit(x, y);
  return gp;
}

/// Linear power model over the structural vector whose budget admits about
/// @p feasible_share of the space (0 = nothing is predicted feasible).
HardwareConstraints constraints_for(const HyperParameterSpace& space,
                                    double feasible_share) {
  linalg::Vector weights(space.structural_dimension());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 0.05 * static_cast<double>(i + 1);
  }
  const HardwareModel model(ModelForm::Linear, weights, 60.0, 2.0);
  stats::Rng rng(5);
  std::vector<double> predicted;
  for (int i = 0; i < 200; ++i) {
    predicted.push_back(
        model.predict(space.structural_vector(space.sample(rng))));
  }
  std::sort(predicted.begin(), predicted.end());
  ConstraintBudgets budgets;
  budgets.power_w =
      feasible_share > 0.0
          ? predicted[static_cast<std::size_t>(feasible_share * 199.0)]
          : 0.0;  // below the 60 W intercept everywhere
  return HardwareConstraints(budgets, model, std::nullopt);
}

void expect_same_maximizer(const CandidatePool::Maximizer& got,
                           const CandidatePool::Maximizer& want) {
  EXPECT_EQ(got.unit, want.unit);  // bitwise: vector<double> operator==
  EXPECT_EQ(got.config, want.config);
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(got.evaluated, want.evaluated);
}

/// maximize() on a pool of each size against the pool-less call, with the
/// same RNG state (the random candidates and the zero-score fallback draw).
/// Returns the pool-less result.
CandidatePool::Maximizer expect_pool_invariant(
    const AcquisitionFunction& acquisition, const AcquisitionContext& ctx,
    const HyperParameterSpace& space, CandidatePoolOptions options) {
  CandidatePool serial_pool(space, options);
  stats::Rng serial_rng(77);
  const CandidatePool::Maximizer want =
      serial_pool.maximize(acquisition, ctx, serial_rng);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(acquisition.name() + " threads=" + std::to_string(threads));
    parallel::ThreadPool pool(threads - 1);
    CandidatePool candidates(space, options);
    stats::Rng rng(77);
    // Twice on the same CandidatePool: reused scratch must not leak state.
    for (int call = 0; call < 2; ++call) {
      stats::Rng call_rng = rng;
      expect_same_maximizer(candidates.maximize(acquisition, ctx, call_rng,
                                                &pool),
                            want);
    }
    stats::Rng next_serial = serial_rng;
    stats::Rng next_pooled = rng;
    (void)candidates.maximize(acquisition, ctx, next_pooled, &pool);
    EXPECT_EQ(next_pooled.uniform(), next_serial.uniform())
        << "the pooled call consumed a different number of draws";
  }
  return want;
}

TEST(ProposerPoolTest, MaximizeIsBitwiseEqualAtAnyThreadCount) {
  const BenchmarkProblem problem = cifar10_problem();
  const HyperParameterSpace& space = problem.space();
  const gp::GaussianProcess objective_gp = fitted_gp(space.dimension(), 60);
  const HardwareConstraints constraints = constraints_for(space, 0.5);
  CandidatePoolOptions options;  // the defaults: 600 + 400, blocks of 128
  const HwIeciAcquisition ieci;
  const HwCweiAcquisition cwei;
  const ExpectedImprovementAcquisition ei;

  AcquisitionContext ctx{space};
  ctx.objective_gp = &objective_gp;
  ctx.best_observed = 0.15;
  ctx.budgets = constraints.budgets();
  ctx.constraints = &constraints;
  // Part of the pool is predicted feasible, so the argmax scores > 0.
  EXPECT_GT(expect_pool_invariant(ieci, ctx, space, options).score, 0.0);
  EXPECT_GT(expect_pool_invariant(cwei, ctx, space, options).score, 0.0);
  EXPECT_GT(expect_pool_invariant(ei, ctx, space, options).score, 0.0);

  // Default mode: constraints from measured-metric GPs instead of models.
  const gp::GaussianProcess power_gp = fitted_gp(space.dimension(), 30);
  AcquisitionContext measured{space};
  measured.objective_gp = &objective_gp;
  measured.best_observed = 0.15;
  measured.budgets.power_w = 0.2;
  measured.measured_power_gp = &power_gp;
  EXPECT_GT(expect_pool_invariant(ieci, measured, space, options).score, 0.0);

  // A block size that does not divide either part of the pool.
  options.score_block_size = 7;
  expect_pool_invariant(ieci, ctx, space, options);
}

TEST(ProposerPoolTest, MaximizeFallbackIsBitwiseEqualAtAnyThreadCount) {
  // Nothing is predicted feasible, so every candidate scores 0 and the
  // highest-feasibility candidate is the serial fallback.
  const BenchmarkProblem problem = cifar10_problem();
  const HyperParameterSpace& space = problem.space();
  const gp::GaussianProcess objective_gp = fitted_gp(space.dimension(), 30);
  const HardwareConstraints constraints = constraints_for(space, 0.0);
  AcquisitionContext ctx{space};
  ctx.objective_gp = &objective_gp;
  ctx.best_observed = 0.15;
  ctx.budgets = constraints.budgets();
  ctx.constraints = &constraints;
  const HwIeciAcquisition ieci;
  EXPECT_EQ(expect_pool_invariant(ieci, ctx, space, {}).score, 0.0);
  // Without constraints an all-zero pool draws a fresh random point.
  AcquisitionContext unconstrained{space};
  EXPECT_EQ(expect_pool_invariant(ieci, unconstrained, space, {}).evaluated,
            1001u);
}

/// Scores every candidate the same: the lowest index must win.
class FlatAcquisition final : public AcquisitionFunction {
 public:
  [[nodiscard]] double score(const std::vector<double>&, const Configuration&,
                             const AcquisitionContext&) const override {
    return 0.5;
  }
  [[nodiscard]] std::string name() const override { return "flat"; }
};

TEST(ProposerPoolTest, MaximizeTiesGoToTheLowestIndexOnAPool) {
  const BenchmarkProblem problem = cifar10_problem();
  const HyperParameterSpace& space = problem.space();
  const FlatAcquisition flat;
  AcquisitionContext ctx{space};
  for (const std::size_t threads : kThreadCounts) {
    parallel::ThreadPool pool(threads - 1);
    CandidatePool candidates(space);
    stats::Rng rng(3);
    const CandidatePool::Maximizer best =
        candidates.maximize(flat, ctx, rng, &pool);
    EXPECT_EQ(best.unit, candidates.lattice().front()) << threads;
  }
}

TEST(ProposerPoolTest, KernelFitIsBitwiseEqualAtAnyThreadCount) {
  for (const std::size_t n : {std::size_t{2}, std::size_t{40},
                              std::size_t{120}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    linalg::Matrix x;
    linalg::Vector y;
    make_dataset(n, 13, 100 + n, &x, &y);
    gp::KernelParams params;
    params.signal_variance = 1.0;
    params.length_scales.assign(13, 0.3);
    gp::KernelFitOptions options;  // the BO defaults: 1 + 4 starts
    options.min_noise_variance = 1e-4;
    if (n == 120) options.iterations_per_restart = 15;  // keep TSan quick

    gp::GaussianProcess serial_gp(gp::Matern52Kernel(params), 1e-4);
    const gp::KernelFitResult want =
        gp::fit_kernel_by_ml(serial_gp, x, y, options);
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      parallel::ThreadPool pool(threads - 1);
      gp::GaussianProcess gp(gp::Matern52Kernel(params), 1e-4);
      const gp::KernelFitResult got =
          gp::fit_kernel_by_ml(gp, x, y, options, &pool);
      EXPECT_EQ(got.evaluations, want.evaluations);
      EXPECT_EQ(got.log_marginal_likelihood, want.log_marginal_likelihood);
      EXPECT_EQ(got.noise_variance, want.noise_variance);
      EXPECT_EQ(got.params.signal_variance, want.params.signal_variance);
      EXPECT_EQ(got.params.length_scales, want.params.length_scales);
      // The installed surrogate is the same GP.
      EXPECT_EQ(gp.log_marginal_likelihood(),
                serial_gp.log_marginal_likelihood());
    }
  }
}

/// Records the pool its runs were given.
class PoolRecordingProposer final : public Proposer {
 public:
  explicit PoolRecordingProposer(const HyperParameterSpace& space)
      : Proposer(space), inner_(space) {}
  [[nodiscard]] std::string name() const override { return "Rand"; }
  void begin_run(const ProposerRunContext& context) override {
    Proposer::begin_run(context);
    inner_.begin_run(context);
    workers = context.pool != nullptr
                  ? std::optional<std::size_t>(context.pool->worker_count())
                  : std::nullopt;
  }
  [[nodiscard]] Configuration propose(stats::Rng& rng) override {
    return inner_.propose(rng);
  }

  std::optional<std::size_t> workers;

 private:
  RandomSearchProposer inner_;
};

/// Fleet stand-in: evaluates a round inline on the calling thread.
class InlineDispatcher final : public RoundDispatcher {
 public:
  explicit InlineDispatcher(Objective& objective) : objective_(objective) {}
  std::vector<EvaluationRecord> evaluate_round(
      std::vector<RoundJob> jobs) override {
    std::vector<EvaluationRecord> records;
    for (const RoundJob& job : jobs) {
      records.push_back(objective_.evaluate_detached(job.config, nullptr));
    }
    return records;
  }

 private:
  Objective& objective_;
};

TEST(ProposerPoolTest, EngineLendsItsPoolToTheProposerInEveryMode) {
  const HyperParameterSpace space = testing::fake_space();
  const auto workers_seen = [&](std::size_t batch, std::size_t threads,
                                bool fleet) {
    testing::FakeObjective objective(space);
    InlineDispatcher dispatcher(objective);
    OptimizerOptions options;
    options.max_function_evaluations = 8;
    options.batch_size = batch;
    options.num_threads = threads;
    if (fleet) options.dispatcher = &dispatcher;
    PoolRecordingProposer proposer(space);
    (void)EvaluationEngine(space, objective, {}, nullptr, options, proposer)
        .run();
    return proposer.workers;
  };
  // One thread: a worker-less pool, which runs everything inline.
  EXPECT_EQ(workers_seen(1, 1, false), std::optional<std::size_t>(0));
  EXPECT_EQ(workers_seen(4, 1, false), std::optional<std::size_t>(0));
  EXPECT_EQ(workers_seen(1, 3, false), std::optional<std::size_t>(2));
  EXPECT_EQ(workers_seen(4, 4, false), std::optional<std::size_t>(3));
  EXPECT_EQ(workers_seen(4, 2, true), std::optional<std::size_t>(1));
}

}  // namespace
}  // namespace hp::core
