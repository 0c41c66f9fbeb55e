// Searches run end to end: a Proposer driven by the EvaluationEngine.

#include <gtest/gtest.h>

#include "core/bayes_opt.hpp"
#include "core/evaluation_engine.hpp"
#include "core/random_search.hpp"
#include "core/random_walk.hpp"
#include "fake_objective.hpp"

namespace hp::core {
namespace {

using testing::FakeObjective;
using testing::fake_space;

/// Power model in structural z (= unit a in [0,1], scaled by 100 in the
/// fake objective): P(z) = 100 * z.
HardwareConstraints make_constraints(double power_budget) {
  ConstraintBudgets budgets;
  budgets.power_w = power_budget;
  return HardwareConstraints(
      budgets,
      HardwareModel(ModelForm::Linear, linalg::Vector{100.0}, 0.0, 0.5),
      std::nullopt);
}

OptimizerOptions fixed_evals(std::size_t n, std::uint64_t seed = 1) {
  OptimizerOptions opt;
  opt.max_function_evaluations = n;
  opt.seed = seed;
  return opt;
}

TEST(RandomSearch, StopsAtMaxFunctionEvaluations) {
  auto space = fake_space();
  FakeObjective obj(space);
  RandomSearchProposer rand(space);
  const auto result =
      EvaluationEngine(space, obj, {}, nullptr, fixed_evals(12), rand).run();
  EXPECT_EQ(result.trace.function_evaluations(), 12u);
  EXPECT_EQ(obj.evaluations(), 12u);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_LT(result.best->test_error, 0.5);
}

TEST(RandomSearch, StopsAtTimeBudgetAllowingLastSample) {
  auto space = fake_space();
  FakeObjective obj(space, /*cost_s=*/10.0);
  OptimizerOptions opt;
  opt.max_runtime_s = 95.0;
  opt.seed = 2;
  RandomSearchProposer rand(space);
  const auto result =
      EvaluationEngine(space, obj, {}, nullptr, opt, rand).run();
  // Each sample costs 10s + 0.5s proposal overhead: the run crosses 95s
  // mid-sample and finishes it (like the paper's wall-clock runs).
  EXPECT_GE(result.trace.total_time_s(), 95.0);
  EXPECT_LT(result.trace.total_time_s(), 120.0);
}

TEST(RandomSearch, ModelFilterPreventsObjectiveCalls) {
  auto space = fake_space();
  FakeObjective obj(space);
  const auto constraints = make_constraints(60.0);
  OptimizerOptions opt;
  opt.max_samples = 50;
  opt.max_function_evaluations = 1000;
  opt.seed = 3;
  RandomSearchProposer rand(space);
  const auto result = EvaluationEngine(space, obj, constraints.budgets(),
                                       &constraints, opt, rand)
                          .run();
  // About 40% of the space is predicted-infeasible: those samples never
  // reach the objective.
  EXPECT_GT(result.trace.model_filtered_count(), 5u);
  EXPECT_EQ(result.trace.function_evaluations(), obj.evaluations());
  EXPECT_EQ(result.trace.size(), 50u);
  // Every filtered record is marked violating-by-prediction.
  for (const auto& r : result.trace.records()) {
    if (r.status == EvaluationStatus::ModelFiltered) {
      EXPECT_TRUE(r.violates_constraints);
      EXPECT_GT(r.config[0], 0.55);  // the predicted-infeasible region
    }
  }
}

TEST(RandomSearch, DefaultModeIgnoresModelsButDetectsViolations) {
  auto space = fake_space();
  FakeObjective obj(space);
  const auto constraints = make_constraints(60.0);
  OptimizerOptions opt = fixed_evals(30, 4);
  opt.use_hardware_models = false;  // "default" exhaustive mode
  RandomSearchProposer rand(space);
  const auto result = EvaluationEngine(space, obj, constraints.budgets(),
                                       &constraints, opt, rand)
                          .run();
  EXPECT_EQ(result.trace.model_filtered_count(), 0u);
  EXPECT_EQ(result.trace.function_evaluations(), 30u);
  // Violations are detected from measured power after full evaluation.
  EXPECT_GT(result.trace.measured_violation_count(), 3u);
  // The incumbent never violates.
  ASSERT_TRUE(result.best.has_value());
  EXPECT_LE(*result.best->measured_power_w, 60.0);
}

TEST(RandomSearch, EarlyTerminationShortensDivergingRuns) {
  auto space = fake_space();
  FakeObjective obj(space);
  obj.set_diverge_above(0.5);  // half the b-range diverges
  OptimizerOptions opt = fixed_evals(40, 5);
  opt.use_early_termination = true;
  RandomSearchProposer rand(space);
  const auto result =
      EvaluationEngine(space, obj, {}, nullptr, opt, rand).run();
  EXPECT_GT(result.trace.early_terminated_count(), 5u);
  for (const auto& r : result.trace.records()) {
    if (r.status == EvaluationStatus::EarlyTerminated) {
      EXPECT_LT(r.cost_s, 2.0);  // a tenth of the full 10s
      EXPECT_TRUE(r.diverged);
    }
  }
}

TEST(RandomWalk, CentersProposalsOnIncumbent) {
  auto space = fake_space();
  FakeObjective obj(space, 1.0);
  RandomWalkOptions walk;
  walk.sigma0 = 0.05;
  RandomWalkProposer rw(space, walk);
  const auto result =
      EvaluationEngine(space, obj, {}, nullptr, fixed_evals(60, 6), rw).run();
  ASSERT_TRUE(result.best.has_value());
  // With a tight walk the method should have drifted toward the optimum.
  EXPECT_LT(result.best->test_error, 0.05);
  // Late samples cluster near the optimum (0.3, 0.7).
  const auto& records = result.trace.records();
  double late_dist = 0.0;
  int n = 0;
  for (std::size_t i = records.size() - 10; i < records.size(); ++i) {
    late_dist += std::abs(records[i].config[0] - 0.3);
    ++n;
  }
  EXPECT_LT(late_dist / n, 0.25);
}

TEST(RandomWalk, InvalidSigmaThrows) {
  auto space = fake_space();
  RandomWalkOptions walk;
  walk.sigma0 = 0.0;
  EXPECT_THROW(RandomWalkProposer(space, walk), std::invalid_argument);
}

TEST(BayesOpt, FindsOptimumFasterThanItsInitialDesign) {
  auto space = fake_space();
  FakeObjective obj(space, 1.0);
  BayesOptOptions bo;
  bo.initial_design = 4;
  bo.pool.lattice_points = 150;
  bo.pool.random_points = 50;
  BayesOptProposer ei(space,
                      std::make_unique<ExpectedImprovementAcquisition>(), bo);
  const auto result =
      EvaluationEngine(space, obj, {}, nullptr, fixed_evals(20, 7), ei).run();
  ASSERT_TRUE(result.best.has_value());
  EXPECT_LT(result.best->test_error, 0.02);
  EXPECT_EQ(ei.name(), "EI");
}

TEST(BayesOpt, HwIeciNeverProposesPredictedViolations) {
  auto space = fake_space();
  FakeObjective obj(space, 1.0);
  const auto constraints = make_constraints(60.0);
  BayesOptOptions bo;
  bo.initial_design = 3;
  OptimizerOptions opt;
  opt.max_function_evaluations = 15;
  opt.max_samples = 500;
  opt.seed = 8;
  BayesOptProposer ieci(space, std::make_unique<HwIeciAcquisition>(), bo);
  const auto result = EvaluationEngine(space, obj, constraints.budgets(),
                                       &constraints, opt, ieci)
                          .run();
  EXPECT_EQ(ieci.name(), "HW-IECI");
  // Once past the random initial design, every *trained* sample was
  // predicted feasible (model-filtered ones never reach the objective).
  for (const auto& r : result.trace.records()) {
    if (r.status == EvaluationStatus::Completed) {
      EXPECT_LE(r.config[0], 0.61) << "sample " << r.index;
    }
  }
  // And the optimum under the constraint is near a=0.3 (feasible anyway).
  ASSERT_TRUE(result.best.has_value());
  EXPECT_LT(result.best->test_error, 0.05);
}

TEST(BayesOpt, NullAcquisitionThrows) {
  auto space = fake_space();
  EXPECT_THROW(BayesOptProposer(space, nullptr), std::invalid_argument);
}

TEST(BayesOpt, OverheadGrowsWithObservations) {
  auto space = fake_space();
  FakeObjective obj(space, 1.0);
  BayesOptProposer ei(space,
                      std::make_unique<ExpectedImprovementAcquisition>());
  const auto result =
      EvaluationEngine(space, obj, {}, nullptr, fixed_evals(10, 9), ei).run();
  const auto& rec = result.trace.records();
  // Timestamps spacing grows: later proposals pay larger model-fit cost.
  const double first_gap = rec[1].timestamp_s - rec[0].timestamp_s;
  const double last_gap =
      rec[rec.size() - 1].timestamp_s - rec[rec.size() - 2].timestamp_s;
  EXPECT_GT(last_gap, first_gap);
}

TEST(Optimizer, MaxSamplesGuardsAgainstFilterLoops) {
  auto space = fake_space();
  FakeObjective obj(space);
  // Budget 0: everything predicted infeasible, nothing ever trains.
  const auto constraints = make_constraints(0.0);
  OptimizerOptions opt;
  opt.max_samples = 25;
  opt.seed = 10;
  RandomSearchProposer rand(space);
  const auto result = EvaluationEngine(space, obj, constraints.budgets(),
                                       &constraints, opt, rand)
                          .run();
  EXPECT_EQ(result.trace.size(), 25u);
  EXPECT_EQ(obj.evaluations(), 0u);
  EXPECT_FALSE(result.best.has_value());
}

TEST(Optimizer, TimestampsAreMonotone) {
  auto space = fake_space();
  FakeObjective obj(space, 3.0);
  RandomSearchProposer rand(space);
  const auto result =
      EvaluationEngine(space, obj, {}, nullptr, fixed_evals(15, 11), rand)
          .run();
  double prev = -1.0;
  for (const auto& r : result.trace.records()) {
    EXPECT_GT(r.timestamp_s, prev);
    prev = r.timestamp_s;
  }
}

TEST(Optimizer, IndicesAreSequential) {
  auto space = fake_space();
  FakeObjective obj(space);
  RandomSearchProposer rand(space);
  const auto result =
      EvaluationEngine(space, obj, {}, nullptr, fixed_evals(8, 12), rand).run();
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    EXPECT_EQ(result.trace.records()[i].index, i);
  }
}

TEST(Optimizer, DeterministicForSeed) {
  auto space = fake_space();
  FakeObjective obj1(space), obj2(space);
  RandomSearchProposer a(space), b(space);
  const auto ra =
      EvaluationEngine(space, obj1, {}, nullptr, fixed_evals(10, 77), a).run();
  const auto rb =
      EvaluationEngine(space, obj2, {}, nullptr, fixed_evals(10, 77), b).run();
  ASSERT_EQ(ra.trace.size(), rb.trace.size());
  for (std::size_t i = 0; i < ra.trace.size(); ++i) {
    EXPECT_EQ(ra.trace.records()[i].config, rb.trace.records()[i].config);
  }
}

}  // namespace
}  // namespace hp::core
