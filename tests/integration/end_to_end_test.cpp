// End-to-end tests through the REAL training path: tiny problems, actual
// CNN training on synthetic data, simulated NVML measurement — the whole
// HyperPower loop with no analytic shortcuts.

#include <gtest/gtest.h>

#include "core/framework.hpp"
#include "testbed/nn_objective.hpp"

namespace hp::testbed {
namespace {

NnObjectiveOptions fast_options(std::uint64_t seed = 1) {
  NnObjectiveOptions opt;
  opt.data.train_size = 100;
  opt.data.test_size = 60;
  opt.data.image_size = 12;
  opt.data.seed = 9;
  opt.epochs = 3;
  opt.batch_size = 25;
  opt.seed = seed;
  return opt;
}

TEST(NnObjective, RejectsMismatchedInputShape) {
  const auto problem = core::mnist_problem();  // expects 28x28
  EXPECT_THROW(NnTrainingObjective(problem, SyntheticDataset::Mnist,
                                   hw::gtx1070(), fast_options()),
               std::invalid_argument);
}

TEST(NnObjective, TrainsARealNetworkAndMeasuresHardware) {
  const auto problem = core::tiny_mnist_problem();
  NnTrainingObjective objective(problem, SyntheticDataset::Mnist,
                                hw::gtx1070(), fast_options());
  const core::Configuration config{8, 3, 2, 32, 0.05, 0.9};
  const auto r = objective.evaluate(config, nullptr);
  EXPECT_EQ(r.status, core::EvaluationStatus::Completed);
  EXPECT_LT(r.test_error, 0.9);  // learned something beyond chance
  ASSERT_TRUE(r.measured_power_w.has_value());
  EXPECT_GT(*r.measured_power_w, 30.0);
  ASSERT_TRUE(r.measured_memory_mb.has_value());
  EXPECT_GT(r.cost_s, 0.0);
}

TEST(NnObjective, EarlyTerminationStopsHopelessTraining) {
  const auto problem = core::tiny_mnist_problem();
  NnTrainingObjective objective(problem, SyntheticDataset::Mnist,
                                hw::gtx1070(), fast_options());
  // Absurd learning rate diverges immediately.
  const core::Configuration config{8, 3, 2, 32, 0.1, 0.95};
  const core::EarlyTerminationRule rule(1, 0.9, 0.05);
  const auto r = objective.evaluate(config, &rule);
  // Either the trainer detects non-finite weights or the rule fires; both
  // must map to EarlyTerminated under an active rule.
  if (r.status == core::EvaluationStatus::EarlyTerminated) {
    EXPECT_FALSE(r.measured_power_w.has_value());
  } else {
    // Converged despite the aggressive rate — acceptable but must be real.
    EXPECT_EQ(r.status, core::EvaluationStatus::Completed);
  }
}

TEST(NnObjective, FullHyperPowerLoopOnRealTraining) {
  // The complete Figure-2 flow with genuine training: profile, fit models,
  // run constrained random search.
  const auto problem = core::tiny_mnist_problem();
  NnTrainingObjective objective(problem, SyntheticDataset::Mnist,
                                hw::gtx1070(), fast_options(3));

  core::ConstraintBudgets budgets;
  budgets.power_w = 60.0;  // tight for the tiny space
  core::HyperPowerFramework fw(problem, budgets);
  hw::GpuSimulator profiling_sim(hw::gtx1070(), 55);
  hw::InferenceProfiler profiler(profiling_sim);
  const std::size_t profiled = fw.train_hardware_models(profiler, 40, 77);
  EXPECT_GE(profiled, 30u);

  core::OptimizerOptions opt;
  opt.max_function_evaluations = 5;
  opt.max_samples = 200;
  opt.seed = 4;
  const auto proposer =
      core::make_proposer(core::Method::Rand, problem.space());
  const auto result =
      core::EvaluationEngine(problem.space(), objective, budgets,
                             fw.apriori_constraints(opt), opt, *proposer)
          .run();
  EXPECT_EQ(result.trace.function_evaluations(), 5u);
  // Trained samples respect the budget by prediction; measured violations
  // should be rare.
  EXPECT_LE(result.trace.measured_violation_count(), 2u);
  if (result.best) {
    EXPECT_LE(*result.best->measured_power_w, budgets.power_w.value());
  }
}

TEST(NnObjective, CifarVariantRuns) {
  const auto problem = core::tiny_cifar_problem();
  NnObjectiveOptions opt = fast_options(5);
  opt.data.image_size = 16;
  NnTrainingObjective objective(problem, SyntheticDataset::Cifar,
                                hw::tegra_tx1(), opt);
  const core::Configuration config{8, 3, 2, 8, 2, 2, 32, 0.03, 0.85, 0.001};
  const auto r = objective.evaluate(config, nullptr);
  EXPECT_EQ(r.status, core::EvaluationStatus::Completed);
  ASSERT_TRUE(r.measured_power_w.has_value());
  EXPECT_FALSE(r.measured_memory_mb.has_value());  // Tegra footnote 1
}

TEST(NnObjective, VirtualClockChargedWhenEnabled) {
  const auto problem = core::tiny_mnist_problem();
  NnTrainingObjective objective(problem, SyntheticDataset::Mnist,
                                hw::gtx1070(), fast_options(6));
  const double before = objective.clock().now_s();
  const core::Configuration config{6, 2, 2, 16, 0.02, 0.85};
  const auto r = objective.evaluate(config, nullptr);
  EXPECT_NEAR(objective.clock().now_s() - before, r.cost_s, 1e-9);
}

}  // namespace
}  // namespace hp::testbed
