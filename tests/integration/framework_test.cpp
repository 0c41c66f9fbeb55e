// Integration tests: the full HyperPower flow (Figure 2) — profile, train
// hardware models, optimize under budgets — against the analytic testbed.

#include "core/framework.hpp"

#include <gtest/gtest.h>

#include "testbed/testbed_objective.hpp"

namespace hp::core {
namespace {

class FrameworkTest : public ::testing::Test {
 protected:
  FrameworkTest()
      : problem_(mnist_problem()),
        objective_(problem_, testbed::mnist_landscape(), hw::gtx1070(),
                   testbed::calibrated_options("mnist", hw::gtx1070())) {
    budgets_.power_w = 85.0;
    budgets_.memory_mb = 680.0;
  }

  /// Trains the framework's hardware models from a fresh profiling pass.
  void train_models(HyperPowerFramework& fw) {
    hw::GpuSimulator sim(hw::gtx1070(), 33);
    hw::InferenceProfiler profiler(sim);
    const std::size_t n = fw.train_hardware_models(profiler, 60, 21);
    ASSERT_GE(n, 50u);
  }

  /// One online-phase search with @p method over the fixture's objective.
  RunResult search(const HyperPowerFramework& fw, Method method,
                   const OptimizerOptions& options) {
    const auto proposer = make_proposer(method, problem_.space());
    return EvaluationEngine(problem_.space(), objective_, budgets_,
                            fw.apriori_constraints(options), options,
                            *proposer)
        .run();
  }

  /// HyperPower mode (a-priori models + early termination) on or off.
  static OptimizerOptions mode(bool hyperpower) {
    OptimizerOptions options;
    options.use_hardware_models = hyperpower;
    options.use_early_termination = hyperpower;
    return options;
  }

  BenchmarkProblem problem_;
  testbed::TestbedObjective objective_;
  ConstraintBudgets budgets_;
};

TEST_F(FrameworkTest, TrainedModelsMeetPaperAccuracy) {
  HyperPowerFramework fw(problem_, budgets_);
  train_models(fw);
  ASSERT_TRUE(fw.power_model().has_value());
  EXPECT_LT(fw.power_model()->cv.rmspe, 7.0);  // Table 1: always < 7%
  ASSERT_TRUE(fw.memory_model().has_value());
  EXPECT_LT(fw.memory_model()->cv.rmspe, 7.0);
}

TEST_F(FrameworkTest, HyperPowerModeRequiresModels) {
  HyperPowerFramework fw(problem_, budgets_);
  EXPECT_THROW((void)fw.apriori_constraints(mode(true)), std::logic_error);
}

TEST_F(FrameworkTest, DefaultModeRunsWithoutModels) {
  HyperPowerFramework fw(problem_, budgets_);
  OptimizerOptions opt = mode(false);
  opt.max_function_evaluations = 4;
  opt.seed = 5;
  EXPECT_EQ(fw.apriori_constraints(opt), nullptr);
  const RunResult result = search(fw, Method::Rand, opt);
  EXPECT_EQ(result.trace.function_evaluations(), 4u);
  EXPECT_EQ(result.trace.model_filtered_count(), 0u);
}

TEST_F(FrameworkTest, MakeProposerNamesEveryMethod) {
  // Journal headers and the CLI's --resume check key on this name.
  for (Method m : {Method::Rand, Method::RandWalk, Method::HwCwei,
                   Method::HwIeci}) {
    EXPECT_EQ(make_proposer(m, problem_.space())->name(), to_string(m));
  }
}

TEST_F(FrameworkTest, AllFourMethodsRunInBothModes) {
  HyperPowerFramework fw(problem_, budgets_);
  train_models(fw);
  for (Method m : {Method::Rand, Method::RandWalk, Method::HwCwei,
                   Method::HwIeci}) {
    for (bool hyperpower : {false, true}) {
      objective_.virtual_clock().reset();
      OptimizerOptions opt = mode(hyperpower);
      opt.max_function_evaluations = 3;
      opt.max_samples = 300;
      opt.seed = 7;
      const RunResult result = search(fw, m, opt);
      EXPECT_EQ(result.trace.function_evaluations(), 3u)
          << to_string(m) << " hyperpower=" << hyperpower;
    }
  }
}

TEST_F(FrameworkTest, HyperPowerRandQueriesManyMoreSamplesPerHour) {
  // Table 4's headline effect: within the same time budget, the
  // constraint-aware Rand queries far more samples than exhaustive Rand.
  HyperPowerFramework fw(problem_, budgets_);
  train_models(fw);

  OptimizerOptions def = mode(false);
  def.max_runtime_s = 3600.0;
  def.seed = 11;
  objective_.virtual_clock().reset();
  const RunResult default_run = search(fw, Method::Rand, def);

  OptimizerOptions hp_mode = mode(true);
  hp_mode.max_runtime_s = def.max_runtime_s;
  hp_mode.seed = def.seed;
  objective_.virtual_clock().reset();
  const RunResult hyper_run = search(fw, Method::Rand, hp_mode);

  EXPECT_GT(hyper_run.trace.size(), 3 * default_run.trace.size());
  // And the best error found is at least as good (usually much better).
  const double def_best =
      default_run.best ? default_run.best->test_error : 1.0;
  const double hp_best = hyper_run.best ? hyper_run.best->test_error : 1.0;
  EXPECT_LE(hp_best, def_best + 0.01);
}

TEST_F(FrameworkTest, HwIeciRarelyTrainsViolatingSamples) {
  HyperPowerFramework fw(problem_, budgets_);
  train_models(fw);
  // The paper reports zero constraint-violating samples for HW-IECI; with
  // a ~3% RMSPE model a rare borderline miss is possible but must stay
  // marginal. Any one seed is a single draw — a run near the budget can
  // take three misses — so the claim is checked over twenty seeds: at
  // most one miss per 15-evaluation run on average. Searching without the
  // a-priori models trains ~4.5 violating samples per run here.
  std::size_t violations = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    OptimizerOptions opt = mode(true);
    opt.max_function_evaluations = 15;
    opt.max_samples = 2000;
    opt.seed = seed;
    objective_.virtual_clock().reset();
    violations +=
        search(fw, Method::HwIeci, opt).trace.measured_violation_count();
  }
  EXPECT_LE(violations, 20u);
}

TEST_F(FrameworkTest, SetHardwareModelsInstallsExternalModels) {
  HyperPowerFramework fw(problem_, budgets_);
  EXPECT_FALSE(fw.has_hardware_models());
  fw.set_hardware_models(
      HardwareModel(ModelForm::Linear, linalg::Vector{1.0, 1.0, 1.0, 0.01},
                    30.0, 2.0),
      std::nullopt);
  EXPECT_TRUE(fw.has_hardware_models());
  OptimizerOptions opt = mode(true);
  opt.max_function_evaluations = 2;
  opt.max_samples = 500;
  opt.seed = 3;
  EXPECT_NE(fw.apriori_constraints(opt), nullptr);
  EXPECT_NO_THROW((void)search(fw, Method::Rand, opt));
}

TEST_F(FrameworkTest, MethodNamesAndKinds) {
  EXPECT_EQ(to_string(Method::Rand), "Rand");
  EXPECT_EQ(to_string(Method::RandWalk), "Rand-Walk");
  EXPECT_EQ(to_string(Method::HwCwei), "HW-CWEI");
  EXPECT_EQ(to_string(Method::HwIeci), "HW-IECI");
  EXPECT_FALSE(is_bayesian(Method::Rand));
  EXPECT_FALSE(is_bayesian(Method::RandWalk));
  EXPECT_TRUE(is_bayesian(Method::HwCwei));
  EXPECT_TRUE(is_bayesian(Method::HwIeci));
}

TEST_F(FrameworkTest, ProfilingRequiresEnoughSamples) {
  HyperPowerFramework fw(problem_, budgets_);
  hw::GpuSimulator sim(hw::gtx1070(), 1);
  hw::InferenceProfiler profiler(sim);
  EXPECT_THROW((void)fw.train_hardware_models(profiler, 5, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace hp::core
