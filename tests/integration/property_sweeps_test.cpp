// Property-style sweeps over seeds and methods: invariants that must hold
// for every run the framework produces, regardless of configuration.

#include <gtest/gtest.h>

#include "core/framework.hpp"
#include "testbed/testbed_objective.hpp"

namespace hp::core {
namespace {

struct SweepCase {
  Method method;
  bool hyperpower;
  std::uint64_t seed;
};

std::string sweep_name(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name = to_string(info.param.method);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + (info.param.hyperpower ? "_hp_" : "_def_") +
         std::to_string(info.param.seed);
}

class RunInvariants : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RunInvariants, HoldOnMnistRuns) {
  const SweepCase param = GetParam();
  const BenchmarkProblem problem = mnist_problem();
  testbed::TestbedOptions opt =
      testbed::calibrated_options("mnist", hw::gtx1070());
  opt.run_seed = param.seed;
  testbed::TestbedObjective objective(problem, testbed::mnist_landscape(),
                                      hw::gtx1070(), opt);
  ConstraintBudgets budgets;
  budgets.power_w = 85.0;
  HyperPowerFramework framework(problem, budgets);
  hw::GpuSimulator sim(hw::gtx1070(), param.seed);
  hw::InferenceProfiler profiler(sim);
  (void)framework.train_hardware_models(profiler, 60, 2018);

  OptimizerOptions oo;
  oo.use_hardware_models = param.hyperpower;
  oo.use_early_termination = param.hyperpower;
  oo.max_runtime_s = 1200.0;  // 20 virtual minutes
  oo.max_samples = 5000;
  oo.seed = param.seed;
  const auto proposer = make_proposer(param.method, problem.space());
  const RunResult result =
      EvaluationEngine(problem.space(), objective, budgets,
                       framework.apriori_constraints(oo), oo, *proposer)
          .run();
  const auto& records = result.trace.records();

  // Invariant 1: timestamps strictly increase and costs are non-negative.
  double prev_ts = -1.0;
  for (const auto& r : records) {
    EXPECT_GT(r.timestamp_s, prev_ts);
    prev_ts = r.timestamp_s;
    EXPECT_GE(r.cost_s, 0.0);
    EXPECT_GE(r.test_error, 0.0);
    EXPECT_LE(r.test_error, 1.0);
  }

  // Invariant 2: indices are dense and ordered.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].index, i);
  }

  // Invariant 3: the reported best is feasible, completed, and no worse
  // than any other feasible completed record.
  if (result.best) {
    EXPECT_TRUE(result.best->counts_for_best());
    for (const auto& r : records) {
      if (r.counts_for_best()) {
        EXPECT_LE(result.best->test_error, r.test_error);
      }
    }
  }

  // Invariant 4: in default mode nothing is ever model-filtered; in
  // HyperPower mode filtered records are violating-by-prediction.
  for (const auto& r : records) {
    if (!param.hyperpower) {
      EXPECT_NE(r.status, EvaluationStatus::ModelFiltered);
    } else if (r.status == EvaluationStatus::ModelFiltered) {
      EXPECT_TRUE(r.violates_constraints);
    }
  }

  // Invariant 5: the run respects the time budget up to one in-flight
  // sample (the paper lets the last sample complete).
  if (records.size() >= 2) {
    EXPECT_LT(records[records.size() - 2].timestamp_s,
              oo.max_runtime_s + 1e-9);
  }

  // Invariant 6: statuses partition the trace.
  EXPECT_EQ(result.trace.function_evaluations() +
                result.trace.model_filtered_count() +
                [&] {
                  std::size_t infeasible = 0;
                  for (const auto& r : records) {
                    if (r.status == EvaluationStatus::InfeasibleArchitecture) {
                      ++infeasible;
                    }
                  }
                  return infeasible;
                }(),
            result.trace.size());
}

INSTANTIATE_TEST_SUITE_P(
    MethodsModesSeeds, RunInvariants,
    ::testing::Values(
        SweepCase{Method::Rand, true, 1}, SweepCase{Method::Rand, true, 2},
        SweepCase{Method::Rand, false, 1},
        SweepCase{Method::RandWalk, true, 1},
        SweepCase{Method::RandWalk, false, 2},
        SweepCase{Method::HwCwei, true, 1},
        SweepCase{Method::HwCwei, false, 1},
        SweepCase{Method::HwIeci, true, 1},
        SweepCase{Method::HwIeci, true, 2},
        SweepCase{Method::HwIeci, false, 1}),
    sweep_name);

class SeedDeterminism : public ::testing::TestWithParam<Method> {};

TEST_P(SeedDeterminism, IdenticalRunsForIdenticalSeeds) {
  const BenchmarkProblem problem = mnist_problem();
  ConstraintBudgets budgets;
  budgets.power_w = 85.0;
  const auto run_once = [&](std::uint64_t seed) {
    testbed::TestbedOptions opt =
        testbed::calibrated_options("mnist", hw::gtx1070());
    opt.run_seed = seed;
    testbed::TestbedObjective objective(problem, testbed::mnist_landscape(),
                                        hw::gtx1070(), opt);
    HyperPowerFramework framework(problem, budgets);
    hw::GpuSimulator sim(hw::gtx1070(), 5);
    hw::InferenceProfiler profiler(sim);
    (void)framework.train_hardware_models(profiler, 60, 2018);
    OptimizerOptions oo;
    oo.max_function_evaluations = 5;
    oo.max_samples = 3000;
    oo.seed = seed;
    const auto proposer = make_proposer(GetParam(), problem.space());
    return EvaluationEngine(problem.space(), objective, budgets,
                            framework.apriori_constraints(oo), oo, *proposer)
        .run();
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace.records()[i].config, b.trace.records()[i].config);
    EXPECT_EQ(a.trace.records()[i].test_error,
              b.trace.records()[i].test_error);
    EXPECT_EQ(a.trace.records()[i].timestamp_s,
              b.trace.records()[i].timestamp_s);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SeedDeterminism,
                         ::testing::Values(Method::Rand, Method::RandWalk,
                                           Method::HwCwei, Method::HwIeci),
                         [](const ::testing::TestParamInfo<Method>& param) {
                           std::string name = to_string(param.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hp::core
