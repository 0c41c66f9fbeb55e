// Real-training HPO: the full HyperPower loop with genuine CNN training —
// no analytic shortcuts. Uses the tiny MNIST-like problem (12x12 synthetic
// glyphs) so each candidate trains in well under a second, and compares
// constraint-aware random search against HW-IECI Bayesian optimization
// under a power budget on the simulated GTX 1070.

#include <cstdio>

#include "core/framework.hpp"
#include "hw/profiler.hpp"
#include "testbed/nn_objective.hpp"

int main() {
  using namespace hp;

  const core::BenchmarkProblem problem = core::tiny_mnist_problem();

  testbed::NnObjectiveOptions options;
  options.data.train_size = 300;
  options.data.test_size = 150;
  options.data.image_size = 12;
  options.data.seed = 11;
  options.epochs = 5;
  options.batch_size = 30;
  options.seed = 3;
  testbed::NnTrainingObjective objective(problem, testbed::SyntheticDataset::Mnist,
                                         hw::gtx1070(), options);

  core::ConstraintBudgets budgets;
  budgets.power_w = 55.0;  // tight for the tiny space

  core::HyperPowerFramework framework(problem, budgets);
  hw::GpuSimulator profiling_gpu(hw::gtx1070(), 5);
  hw::InferenceProfiler profiler(profiling_gpu);
  (void)framework.train_hardware_models(profiler, 60, 2018);
  std::printf("power model RMSPE: %.2f%% over %zu profiled configs\n\n",
              framework.power_model()->cv.rmspe,
              framework.power_model()->sample_count);

  core::OptimizerOptions search_options;  // HyperPower mode by default
  search_options.max_function_evaluations = 12;  // 12 real trainings
  search_options.max_samples = 600;
  search_options.seed = 17;
  for (const core::Method method : {core::Method::Rand, core::Method::HwIeci}) {
    objective.clock().advance(0.0);  // (clock is per-objective; runs share it)
    const auto proposer = core::make_proposer(method, problem.space());
    core::EvaluationEngine engine(problem.space(), objective, budgets,
                                  framework.apriori_constraints(search_options),
                                  search_options, *proposer);
    const core::RunResult result = engine.run();

    const auto& trace = result.trace;
    std::printf("%s: %zu trainings, %zu candidates filtered a priori, "
                "%zu early-terminated\n",
                proposer->name().c_str(), trace.completed_count(),
                trace.model_filtered_count(), trace.early_terminated_count());
    if (result.best) {
      const auto& best = *result.best;
      std::printf("  best: %.1f%% test error at %.1f W  --  %s\n",
                  best.test_error * 100.0, *best.measured_power_w,
                  problem.to_cnn_spec(best.config).to_string().c_str());
      const auto settings = problem.training_settings(best.config);
      std::printf("  trained with lr %.4f, momentum %.3f\n\n",
                  settings.learning_rate, settings.momentum);
    } else {
      std::printf("  no feasible configuration found\n\n");
    }
  }
  std::printf("(every test error above comes from actually training a CNN "
              "with the built-in\n nn substrate: im2col convolutions, "
              "max-pooling, SGD with momentum)\n");
  return 0;
}
