// Quickstart: power-constrained hyper-parameter optimization in ~60 lines.
//
// The flow mirrors Figure 2 of the paper: define the NN design space and
// target platform, train the power/memory predictors from an offline
// profiling pass, then run HW-IECI Bayesian optimization under the budgets.

#include <cstdio>

#include "core/framework.hpp"
#include "hw/profiler.hpp"
#include "testbed/testbed_objective.hpp"

int main() {
  using namespace hp;

  // 1. The design space: AlexNet-style MNIST variants (6 hyper-parameters)
  //    and the target platform (simulated GTX 1070).
  const core::BenchmarkProblem problem = core::mnist_problem();
  const hw::DeviceSpec device = hw::gtx1070();

  // 2. The expensive objective: train a candidate, report its test error,
  //    then measure inference power/memory. Here the calibrated testbed
  //    stands in for Caffe + real hardware (see DESIGN.md); swap in
  //    testbed::NnTrainingObjective to train real (tiny) CNNs instead.
  testbed::TestbedObjective objective(
      problem, testbed::mnist_landscape(), device,
      testbed::calibrated_options(problem.name(), device));

  // 3. The practitioner's budgets: 85 W, 680 MB.
  core::ConstraintBudgets budgets;
  budgets.power_w = 85.0;
  budgets.memory_mb = 680.0;

  // 4. Offline phase: profile 80 random architectures through the NVML
  //    path and fit the linear power/memory models by 10-fold CV.
  core::HyperPowerFramework framework(problem, budgets);
  hw::GpuSimulator profiling_gpu(device, /*seed=*/7);
  hw::InferenceProfiler profiler(profiling_gpu);
  const std::size_t profiled =
      framework.train_hardware_models(profiler, 80, /*seed=*/2018);
  std::printf("profiled %zu configurations; power model RMSPE %.2f%%, "
              "memory model RMSPE %.2f%%\n",
              profiled, framework.power_model()->cv.rmspe,
              framework.memory_model()->cv.rmspe);

  // 5. Online phase: HW-IECI Bayesian optimization for 2 (virtual) hours.
  //    HyperPower mode (a-priori model filtering + early termination) is
  //    the OptimizerOptions default.
  core::OptimizerOptions options;
  options.max_runtime_s = 2 * 3600.0;
  options.seed = 1;
  const auto proposer =
      core::make_proposer(core::Method::HwIeci, problem.space());
  core::EvaluationEngine engine(problem.space(), objective, budgets,
                                framework.apriori_constraints(options),
                                options, *proposer);
  const core::RunResult result = engine.run();

  // 6. The best power/memory-feasible network found.
  const auto& trace = result.trace;
  std::printf("queried %zu samples (%zu trained, %zu filtered a priori, "
              "%zu early-terminated)\n",
              trace.size(), trace.completed_count(),
              trace.model_filtered_count(), trace.early_terminated_count());
  if (result.best) {
    const auto& best = *result.best;
    std::printf("best feasible error: %.2f%% at %.1f W / %.0f MB\n",
                best.test_error * 100.0, *best.measured_power_w,
                best.measured_memory_mb.value_or(0.0));
    std::printf("architecture: %s\n",
                problem.to_cnn_spec(best.config).to_string().c_str());
  } else {
    std::printf("no feasible configuration found\n");
  }
  return 0;
}
