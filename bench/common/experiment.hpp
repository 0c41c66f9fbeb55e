#pragma once
// Shared experiment driver used by every table/figure bench: builds the
// paper's four device-dataset pairs (with the paper's budgets), trains the
// hardware models from an offline profiling pass, and runs one optimization
// per (method, mode, seed).

#include <optional>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "testbed/testbed_objective.hpp"

namespace hp::bench {

enum class Dataset { Mnist, Cifar10 };
enum class Platform { Gtx1070, TegraTx1, Gtx1080Ti, JetsonNano };

[[nodiscard]] std::string to_string(Dataset dataset);
[[nodiscard]] std::string to_string(Platform platform);

/// One device-dataset pair with the paper's budgets (Section 5):
/// 85 W / 1.15 GB-equivalent for MNIST on GTX 1070, 90 W / 1.25 GB-equivalent
/// for CIFAR-10 on GTX 1070, 10 W for MNIST on Tegra TX1, 12 W for CIFAR-10
/// on Tegra TX1 (no memory constraint on Tegra, footnote 1). The GB memory
/// budgets are mapped to the same percentile of our simulated platform's
/// memory distribution (see EXPERIMENTS.md).
struct PairSetup {
  std::string label;
  Dataset dataset;
  core::BenchmarkProblem problem;
  testbed::LandscapeParams landscape;
  hw::DeviceSpec device;
  core::ConstraintBudgets budgets;
  double time_budget_s = 0.0;  ///< 2 h for MNIST, 5 h for CIFAR-10
};

[[nodiscard]] PairSetup make_pair(Dataset dataset, Platform platform);

/// The paper's four evaluation pairs, in table-column order.
[[nodiscard]] std::vector<PairSetup> paper_pairs();

/// Hardware models trained from an offline random profiling pass on the
/// pair's device (Section 3.3).
struct TrainedModels {
  std::optional<core::TrainedHardwareModel> power;
  std::optional<core::TrainedHardwareModel> memory;
  std::size_t profiled_samples = 0;
};

[[nodiscard]] TrainedModels train_models(
    const PairSetup& pair, std::size_t num_samples = 100,
    std::uint64_t seed = 2018,
    const core::HardwareModelOptions& options = {});

/// The pair's budgets with @p models as the a-priori power/memory models.
[[nodiscard]] core::HardwareConstraints apriori_constraints(
    const PairSetup& pair, const TrainedModels& models);

/// One optimization run description.
struct RunSpec {
  core::Method method = core::Method::HwIeci;
  bool hyperpower = true;  ///< enhancements on; false = "default" baseline
  /// Figure-4 regime: predicted-violating candidates are still trained.
  bool filter_before_training = true;
  std::optional<std::size_t> max_function_evaluations;
  std::optional<double> max_runtime_s;
  std::uint64_t seed = 1;
};

/// Executes one run against a fresh testbed objective.
[[nodiscard]] core::RunResult run_one(const PairSetup& pair,
                                      const TrainedModels& models,
                                      const RunSpec& spec);

}  // namespace hp::bench
