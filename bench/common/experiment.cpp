#include "common/experiment.hpp"

#include <stdexcept>

#include "hw/profiler.hpp"

namespace hp::bench {

std::string to_string(Dataset dataset) {
  return dataset == Dataset::Mnist ? "MNIST" : "CIFAR-10";
}

std::string to_string(Platform platform) {
  switch (platform) {
    case Platform::Gtx1070:
      return "GTX 1070";
    case Platform::TegraTx1:
      return "Tegra TX1";
    case Platform::Gtx1080Ti:
      return "GTX 1080 Ti";
    case Platform::JetsonNano:
      return "Jetson Nano";
  }
  return "unknown";
}

namespace {

hw::DeviceSpec device_for(Platform platform) {
  switch (platform) {
    case Platform::Gtx1070:
      return hw::gtx1070();
    case Platform::TegraTx1:
      return hw::tegra_tx1();
    case Platform::Gtx1080Ti:
      return hw::gtx1080ti();
    case Platform::JetsonNano:
      return hw::jetson_nano();
  }
  throw std::invalid_argument("unknown platform");
}

}  // namespace

PairSetup make_pair(Dataset dataset, Platform platform) {
  const bool mnist = dataset == Dataset::Mnist;
  PairSetup pair{
      to_string(dataset) + " - " + to_string(platform),
      dataset,
      mnist ? core::mnist_problem() : core::cifar10_problem(),
      mnist ? testbed::mnist_landscape() : testbed::cifar10_landscape(),
      device_for(platform),
      {},
      mnist ? 2.0 * 3600.0 : 5.0 * 3600.0,
  };
  // The paper's budgets (Section 5, "fixed runtime" setup).
  if (platform == Platform::Gtx1070) {
    pair.budgets.power_w = mnist ? 85.0 : 90.0;
    // 1.15 GB / 1.25 GB mapped to the same percentile of our simulated
    // platform's memory distribution (~75th / ~80th).
    pair.budgets.memory_mb = mnist ? 680.0 : 720.0;
  } else if (platform == Platform::TegraTx1) {
    pair.budgets.power_w = mnist ? 10.0 : 12.0;
    // No memory constraint on Tegra (paper footnote 1).
  } else if (platform == Platform::Gtx1080Ti) {
    pair.budgets.power_w = mnist ? 140.0 : 150.0;
    pair.budgets.memory_mb = mnist ? 740.0 : 780.0;
  } else {
    pair.budgets.power_w = mnist ? 7.0 : 8.0;
  }
  return pair;
}

std::vector<PairSetup> paper_pairs() {
  std::vector<PairSetup> pairs;
  pairs.push_back(make_pair(Dataset::Mnist, Platform::Gtx1070));
  pairs.push_back(make_pair(Dataset::Cifar10, Platform::Gtx1070));
  pairs.push_back(make_pair(Dataset::Mnist, Platform::TegraTx1));
  pairs.push_back(make_pair(Dataset::Cifar10, Platform::TegraTx1));
  return pairs;
}

TrainedModels train_models(const PairSetup& pair, std::size_t num_samples,
                           std::uint64_t seed,
                           const core::HardwareModelOptions& options) {
  hw::GpuSimulator simulator(pair.device, seed ^ 0xbeefULL);
  hw::InferenceProfiler profiler(simulator);
  stats::Rng rng(seed);
  std::vector<nn::CnnSpec> specs;
  std::size_t attempts = 0;
  while (specs.size() < num_samples && attempts < num_samples * 20) {
    ++attempts;
    const core::Configuration config = pair.problem.space().sample(rng);
    nn::CnnSpec spec = pair.problem.to_cnn_spec(config);
    if (nn::is_feasible(spec)) specs.push_back(std::move(spec));
  }
  const auto samples = profiler.profile_all(specs);

  TrainedModels models;
  models.profiled_samples = samples.size();
  models.power = core::train_power_model(samples, options);
  models.memory = core::train_memory_model(samples, options);
  return models;
}

core::HardwareConstraints apriori_constraints(const PairSetup& pair,
                                              const TrainedModels& models) {
  return core::HardwareConstraints(
      pair.budgets,
      models.power ? std::optional<core::HardwareModel>(models.power->model)
                   : std::nullopt,
      models.memory ? std::optional<core::HardwareModel>(models.memory->model)
                    : std::nullopt);
}

core::RunResult run_one(const PairSetup& pair, const TrainedModels& models,
                        const RunSpec& spec) {
  testbed::TestbedOptions options = testbed::calibrated_options(
      pair.problem.name(), pair.device);
  options.run_seed = spec.seed;
  options.sensor_seed = spec.seed ^ 0x5eed5eedULL;
  testbed::TestbedObjective objective(pair.problem, pair.landscape,
                                      pair.device, options);

  const core::HardwareConstraints constraints =
      apriori_constraints(pair, models);
  core::OptimizerOptions opt;
  opt.use_hardware_models = spec.hyperpower;
  opt.use_early_termination = spec.hyperpower;
  opt.seed = spec.seed;
  opt.filter_before_training = spec.filter_before_training;
  if (spec.max_function_evaluations) {
    opt.max_function_evaluations = *spec.max_function_evaluations;
  }
  if (spec.max_runtime_s) {
    opt.max_runtime_s = *spec.max_runtime_s;
  }
  opt.max_samples = 100000;
  const std::unique_ptr<core::Proposer> proposer =
      core::make_proposer(spec.method, pair.problem.space());
  return core::EvaluationEngine(pair.problem.space(), objective, pair.budgets,
                                &constraints, opt, *proposer)
      .run();
}

}  // namespace hp::bench
