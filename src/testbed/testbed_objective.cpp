#include "testbed/testbed_objective.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"

namespace hp::testbed {

namespace {

/// Salts the detached-path fault stream so it never collides with the
/// measurement-noise stream, which is keyed off the same spec hash.
constexpr std::uint64_t kDetachedFaultSalt = 0x7f4a7c159e3779b9ULL;

/// Read-side trace event of one finished evaluation (both evaluation
/// paths).
void observe_evaluation(const core::EvaluationRecord& record,
                        std::size_t epochs_walked) {
  if (obs::logger().enabled(obs::LogLevel::kTrace)) {
    obs::logger().trace(
        "testbed.evaluate",
        {{"status", obs::JsonValue(core::to_string(record.status))},
         {"error", obs::JsonValue(record.test_error)},
         {"epochs", obs::JsonValue(epochs_walked)},
         {"diverged", obs::JsonValue(record.diverged)},
         {"cost_s", obs::JsonValue(record.cost_s)}});
  }
}

}  // namespace

TestbedOptions calibrated_options(const std::string& problem_name,
                                  const hw::DeviceSpec& device) {
  TestbedOptions opt;
  const bool embedded = !device.supports_memory_query;  // Tegra-class
  if (problem_name == "mnist" || problem_name == "tiny_mnist") {
    opt.base_training_time_s = embedded ? 360.0 : 320.0;
  } else {
    opt.base_training_time_s = embedded ? 850.0 : 750.0;
  }
  opt.workload_time_floor = 0.3;
  opt.measurement_time_s = embedded ? 25.0 : 18.0;
  return opt;
}

TestbedObjective::TestbedObjective(const core::BenchmarkProblem& problem,
                                   LandscapeParams landscape_params,
                                   hw::DeviceSpec device,
                                   TestbedOptions options)
    : problem_(problem),
      landscape_(problem, landscape_params),
      simulator_(std::move(device), options.sensor_seed),
      options_(options) {
  simulator_.set_sensor_faults(options_.sensor_faults);
  if (options_.base_training_time_s <= 0.0) {
    throw std::invalid_argument(
        "TestbedObjective: base training time must be > 0");
  }
  // Estimate the reference (median) workload by deterministic sampling.
  stats::Rng rng(options_.run_seed ^ 0xabcdef1234567890ULL);
  std::vector<double> macs;
  macs.reserve(options_.reference_sample_count);
  for (std::size_t i = 0; i < options_.reference_sample_count; ++i) {
    const core::Configuration config = problem_.space().sample(rng);
    const nn::CnnSpec spec = problem_.to_cnn_spec(config);
    if (!nn::is_feasible(spec)) continue;
    macs.push_back(static_cast<double>(nn::compute_workload(spec).total_macs));
  }
  if (macs.empty()) {
    throw std::invalid_argument(
        "TestbedObjective: no feasible configuration found in space");
  }
  std::nth_element(macs.begin(), macs.begin() + macs.size() / 2, macs.end());
  reference_macs_ = std::max(1.0, macs[macs.size() / 2]);
}

double TestbedObjective::training_time_s(
    const core::Configuration& config) const {
  const nn::CnnSpec spec = problem_.to_cnn_spec(config);
  const nn::WorkloadSummary workload = nn::compute_workload(spec);
  const double rel = std::min(
      static_cast<double>(workload.total_macs) / reference_macs_,
      options_.workload_time_cap);
  const double factor =
      options_.workload_time_floor + (1.0 - options_.workload_time_floor) * rel;
  return options_.base_training_time_s * factor;
}

TestbedObjective::Measurement TestbedObjective::measure(
    const core::Configuration& config) {
  const nn::CnnSpec spec = problem_.to_cnn_spec(config);
  // Rewind the sensor streams to this network's private seeds — the same
  // formulas the detached path uses — so a measurement is a pure function
  // of (seeds, spec). Without this, replaying a journal (which skips the
  // already-evaluated networks) would leave the shared streams at a
  // different position and the resumed run's readings would drift.
  simulator_.reseed_sensors(
      stats::stream_seed(options_.sensor_seed, hw::CostModel::hash_spec(spec)),
      stats::stream_seed(options_.sensor_faults.seed ^ kDetachedFaultSalt,
                         hw::CostModel::hash_spec(spec)));
  simulator_.load_model(spec);
  simulator_.set_inference_active(true);
  const hw::PowerBurst burst = hw::read_power_burst(
      [this] { return simulator_.read_power_w(); }, options_.power_readings,
      options_.sensor_fallback_after);
  std::optional<double> memory_mb;
  bool memory_read_failed = false;
  const hw::GpuSimulator::MemoryReading reading = simulator_.read_memory();
  switch (reading.status) {
    case hw::GpuSimulator::MemoryQueryStatus::Ok:
      memory_mb = reading.info.used_mb;
      break;
    case hw::GpuSimulator::MemoryQueryStatus::ReadError:
      memory_read_failed = true;
      break;
    case hw::GpuSimulator::MemoryQueryStatus::NotSupported:
      break;  // Tegra-class: memory constraint is simply absent.
  }
  simulator_.set_inference_active(false);
  simulator_.unload_model();
  return resolve_measurement(spec, burst, memory_mb, memory_read_failed);
}

TestbedObjective::Measurement TestbedObjective::resolve_measurement(
    const nn::CnnSpec& spec, const hw::PowerBurst& burst,
    std::optional<double> memory_mb, bool memory_read_failed) {
  Measurement m;
  std::vector<double> z;  // structural vector, built only if a fallback fires
  const auto structural = [&]() -> const std::vector<double>& {
    if (z.empty()) z = spec.structural_vector();
    return z;
  };
  if (!burst.degraded && burst.mean_w) {
    m.power_w = *burst.mean_w;
  } else {
    if (fallback_power_ == nullptr) {
      throw hw::SensorError(
          "TestbedObjective: power sensor dark and no fallback model "
          "installed");
    }
    m.power_w = fallback_power_->predict(structural());
    m.measured = false;
  }
  if (memory_read_failed) {
    if (fallback_memory_ == nullptr) {
      throw hw::SensorError(
          "TestbedObjective: memory counter dark and no fallback model "
          "installed");
    }
    m.memory_mb = fallback_memory_->predict(structural());
    m.measured = false;
  } else {
    m.memory_mb = memory_mb;
  }
  if (!m.measured) {
    obs::logger().warn(
        "hw.sensor_fallback",
        {{"power_degraded", obs::JsonValue(burst.degraded)},
         {"memory_degraded", obs::JsonValue(memory_read_failed)},
         {"failed_reads", obs::JsonValue(burst.failures)}});
  }
  return m;
}

core::EvaluationRecord TestbedObjective::evaluate(
    const core::Configuration& config,
    const core::EarlyTerminationRule* early_termination) {
  core::EvaluationRecord record;
  record.config = config;

  const nn::CnnSpec spec = problem_.to_cnn_spec(config);
  if (!nn::is_feasible(spec)) {
    record.status = core::EvaluationStatus::InfeasibleArchitecture;
    record.test_error = 1.0;
    record.cost_s = options_.infeasible_arch_time_s;
    clock_.advance(record.cost_s);
    observe_evaluation(record, 0);
    return record;
  }

  const double full_time = training_time_s(config);
  const std::size_t total_epochs = landscape_.params().total_epochs;
  const bool diverges = landscape_.diverges(config, options_.run_seed);

  if (early_termination != nullptr) {
    // Walk the learning curve epoch by epoch, applying the rule exactly as
    // the real trainer's epoch callback would.
    for (std::size_t epoch = 0; epoch < total_epochs; ++epoch) {
      const double err =
          landscape_.error_at_epoch(config, epoch, options_.run_seed);
      if (early_termination->should_terminate(epoch + 1, err)) {
        record.status = core::EvaluationStatus::EarlyTerminated;
        record.test_error = err;
        record.diverged = diverges;
        record.cost_s = full_time * static_cast<double>(epoch + 1) /
                        static_cast<double>(total_epochs);
        clock_.advance(record.cost_s);
        observe_evaluation(record, epoch + 1);
        return record;
      }
    }
  }

  // Trained to completion (converging candidate, or exhaustive mode that
  // pays the full cost even for diverging ones).
  record.status = core::EvaluationStatus::Completed;
  record.diverged = diverges;
  record.test_error = landscape_.final_error(config, options_.run_seed);
  record.cost_s = full_time;

  // Post-training inference profiling on the target platform.
  const Measurement m = measure(config);
  record.measured_power_w = m.power_w;
  record.measured_memory_mb = m.memory_mb;
  record.measured = m.measured;
  record.cost_s += options_.measurement_time_s;

  clock_.advance(record.cost_s);
  observe_evaluation(record, total_epochs);
  return record;
}

core::EvaluationRecord TestbedObjective::evaluate_detached(
    const core::Configuration& config,
    const core::EarlyTerminationRule* early_termination) {
  core::EvaluationRecord record;
  record.config = config;

  const nn::CnnSpec spec = problem_.to_cnn_spec(config);
  if (!nn::is_feasible(spec)) {
    record.status = core::EvaluationStatus::InfeasibleArchitecture;
    record.test_error = 1.0;
    record.cost_s = options_.infeasible_arch_time_s;
    observe_evaluation(record, 0);
    return record;
  }

  const double full_time = training_time_s(config);
  const std::size_t total_epochs = landscape_.params().total_epochs;
  const bool diverges = landscape_.diverges(config, options_.run_seed);

  if (early_termination != nullptr) {
    for (std::size_t epoch = 0; epoch < total_epochs; ++epoch) {
      const double err =
          landscape_.error_at_epoch(config, epoch, options_.run_seed);
      if (early_termination->should_terminate(epoch + 1, err)) {
        record.status = core::EvaluationStatus::EarlyTerminated;
        record.test_error = err;
        record.diverged = diverges;
        record.cost_s = full_time * static_cast<double>(epoch + 1) /
                        static_cast<double>(total_epochs);
        observe_evaluation(record, epoch + 1);
        return record;
      }
    }
  }

  record.status = core::EvaluationStatus::Completed;
  record.diverged = diverges;
  record.test_error = landscape_.final_error(config, options_.run_seed);
  record.cost_s = full_time;

  // Detached measurement: same device physics as measure(), with sensor
  // noise from the same per-network streams measure() rewinds to — a pure
  // function of (sensor_seed, spec) — so a detached reading is bit-identical
  // to the sequential one and independent of which samples ran before.
  const hw::InferenceCost cost = simulator_.cost_model().evaluate(spec);
  if (cost.memory_mb > simulator_.device().dram_gb * 1024.0) {
    throw std::runtime_error(
        "GpuSimulator: model does not fit in device memory");
  }
  stats::Rng sensor(stats::stream_seed(options_.sensor_seed,
                                       hw::CostModel::hash_spec(spec)));
  // Injected faults draw from their own per-network stream — a pure
  // function of (fault seed, spec) — so failures land on the same
  // candidates at any thread count or batch order, and an enabled fault
  // schedule never perturbs the noise values of successful reads.
  stats::Rng fault(stats::stream_seed(
      options_.sensor_faults.seed ^ kDetachedFaultSalt,
      hw::CostModel::hash_spec(spec)));
  const hw::PowerBurst burst = hw::read_power_burst(
      [&] {
        if (options_.sensor_faults.enabled() &&
            fault.bernoulli(options_.sensor_faults.failure_rate)) {
          throw hw::SensorError(
              "TestbedObjective: simulated power-sensor read failure");
        }
        const double noisy =
            cost.average_power_w *
            (1.0 +
             sensor.gaussian(0.0, hw::GpuSimulator::kPowerReadingNoiseSd));
        return noisy > 0.0 ? noisy : 0.0;
      },
      options_.power_readings, options_.sensor_fallback_after);
  std::optional<double> memory_mb;
  bool memory_read_failed = false;
  if (simulator_.device().supports_memory_query) {
    if (options_.sensor_faults.enabled() && options_.sensor_faults.fail_memory &&
        fault.bernoulli(options_.sensor_faults.failure_rate)) {
      memory_read_failed = true;
    } else {
      memory_mb = cost.memory_mb;
    }
  }
  const Measurement m =
      resolve_measurement(spec, burst, memory_mb, memory_read_failed);
  record.measured_power_w = m.power_w;
  record.measured_memory_mb = m.memory_mb;
  record.measured = m.measured;
  record.cost_s += options_.measurement_time_s;
  observe_evaluation(record, total_epochs);
  return record;
}

}  // namespace hp::testbed
