#pragma once
// Offline inference profiler: measures the power and memory of candidate
// networks on a (simulated) device through the NVML facade, producing the
// {(z_l, P_l, M_l)} dataset the paper's predictive models are trained on
// (Section 3.3). Measurements happen during *inference*, not training —
// the key insight that makes power/memory a-priori constraints.

#include <optional>
#include <vector>

#include "hw/gpu_simulator.hpp"
#include "hw/nvml.hpp"
#include "nn/network.hpp"

namespace hp::hw {

/// One profiled data point.
struct ProfileSample {
  std::vector<double> z;  ///< structural hyper-parameter vector
  double power_w = 0.0;   ///< mean of repeated NVML power readings
  std::optional<double> memory_mb;  ///< absent on platforms without the counter
  /// True when the platform HAS a memory counter but every query attempt
  /// failed (transient sensor fault) — distinguishes a degraded sample
  /// from a Tegra-style permanently-counterless one.
  bool memory_read_failed = false;
  double latency_ms = 0.0;
  /// nvprof-style per-layer timing breakdown (with measurement noise);
  /// empty unless ProfilerOptions::collect_layer_timings is set. Feeds
  /// the NeuralPower-style layer-wise predictors (core/layerwise_models).
  std::vector<LayerCost> layer_timings;
  nn::CnnSpec spec;

  /// Measured energy of one inference batch, joules.
  [[nodiscard]] double energy_j() const noexcept {
    return power_w * latency_ms / 1e3;
  }
};

/// Profiling options.
struct ProfilerOptions {
  /// Number of instantaneous power readings averaged per configuration
  /// (real NVML polls at ~10-100 Hz during a sustained inference loop).
  std::size_t power_readings = 25;
  /// Also collect the per-layer timing breakdown (slower on real hardware;
  /// free in the simulator).
  bool collect_layer_timings = false;
  /// Relative sd of per-layer timing measurement noise.
  double layer_timing_noise_sd = 0.03;
};

/// Profiles networks on one simulated device via the NVML code path.
class InferenceProfiler {
 public:
  /// @param simulator device to profile on; must outlive the profiler.
  explicit InferenceProfiler(GpuSimulator& simulator,
                             ProfilerOptions options = {});
  ~InferenceProfiler();

  InferenceProfiler(const InferenceProfiler&) = delete;
  InferenceProfiler& operator=(const InferenceProfiler&) = delete;

  /// Profiles one configuration: loads it, runs a sustained inference
  /// burst, averages power readings, queries memory once.
  /// Throws std::invalid_argument for infeasible specs.
  [[nodiscard]] ProfileSample profile(const nn::CnnSpec& spec);

  /// Profiles a batch of configurations, skipping infeasible ones and
  /// ones too large for the device. A spec whose power burst fails
  /// (SensorError) is profiled again, up to three attempts; after that, and
  /// on any other error, the exception propagates.
  [[nodiscard]] std::vector<ProfileSample> profile_all(
      const std::vector<nn::CnnSpec>& specs);

  [[nodiscard]] const DeviceSpec& device() const noexcept {
    return simulator_.device();
  }

 private:
  GpuSimulator& simulator_;
  ProfilerOptions options_;
  nvml::Session session_;
  std::size_t handle_ = 0;
};

}  // namespace hp::hw
