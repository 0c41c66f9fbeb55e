#include "hw/gpu_simulator.hpp"

#include <stdexcept>

namespace hp::hw {

GpuSimulator::GpuSimulator(DeviceSpec device, std::uint64_t seed,
                           CostModelOptions cost_options)
    : cost_model_(std::move(device), cost_options), rng_(seed) {}

void GpuSimulator::load_model(const nn::CnnSpec& spec) {
  InferenceCost cost = cost_model_.evaluate(spec);
  if (cost.memory_mb > cost_model_.device().dram_gb * 1024.0) {
    throw ModelTooLargeError(
        "GpuSimulator: model does not fit in device memory");
  }
  cost_ = cost;
  inference_active_ = false;
}

void GpuSimulator::unload_model() {
  cost_.reset();
  inference_active_ = false;
}

void GpuSimulator::set_inference_active(bool active) {
  if (active && !cost_) {
    throw std::logic_error("GpuSimulator: no model loaded");
  }
  inference_active_ = active;
}

void GpuSimulator::set_sensor_faults(SensorFaultSpec spec) {
  sensor_faults_ = spec;
  fault_rng_ = stats::Rng(spec.seed);
}

void GpuSimulator::reseed_sensors(std::uint64_t noise_seed,
                                  std::uint64_t fault_seed) {
  rng_ = stats::Rng(noise_seed);
  fault_rng_ = stats::Rng(fault_seed);
}

bool GpuSimulator::fault_fires() {
  return sensor_faults_.enabled() &&
         fault_rng_.bernoulli(sensor_faults_.failure_rate);
}

double GpuSimulator::read_power_w() {
  // Fault check first, so a failed read consumes no noise draw: the fault
  // schedule and the measurement noise stay independent streams.
  if (fault_fires()) {
    throw SensorError("GpuSimulator: simulated power-sensor read failure");
  }
  const double base = (inference_active_ && cost_)
                          ? cost_->average_power_w
                          : cost_model_.device().idle_power_w;
  const double noisy = base * (1.0 + rng_.gaussian(0.0, kPowerReadingNoiseSd));
  return noisy > 0.0 ? noisy : 0.0;
}

std::optional<MemoryInfo> GpuSimulator::memory_info() const {
  const DeviceSpec& dev = cost_model_.device();
  if (!dev.supports_memory_query) return std::nullopt;
  MemoryInfo info;
  info.total_mb = dev.dram_gb * 1024.0;
  info.used_mb = cost_ ? cost_->memory_mb : dev.runtime_overhead_mb * 0.25;
  return info;
}

GpuSimulator::MemoryReading GpuSimulator::read_memory() {
  MemoryReading reading;
  if (!cost_model_.device().supports_memory_query) {
    reading.status = MemoryQueryStatus::NotSupported;
    return reading;
  }
  if (sensor_faults_.fail_memory && fault_fires()) {
    reading.status = MemoryQueryStatus::ReadError;
    return reading;
  }
  reading.status = MemoryQueryStatus::Ok;
  reading.info = *memory_info();
  return reading;
}

double GpuSimulator::inference_latency_ms() const {
  if (!cost_) throw std::logic_error("GpuSimulator: no model loaded");
  return cost_->latency_ms;
}

std::vector<LayerCost> GpuSimulator::profile_layers(double noise_sd) {
  if (!cost_) throw std::logic_error("GpuSimulator: no model loaded");
  std::vector<LayerCost> timings = cost_->layers;
  for (LayerCost& layer : timings) {
    layer.latency_ms *= 1.0 + rng_.gaussian(0.0, noise_sd);
    if (layer.latency_ms < 0.0) layer.latency_ms = 0.0;
  }
  return timings;
}

const InferenceCost& GpuSimulator::loaded_cost() const {
  if (!cost_) throw std::logic_error("GpuSimulator: no model loaded");
  return *cost_;
}

}  // namespace hp::hw
