#include "hw/profiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hw/sensor.hpp"

namespace hp::hw {
namespace {

nn::CnnSpec make_spec(std::size_t features) {
  nn::CnnSpec spec;
  spec.input = {1, 1, 28, 28};
  spec.conv_stages = {{features, 3, 2}};
  spec.dense_stages = {{300}};
  spec.num_classes = 10;
  return spec;
}

TEST(InferenceProfiler, RejectsZeroReadings) {
  GpuSimulator sim(gtx1070(), 1);
  ProfilerOptions opt;
  opt.power_readings = 0;
  EXPECT_THROW(InferenceProfiler(sim, opt), std::invalid_argument);
}

TEST(InferenceProfiler, SampleCarriesStructuralVector) {
  GpuSimulator sim(gtx1070(), 2);
  InferenceProfiler profiler(sim);
  const ProfileSample sample = profiler.profile(make_spec(40));
  ASSERT_EQ(sample.z.size(), 4u);  // features, kernel, pool, units
  EXPECT_EQ(sample.z[0], 40.0);
  EXPECT_GT(sample.power_w, 0.0);
  EXPECT_GT(sample.latency_ms, 0.0);
}

TEST(InferenceProfiler, PowerCloseToGroundTruth) {
  GpuSimulator sim(gtx1070(), 3);
  InferenceProfiler profiler(sim);
  const ProfileSample sample = profiler.profile(make_spec(40));
  const double truth = sim.cost_model().evaluate(make_spec(40)).average_power_w;
  EXPECT_NEAR(sample.power_w, truth, truth * 0.02);
}

TEST(InferenceProfiler, MemoryPresentOnServer) {
  GpuSimulator sim(gtx1070(), 4);
  InferenceProfiler profiler(sim);
  const ProfileSample sample = profiler.profile(make_spec(40));
  ASSERT_TRUE(sample.memory_mb.has_value());
  EXPECT_GT(*sample.memory_mb, 100.0);
}

TEST(InferenceProfiler, MemoryAbsentOnTegra) {
  GpuSimulator sim(tegra_tx1(), 5);
  InferenceProfiler profiler(sim);
  const ProfileSample sample = profiler.profile(make_spec(40));
  EXPECT_FALSE(sample.memory_mb.has_value());
}

TEST(InferenceProfiler, SimulatorLeftIdleAfterProfiling) {
  GpuSimulator sim(gtx1070(), 6);
  InferenceProfiler profiler(sim);
  (void)profiler.profile(make_spec(40));
  EXPECT_FALSE(sim.model_loaded());
}

TEST(InferenceProfiler, ProfileAllSkipsInfeasible) {
  GpuSimulator sim(gtx1070(), 7);
  InferenceProfiler profiler(sim);
  nn::CnnSpec bad;
  bad.input = {1, 1, 6, 6};
  bad.conv_stages = {{4, 5, 3}, {4, 5, 1}};
  bad.num_classes = 10;
  const std::vector<nn::CnnSpec> specs{make_spec(30), bad, make_spec(60)};
  const auto samples = profiler.profile_all(specs);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].z[0], 30.0);
  EXPECT_EQ(samples[1].z[0], 60.0);
}

TEST(InferenceProfiler, MorePowerForBiggerNetworks) {
  GpuSimulator sim(gtx1070(), 8);
  InferenceProfiler profiler(sim);
  const auto small = profiler.profile(make_spec(20));
  const auto large = profiler.profile(make_spec(80));
  EXPECT_GT(large.power_w, small.power_w);
}

/// Specs of increasing width: every one fits a GTX 1070.
std::vector<nn::CnnSpec> spec_sweep() {
  std::vector<nn::CnnSpec> specs;
  for (std::size_t features = 20; features <= 80; features += 5) {
    specs.push_back(make_spec(features));
  }
  return specs;
}

TEST(InferenceProfiler, ProfileAllRetriesADarkPowerBurst) {
  // One reading per burst, so every injected read fault darkens a whole
  // burst and profile() throws SensorError for that attempt.
  ProfilerOptions options;
  options.power_readings = 1;
  SensorFaultSpec faults;
  faults.failure_rate = 0.3;
  faults.seed = 12;
  const std::vector<nn::CnnSpec> specs = spec_sweep();

  // Replays the fault stream (one draw per power read; a failed read costs
  // no noise draw): the schedule must darken some burst, and never three
  // in a row, for this test to exercise the retry.
  GpuSimulator replica(gtx1070(), 9);
  replica.set_sensor_faults(faults);
  std::size_t dark = 0;
  std::size_t run = 0;
  std::size_t longest_run = 0;
  for (std::size_t ok = 0; ok < specs.size();) {
    try {
      (void)replica.read_power_w();
      ++ok;
      run = 0;
    } catch (const SensorError&) {
      ++dark;
      longest_run = std::max(longest_run, ++run);
    }
  }
  ASSERT_GE(dark, 1u);
  ASSERT_LT(longest_run, 3u);

  GpuSimulator clean_sim(gtx1070(), 9);
  InferenceProfiler clean(clean_sim, options);
  const std::vector<ProfileSample> want = clean.profile_all(specs);
  ASSERT_EQ(want.size(), specs.size());

  GpuSimulator faulty_sim(gtx1070(), 9);
  faulty_sim.set_sensor_faults(faults);
  InferenceProfiler faulty(faulty_sim, options);
  const std::vector<ProfileSample> got = faulty.profile_all(specs);
  // No spec is dropped, and the retried bursts read the same values.
  ASSERT_EQ(got.size(), specs.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].z, want[i].z) << i;
    EXPECT_EQ(got[i].power_w, want[i].power_w) << i;
  }
}

TEST(InferenceProfiler, ProfileAllPropagatesASensorThatStaysDark) {
  ProfilerOptions options;
  options.power_readings = 1;
  SensorFaultSpec faults;
  faults.failure_rate = 1.0;
  GpuSimulator sim(gtx1070(), 10);
  sim.set_sensor_faults(faults);
  InferenceProfiler profiler(sim, options);
  EXPECT_THROW((void)profiler.profile_all({make_spec(30)}), SensorError);
  EXPECT_FALSE(sim.model_loaded());
}

TEST(InferenceProfiler, ProfileAllSkipsModelsTooLargeForTheDevice) {
  nn::CnnSpec huge = make_spec(40);
  huge.dense_stages = {{400000}};
  GpuSimulator sim(jetson_nano(), 11);
  EXPECT_THROW(sim.load_model(huge), ModelTooLargeError);
  InferenceProfiler profiler(sim);
  const auto samples = profiler.profile_all({make_spec(30), huge});
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].z[0], 30.0);
}

}  // namespace
}  // namespace hp::hw
