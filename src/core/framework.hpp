#pragma once
// The HyperPower flow (Figure 2) in its two steps. Offline,
// HyperPowerFramework profiles the target platform and trains the
// power/memory models for the practitioner's NN design space (a
// BenchmarkProblem) and budgets. Online, one search runs over one of the
// four methods of Section 3 — Rand, Rand-Walk, HW-CWEI, HW-IECI — built by
// make_proposer and driven by an EvaluationEngine:
//
//   auto proposer = make_proposer(Method::HwIeci, problem.space());
//   EvaluationEngine engine(problem.space(), objective, budgets,
//                           framework.apriori_constraints(options), options,
//                           *proposer);
//   RunResult result = engine.run();
//
// HyperPower mode (a-priori models + early termination) is
// OptimizerOptions::use_hardware_models + use_early_termination; clearing
// both gives the paper's "default" constraint-unaware baseline.

#include <memory>
#include <optional>
#include <string>

#include "core/bayes_opt.hpp"
#include "core/evaluation_engine.hpp"
#include "core/hw_models.hpp"
#include "core/random_walk.hpp"
#include "core/spaces.hpp"
#include "hw/profiler.hpp"

namespace hp::core {

/// The four optimization methods of Section 3.
enum class Method { Rand, RandWalk, HwCwei, HwIeci };

[[nodiscard]] std::string to_string(Method method);
[[nodiscard]] bool is_bayesian(Method method) noexcept;

/// The proposer for @p method — the repository's one method-to-proposer
/// switch. Its name() is to_string(method), the key journal headers and
/// the CLI's resume check compare. @p walk configures Rand-Walk, @p bo the
/// two Bayesian methods; each is ignored by the other methods.
[[nodiscard]] std::unique_ptr<Proposer> make_proposer(
    Method method, const HyperParameterSpace& space,
    RandomWalkOptions walk = {}, BayesOptOptions bo = {});

/// The offline phase: problem + budgets + the trained hardware models.
class HyperPowerFramework {
 public:
  /// @param problem design space and architecture mapping; must outlive
  ///        the framework.
  /// @param budgets the practitioner's power/memory budgets.
  HyperPowerFramework(const BenchmarkProblem& problem,
                      ConstraintBudgets budgets);

  /// Offline phase (Section 3.3): samples @p num_samples random
  /// architectures from the design space, profiles them on @p profiler's
  /// device, and trains the power/memory models by 10-fold CV.
  /// Returns the number of successfully profiled configurations.
  std::size_t train_hardware_models(hw::InferenceProfiler& profiler,
                                    std::size_t num_samples,
                                    std::uint64_t seed,
                                    const HardwareModelOptions& options = {});

  /// Installs externally trained models (e.g. from a saved profile run).
  void set_hardware_models(std::optional<HardwareModel> power_model,
                           std::optional<HardwareModel> memory_model);

  [[nodiscard]] bool has_hardware_models() const noexcept;
  [[nodiscard]] const std::optional<TrainedHardwareModel>& power_model()
      const noexcept {
    return power_model_;
  }
  [[nodiscard]] const std::optional<TrainedHardwareModel>& memory_model()
      const noexcept {
    return memory_model_;
  }

  /// The a-priori constraints (models + budgets) to hand an
  /// EvaluationEngine running with @p options, or nullptr when no models
  /// are installed. Throws std::logic_error when @p options asks for
  /// hardware models, budgets are set, and none were trained or installed.
  [[nodiscard]] const HardwareConstraints* apriori_constraints(
      const OptimizerOptions& options) const;

  [[nodiscard]] const BenchmarkProblem& problem() const noexcept {
    return problem_;
  }
  [[nodiscard]] const ConstraintBudgets& budgets() const noexcept {
    return budgets_;
  }

 private:
  void rebuild_constraints();

  const BenchmarkProblem& problem_;
  ConstraintBudgets budgets_;
  std::optional<TrainedHardwareModel> power_model_;
  std::optional<TrainedHardwareModel> memory_model_;
  std::optional<HardwareConstraints> constraints_;
};

}  // namespace hp::core
