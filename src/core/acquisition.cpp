#include "core/acquisition.hpp"

#include <stdexcept>

#include "core/contracts.hpp"
#include "stats/distributions.hpp"

namespace hp::core {

HardwareConstraints::HardwareConstraints(
    ConstraintBudgets budgets, std::optional<HardwareModel> power_model,
    std::optional<HardwareModel> memory_model)
    : budgets_(budgets),
      power_model_(std::move(power_model)),
      memory_model_(std::move(memory_model)) {}

bool HardwareConstraints::predicted_feasible(std::span<const double> z) const {
  if (budgets_.power_w && power_model_) {
    if (power_model_->predict(z) > *budgets_.power_w) return false;
  }
  if (budgets_.memory_mb && memory_model_) {
    if (memory_model_->predict(z) > *budgets_.memory_mb) return false;
  }
  return true;
}

double HardwareConstraints::feasibility_probability(
    std::span<const double> z) const {
  double prob = 1.0;
  if (budgets_.power_w && power_model_) {
    prob *= stats::probability_below(power_model_->predict(z),
                                     power_model_->residual_sd(),
                                     *budgets_.power_w);
  }
  if (budgets_.memory_mb && memory_model_) {
    prob *= stats::probability_below(memory_model_->predict(z),
                                     memory_model_->residual_sd(),
                                     *budgets_.memory_mb);
  }
  return prob;
}

bool HardwareConstraints::measured_feasible(
    std::optional<double> power_w, std::optional<double> memory_mb) const {
  if (budgets_.power_w && power_w && *power_w > *budgets_.power_w) {
    return false;
  }
  if (budgets_.memory_mb && memory_mb && *memory_mb > *budgets_.memory_mb) {
    return false;
  }
  return true;
}

namespace {

/// Closed-form EI under the objective GP; 0 without a model (callers use a
/// separate initial design, so this is defensive). The scratch-based GP
/// predict keeps the whole term allocation-free inside block scoring.
double ei_term(const std::vector<double>& unit_x, const AcquisitionContext& ctx,
               gp::PredictScratch& scratch) {
  if (ctx.objective_gp == nullptr || !ctx.objective_gp->fitted()) return 0.0;
  const gp::Prediction p =
      ctx.objective_gp->predict(std::span<const double>(unit_x), scratch);
  return stats::expected_improvement(p.mean, p.stddev(), ctx.best_observed);
}

/// Probability that the measured-constraint GP predicts the metric within
/// budget; 1.0 when the GP or the budget is absent.
double gp_constraint_probability(const gp::GaussianProcess* gp_model,
                                 std::optional<double> budget,
                                 const std::vector<double>& unit_x,
                                 gp::PredictScratch& scratch) {
  if (gp_model == nullptr || !gp_model->fitted() || !budget) return 1.0;
  const gp::Prediction p =
      gp_model->predict(std::span<const double>(unit_x), scratch);
  return stats::probability_below(p.mean, p.stddev(), *budget);
}

/// Per-candidate HW-IECI core shared by the scalar and blocked entry points
/// so the two paths cannot drift apart.
double hw_ieci_score(const std::vector<double>& unit_x,
                     const Configuration& config,
                     const AcquisitionContext& ctx,
                     AcquisitionScratch& scratch) {
  if (ctx.constraints != nullptr) {
    // A-priori models: hard indicator, zero acquisition in violating
    // regions (Eq. 3) — evaluated before the (costlier) EI term.
    const std::vector<double> z = ctx.space.structural_vector(config);
    if (!ctx.constraints->predicted_feasible(z)) return 0.0;
  } else {
    // Default (unknown constraints) mode: a hard indicator over the
    // measured-metric GPs strands the search whenever every early sample
    // violates (the GP mean is then above budget everywhere and nothing
    // scores). Following the probabilistic replacement of the indicator
    // the paper points to (Gramacy & Lee [17], supported by Spearmint),
    // we gate EI by the *squared* satisfaction probability — sharper than
    // HW-CWEI's linear weighting, approaching the indicator as the GPs
    // become confident, while still providing a search gradient.
    const double prob =
        gp_constraint_probability(ctx.measured_power_gp, ctx.budgets.power_w,
                                  unit_x, scratch.power) *
        gp_constraint_probability(ctx.measured_memory_gp,
                                  ctx.budgets.memory_mb, unit_x,
                                  scratch.memory);
    return prob * prob * ei_term(unit_x, ctx, scratch.objective);
  }
  return ei_term(unit_x, ctx, scratch.objective);
}

/// Per-candidate HW-CWEI core shared by the scalar and blocked entry points.
double hw_cwei_score(const std::vector<double>& unit_x,
                     const Configuration& config,
                     const AcquisitionContext& ctx,
                     AcquisitionScratch& scratch) {
  double prob = 1.0;
  if (ctx.constraints != nullptr) {
    const std::vector<double> z = ctx.space.structural_vector(config);
    prob = ctx.constraints->feasibility_probability(z);
  } else {
    prob = gp_constraint_probability(ctx.measured_power_gp,
                                     ctx.budgets.power_w, unit_x,
                                     scratch.power) *
           gp_constraint_probability(ctx.measured_memory_gp,
                                     ctx.budgets.memory_mb, unit_x,
                                     scratch.memory);
  }
  if (prob <= 0.0) return 0.0;
  return prob * ei_term(unit_x, ctx, scratch.objective);
}

/// Contract shared by every score_block implementation. [[maybe_unused]]:
/// with HP_CONTRACTS=0 the check compiles out.
void check_block_shapes(
    [[maybe_unused]] std::span<const std::vector<double>> unit_xs,
    [[maybe_unused]] std::span<const Configuration> configs,
    [[maybe_unused]] std::span<double> out) {
  HP_REQUIRE(unit_xs.size() == configs.size() && unit_xs.size() == out.size(),
             "score_block: unit_xs/configs/out sizes must match");
}

}  // namespace

void AcquisitionFunction::score_block(
    std::span<const std::vector<double>> unit_xs,
    std::span<const Configuration> configs, const AcquisitionContext& ctx,
    AcquisitionScratch& scratch, std::span<double> out) const {
  (void)scratch;
  check_block_shapes(unit_xs, configs, out);
  for (std::size_t i = 0; i < unit_xs.size(); ++i) {
    out[i] = score(unit_xs[i], configs[i], ctx);
  }
}

double ExpectedImprovementAcquisition::score(
    const std::vector<double>& unit_x, const Configuration& config,
    const AcquisitionContext& ctx) const {
  (void)config;
  gp::PredictScratch scratch;
  return ei_term(unit_x, ctx, scratch);
}

void ExpectedImprovementAcquisition::score_block(
    std::span<const std::vector<double>> unit_xs,
    std::span<const Configuration> configs, const AcquisitionContext& ctx,
    AcquisitionScratch& scratch, std::span<double> out) const {
  check_block_shapes(unit_xs, configs, out);
  for (std::size_t i = 0; i < unit_xs.size(); ++i) {
    out[i] = ei_term(unit_xs[i], ctx, scratch.objective);
  }
}

double HwIeciAcquisition::score(const std::vector<double>& unit_x,
                                const Configuration& config,
                                const AcquisitionContext& ctx) const {
  AcquisitionScratch scratch;
  return hw_ieci_score(unit_x, config, ctx, scratch);
}

void HwIeciAcquisition::score_block(
    std::span<const std::vector<double>> unit_xs,
    std::span<const Configuration> configs, const AcquisitionContext& ctx,
    AcquisitionScratch& scratch, std::span<double> out) const {
  check_block_shapes(unit_xs, configs, out);
  for (std::size_t i = 0; i < unit_xs.size(); ++i) {
    out[i] = hw_ieci_score(unit_xs[i], configs[i], ctx, scratch);
  }
}

double HwCweiAcquisition::score(const std::vector<double>& unit_x,
                                const Configuration& config,
                                const AcquisitionContext& ctx) const {
  AcquisitionScratch scratch;
  return hw_cwei_score(unit_x, config, ctx, scratch);
}

void HwCweiAcquisition::score_block(
    std::span<const std::vector<double>> unit_xs,
    std::span<const Configuration> configs, const AcquisitionContext& ctx,
    AcquisitionScratch& scratch, std::span<double> out) const {
  check_block_shapes(unit_xs, configs, out);
  for (std::size_t i = 0; i < unit_xs.size(); ++i) {
    out[i] = hw_cwei_score(unit_xs[i], configs[i], ctx, scratch);
  }
}

}  // namespace hp::core
