#include "core/bayes_opt.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/batch_fill.hpp"
#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "stats/descriptive.hpp"

namespace hp::core {

namespace {

linalg::Matrix rows_to_matrix(const std::vector<std::vector<double>>& rows) {
  linalg::Matrix m(rows.size(), rows.empty() ? 0 : rows[0].size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < rows[i].size(); ++j) m(i, j) = rows[i][j];
  }
  return m;
}

std::unique_ptr<gp::GaussianProcess> make_gp(std::size_t dimension,
                                             double noise) {
  gp::KernelParams params;
  params.signal_variance = 1.0;
  params.length_scales.assign(dimension, 0.3);
  gp::Matern52Kernel kernel(params);
  return std::make_unique<gp::GaussianProcess>(kernel, noise);
}

}  // namespace

BayesOptProposer::BayesOptProposer(
    const HyperParameterSpace& space,
    std::unique_ptr<AcquisitionFunction> acquisition, BayesOptOptions bo_options)
    : Proposer(space),
      acquisition_(std::move(acquisition)),
      bo_options_(bo_options),
      pool_(space, bo_options.pool) {
  if (!acquisition_) {
    throw std::invalid_argument("BayesOptProposer: null acquisition");
  }
}

std::string BayesOptProposer::name() const { return acquisition_->name(); }

double BayesOptProposer::proposal_overhead_s() const {
  return bo_options_.overhead_base_s +
         bo_options_.overhead_per_observation_s *
             static_cast<double>(obs_y_.size());
}

Configuration BayesOptProposer::propose(stats::Rng& rng) {
  if (obs_y_.size() < bo_options_.initial_design || objective_gp_ == nullptr ||
      !objective_gp_->fitted()) {
    // Initial design: random, but respecting the a-priori constraints when
    // the predictive models are available — HyperPower's BO never selects
    // predicted-violating configurations, including its seed points.
    if (const HardwareConstraints* constraints = active_constraints()) {
      for (int attempt = 0; attempt < 500; ++attempt) {
        Configuration candidate = space().sample(rng);
        if (constraints->predicted_feasible(
                space().structural_vector(candidate))) {
          return candidate;
        }
      }
    }
    return space().sample(rng);
  }
  AcquisitionContext ctx{space()};
  ctx.objective_gp = objective_gp_.get();
  ctx.best_observed = best_feasible_y_;
  ctx.budgets = budgets();
  ctx.constraints = active_constraints();
  ctx.measured_power_gp = power_gp_ ? power_gp_.get() : nullptr;
  ctx.measured_memory_gp = memory_gp_ ? memory_gp_.get() : nullptr;
  obs::ScopedTimer timer("bo.acq_argmax", obs_y_.size());
  timer.trace_arg({"observations", obs_y_.size()});
  timer.trace_arg({"pool", bo_options_.pool.lattice_points +
                               bo_options_.pool.random_points});
  timer.trace_arg({"score_block", bo_options_.pool.score_block_size});
  return pool_.maximize(*acquisition_, ctx, rng).config;
}

std::vector<Configuration> BayesOptProposer::propose_batch(
    std::size_t first_sample_index, std::size_t count) {
  const std::size_t real_observations = obs_y_.size();
  ConstantLiarHooks liar;
  liar.push_lie = [this](const Configuration& config) {
    if (objective_gp_ == nullptr || !objective_gp_->fitted()) return;
    // Lie that the pending candidate came back at the incumbent error;
    // posterior-only refit (no kernel ML) keeps this cheap and exactly
    // reversible.
    obs::ScopedTimer lie_span("bo.constant_liar_fill", obs_y_.size());
    obs_x_.push_back(space().encode(config));
    obs_y_.push_back(best_feasible_y_);
    fit_objective_gp_posterior();
    lie_span.trace_arg(
        {"refit", gp::refit_kind_name(objective_gp_->last_refit_kind())});
  };
  liar.pop_lies = [this, real_observations] {
    if (obs_y_.size() <= real_observations) return;
    obs::ScopedTimer pop_span("bo.constant_liar_pop", obs_y_.size());
    obs_x_.resize(real_observations);
    obs_y_.resize(real_observations);
    fit_objective_gp_posterior();
    pop_span.trace_arg(
        {"refit", gp::refit_kind_name(objective_gp_->last_refit_kind())});
  };
  return fill_proposal_batch(
      run_seed(), first_sample_index, count,
      [this](stats::Rng& rng) { return propose(rng); },
      /*exhausted=*/{}, liar);
}

void BayesOptProposer::fit_objective_gp_posterior() {
  objective_gp_->fit(rows_to_matrix(obs_x_),
                     linalg::Vector{std::vector<double>(obs_y_)});
}

void BayesOptProposer::observe(const EvaluationRecord& record) {
  // Model-filtered samples carry no new information about the objective —
  // the a-priori models already encode their infeasibility.
  if (record.status == EvaluationStatus::ModelFiltered ||
      record.status == EvaluationStatus::InfeasibleArchitecture) {
    return;
  }
  const std::vector<double> unit = space().encode(record.config);
  obs_x_.push_back(unit);
  obs_y_.push_back(record.test_error);
  if (record.counts_for_best()) {
    best_feasible_y_ = std::min(best_feasible_y_, record.test_error);
  }
  if (record.measured_power_w) {
    obs_power_x_.push_back(unit);
    obs_power_.push_back(*record.measured_power_w);
  }
  if (record.measured_memory_mb) {
    obs_memory_x_.push_back(unit);
    obs_memory_.push_back(*record.measured_memory_mb);
  }
  ++observations_since_kernel_fit_;
  refit_objective_gp();
  // Constraint GPs are only needed in default (no a-priori models) mode.
  if (active_constraints() == nullptr && budgets().any()) {
    refit_constraint_gps();
  }
}

void BayesOptProposer::refit_objective_gp() {
  if (obs_y_.size() < 2) return;
  if (objective_gp_ == nullptr) {
    objective_gp_ = make_gp(space().dimension(), bo_options_.observation_noise);
  }
  const linalg::Matrix x = rows_to_matrix(obs_x_);
  const linalg::Vector y{std::vector<double>(obs_y_)};
  const bool kernel_ml =
      observations_since_kernel_fit_ >= bo_options_.kernel_refit_interval ||
      !objective_gp_->fitted();
  if (obs::logger().enabled(obs::LogLevel::kDebug)) {
    obs::logger().debug("bo.refit",
                        {{"observations", obs::JsonValue(obs_y_.size())},
                         {"kernel_ml", obs::JsonValue(kernel_ml)}});
  }
  obs::ScopedTimer timer("bo.gp_fit", obs_y_.size());
  timer.trace_arg({"observations", obs_y_.size()});
  timer.trace_arg({"kernel_ml", kernel_ml});
  if (kernel_ml) {
    gp::KernelFitOptions fit = bo_options_.kernel_fit;
    fit.min_noise_variance = bo_options_.observation_noise;
    (void)gp::fit_kernel_by_ml(*objective_gp_, x, y, fit);
    observations_since_kernel_fit_ = 0;
  } else {
    objective_gp_->fit(x, y);
  }
  // Annotated post-fit: which incremental path the refit actually took.
  timer.trace_arg(
      {"refit", gp::refit_kind_name(objective_gp_->last_refit_kind())});
}

namespace {

/// Refits one measured-metric constraint GP with scale-aware kernel
/// parameters: the prior variance tracks the spread of the observed metric
/// (watts / megabytes), so predictive uncertainty far from data is
/// physically meaningful rather than unit-scale.
void refit_metric_gp(std::unique_ptr<gp::GaussianProcess>& gp_model,
                     std::size_t dimension,
                     const std::vector<std::vector<double>>& xs,
                     const std::vector<double>& ys) {
  stats::RunningStats spread;
  for (double y : ys) spread.add(y);
  const double variance = std::max(spread.variance(), 1e-6);
  gp::KernelParams params;
  params.signal_variance = variance;
  // Hardware metrics vary smoothly and near-globally with the structural
  // parameters; longer length scales let a few observations extrapolate
  // the low-power direction toward unexplored corners.
  params.length_scales.assign(dimension, 0.6);
  const double noise = 0.05 * variance;
  gp_model = std::make_unique<gp::GaussianProcess>(gp::Matern52Kernel(params),
                                                   noise);
  gp_model->fit(rows_to_matrix(xs),
                linalg::Vector{std::vector<double>(ys)});
}

}  // namespace

void BayesOptProposer::refit_constraint_gps() {
  if (budgets().power_w && obs_power_.size() >= 2) {
    refit_metric_gp(power_gp_, space().dimension(), obs_power_x_, obs_power_);
  }
  if (budgets().memory_mb && obs_memory_.size() >= 2) {
    refit_metric_gp(memory_gp_, space().dimension(), obs_memory_x_,
                    obs_memory_);
  }
}

}  // namespace hp::core
