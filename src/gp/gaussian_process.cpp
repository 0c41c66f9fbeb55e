#include "gp/gaussian_process.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "obs/obs.hpp"

namespace hp::gp {

double Prediction::stddev() const noexcept {
  return variance > 0.0 ? std::sqrt(variance) : 0.0;
}

double Prediction::observation_variance(double noise_variance) const noexcept {
  return variance + noise_variance;
}

GaussianProcess::GaussianProcess(const Kernel& kernel, double noise_variance)
    : kernel_(kernel.clone()), noise_variance_(noise_variance) {
  if (noise_variance < 0.0) {
    throw std::invalid_argument("GaussianProcess: negative noise variance");
  }
}

void GaussianProcess::fit(linalg::Matrix x, linalg::Vector y) {
  if (x.rows() == 0) {
    throw std::invalid_argument("GaussianProcess::fit: empty dataset");
  }
  if (x.rows() != y.size()) {
    throw std::invalid_argument("GaussianProcess::fit: rows(X) != size(y)");
  }
  // A NaN/Inf target silently poisons alpha and every later acquisition
  // value; fail at the ingestion point instead.
  HP_CHECK_ALL_FINITE(y, "GaussianProcess::fit targets y");
  const RefitKind kind = classify_refit(x);
  x_ = std::move(x);
  y_ = std::move(y);
  refit(kind);
}

RefitKind GaussianProcess::classify_refit(const linalg::Matrix& x) const {
  // The incremental paths reuse the cached factor verbatim, which is only
  // the factor of the new (sub)matrix when it was obtained without jitter:
  // with_jitter() retries from zero on every call, so a jittered factor has
  // no incremental counterpart that matches bit-for-bit.
  if (!cache_valid_ || !chol_.has_value() || chol_->jitter_used() != 0.0) {
    return RefitKind::kFull;
  }
  if (x_.rows() == 0 || x.cols() != x_.cols()) return RefitKind::kFull;
  const std::size_t shared = std::min(x.rows(), x_.rows());
  // Bitwise prefix comparison over the row-major storage. operator== is the
  // right notion here: numerically equal coordinates (including 0.0 vs -0.0)
  // yield identical kernel values, and NaNs compare unequal, falling back to
  // the full path.
  const auto& a = x.raw();
  const auto& b = x_.raw();
  if (!std::equal(a.begin(),
                  a.begin() + static_cast<std::ptrdiff_t>(shared * x.cols()),
                  b.begin())) {
    return RefitKind::kFull;
  }
  if (x.rows() == x_.rows()) return RefitKind::kReused;
  return x.rows() > x_.rows() ? RefitKind::kExtended : RefitKind::kTruncated;
}

void GaussianProcess::refit(RefitKind kind) {
  if (obs::logger().enabled(obs::LogLevel::kTrace)) {
    obs::logger().trace("gp.refit",
                        {{"n", obs::JsonValue(x_.rows())},
                         {"noise", obs::JsonValue(noise_variance_)},
                         {"kind", obs::JsonValue(refit_kind_name(kind))}});
  }
  cache_valid_ = false;
  y_mean_ = y_.mean();
  switch (kind) {
    case RefitKind::kReused:
      break;  // factor already matches x_; only alpha depends on y
    case RefitKind::kExtended:
      if (!try_extend_factor()) {
        kind = RefitKind::kFull;
        refit_full();
      }
      break;
    case RefitKind::kTruncated:
      shrink_factor();
      break;
    default:
      kind = RefitKind::kFull;
      refit_full();
      break;
  }
  last_refit_kind_ = kind;
  cache_valid_ = true;
  linalg::Vector centered = y_;
  for (std::size_t i = 0; i < centered.size(); ++i) centered[i] -= y_mean_;
  alpha_ = chol_->solve(centered);
}

void GaussianProcess::refit_full() {
  linalg::Matrix noisy = kernel_matrix(*kernel_, x_);
  noisy.add_to_diagonal(noise_variance_);
  obs::ScopedTimer chol_timer("gp.cholesky");
  auto chol = linalg::Cholesky::with_jitter(std::move(noisy));
  chol_timer.stop();
  // HP_ENFORCE (never compiled out): proceeding without a factor would
  // read an empty chol_ and emit garbage predictions, so even Release
  // builds must report the non-PSD covariance as a ContractViolation.
  HP_ENFORCE(chol.has_value(),
             "GaussianProcess: kernel matrix not positive definite even "
             "with jitter");
  chol_ = std::move(*chol);
}

bool GaussianProcess::try_extend_factor() {
  const std::size_t old_n = chol_->size();
  const std::size_t new_n = x_.rows();
  HP_ASSERT(new_n > old_n && old_n > 0,
            "try_extend_factor: classify_refit guarantees strict growth");
  // Only the appended rows need kernel evaluations. The (row j, row i)
  // argument order for j < i matches kernel_matrix() exactly.
  std::vector<linalg::Vector> rows;
  rows.reserve(new_n - old_n);
  for (std::size_t i = old_n; i < new_n; ++i) {
    const std::span<const double> xi = x_.row_span(i);
    linalg::Vector& row = rows.emplace_back(i);
    for (std::size_t j = 0; j < i; ++j) {
      row[j] = kernel_->eval(x_.row_span(j), xi);
    }
  }
  // Border the factor one row at a time. The noisy diagonal entry is formed
  // exactly as add_to_diagonal() would: gram diagonal + noise, one addition.
  obs::ScopedTimer chol_timer("gp.cholesky");
  const double diag = kernel_->diagonal_value() + noise_variance_;
  std::optional<linalg::Cholesky> grown;
  for (const linalg::Vector& row : rows) {
    auto next = (grown ? *grown : *chol_).extended(row, diag);
    if (!next.has_value()) return false;
    grown = std::move(next);
  }
  chol_ = std::move(grown);
  return true;
}

void GaussianProcess::shrink_factor() {
  const std::size_t n = x_.rows();
  HP_ASSERT(n > 0 && n < chol_->size(),
            "shrink_factor: classify_refit guarantees strict shrinkage");
  chol_ = chol_->truncated(n);
}

Prediction GaussianProcess::predict(const linalg::Vector& x_star) const {
  PredictScratch scratch;
  return predict(std::span<const double>(x_star.raw()), scratch);
}

Prediction GaussianProcess::predict(std::span<const double> x_star,
                                    PredictScratch& scratch) const {
  if (!fitted()) {
    throw std::logic_error("GaussianProcess::predict before fit");
  }
  const std::size_t n = x_.rows();
  scratch.k_star.resize(n);
  scratch.v.resize(n);
  const std::span<double> k_star(scratch.k_star);
  const std::span<double> v(scratch.v);
  kernel_cross_into(*kernel_, x_, x_star, k_star);
  Prediction p;
  p.mean = y_mean_ + linalg::dot(std::span<const double>(k_star),
                                 std::span<const double>(alpha_.raw()));
  // var = k(x*,x*) - v^T v with v = L^{-1} k_star.
  chol_->solve_lower_into(k_star, v);
  const double reduction = linalg::dot(std::span<const double>(v),
                                       std::span<const double>(v));
  p.variance = std::max(0.0, kernel_->diagonal_value() - reduction);
  HP_CHECK_FINITE(p.mean, "GaussianProcess::predict mean");
  HP_CHECK_FINITE(p.variance, "GaussianProcess::predict variance");
  return p;
}

double lml_of_factor(const linalg::Vector& centered,
                     const linalg::Vector& alpha,
                     const linalg::Cholesky& chol) {
  const auto n = static_cast<double>(centered.size());
  const double data_fit = -0.5 * linalg::dot(centered, alpha);
  const double complexity = -0.5 * chol.log_det();
  const double norm = -0.5 * n * std::log(2.0 * std::numbers::pi);
  return data_fit + complexity + norm;
}

double GaussianProcess::log_marginal_likelihood() const {
  if (!fitted()) {
    throw std::logic_error("GaussianProcess::log_marginal_likelihood before fit");
  }
  linalg::Vector centered = y_;
  for (std::size_t i = 0; i < centered.size(); ++i) centered[i] -= y_mean_;
  return lml_of_factor(centered, alpha_, *chol_);
}

linalg::Vector GaussianProcess::loo_means() const {
  if (!fitted()) {
    throw std::logic_error("GaussianProcess::loo_means before fit");
  }
  // mu_i = y_i - alpha_i / (K^{-1})_{ii}   (R&W 5.12)
  const linalg::Matrix kinv = chol_->inverse();
  linalg::Vector out(y_.size());
  for (std::size_t i = 0; i < y_.size(); ++i) {
    out[i] = y_[i] - alpha_[i] / kinv(i, i);
  }
  return out;
}

std::size_t GaussianProcess::num_observations() const noexcept {
  return x_.rows();
}

}  // namespace hp::gp
