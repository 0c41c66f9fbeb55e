#pragma once
// Gaussian-process regression: exact posterior inference with a Cholesky
// factor of the noisy kernel matrix, as used by the surrogate model M in the
// paper's Bayesian-optimization loop (Section 3.1):
//   f | X ~ N(m, K),  y | f, sigma^2 ~ N(f, sigma^2 I).

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::gp {

/// Posterior predictive distribution at one query point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;  ///< Latent-function variance (noise excluded).
  [[nodiscard]] double stddev() const noexcept;
  /// Variance of a new noisy observation (latent variance + noise).
  [[nodiscard]] double observation_variance(double noise_variance) const noexcept;
};

/// How the last fit() obtained its Cholesky factor (see DESIGN.md par.13).
/// Every kind produces bit-identical state to kFull; the incremental kinds
/// just skip redundant kernel evaluations and factorization work.
enum class RefitKind {
  kNone,       ///< never fitted
  kFull,       ///< Gram matrix + factorization from scratch
  kReused,     ///< same inputs: factor kept, only alpha recomputed
  kExtended,   ///< inputs grew by appended rows: O(n^2) bordered update
  kTruncated,  ///< inputs shrank to a prefix: leading-block copy
};

/// Stable literal name of a refit kind — trace-span annotation friendly
/// (the tracer stores the pointer, so the value must be a static string).
[[nodiscard]] constexpr const char* refit_kind_name(RefitKind kind) noexcept {
  switch (kind) {
    case RefitKind::kNone:
      return "none";
    case RefitKind::kFull:
      return "full";
    case RefitKind::kReused:
      return "reused";
    case RefitKind::kExtended:
      return "extended";
    case RefitKind::kTruncated:
      return "truncated";
  }
  return "unknown";
}

/// Reusable buffers for the allocation-free predict() overload. One scratch
/// per caller; reuse across calls to amortize allocations over a whole
/// candidate block.
struct PredictScratch {
  std::vector<double> k_star;
  std::vector<double> v;
};

/// Log marginal likelihood of centred targets @p centered under a GP whose
/// noisy covariance K_y = L L^T has factor @p chol, given
/// @p alpha = K_y^{-1} centered:
///   -0.5 centered^T alpha - 0.5 log|K_y| - (n / 2) log(2 pi).
/// The one formula behind GaussianProcess::log_marginal_likelihood() and
/// the probes of fit_kernel_by_ml().
[[nodiscard]] double lml_of_factor(const linalg::Vector& centered,
                                   const linalg::Vector& alpha,
                                   const linalg::Cholesky& chol);

/// Exact GP regressor. Construct once per dataset (refits on every
/// observation update, matching the sequential BO loop sizes of tens to a
/// few hundred points).
class GaussianProcess {
 public:
  /// @param kernel covariance function (cloned internally).
  /// @param noise_variance observation noise sigma^2 (>= 0).
  GaussianProcess(const Kernel& kernel, double noise_variance);

  /// Fits the posterior to inputs @p x (one row per observation) and
  /// targets @p y. Internally centres the targets on their mean (a constant
  /// mean function). Throws std::invalid_argument on shape mismatch or an
  /// empty dataset, std::runtime_error if the kernel matrix cannot be
  /// factorized even with jitter.
  ///
  /// When @p x relates to the previously fitted inputs by bitwise row
  /// comparison — identical, extended by appended rows, or truncated to a
  /// leading prefix — and the cached factor is jitter-free, the refit
  /// evaluates only the kernel rows of appended inputs and updates the
  /// Cholesky factor incrementally (O(n^2) instead of O(n^3)) with
  /// bit-identical results. The constant-liar
  /// push/pop and the one-observation-per-round BO loop hit these paths on
  /// every call; last_refit_kind() reports which path ran.
  void fit(linalg::Matrix x, linalg::Vector y);

  /// True once fit() has succeeded.
  [[nodiscard]] bool fitted() const noexcept { return chol_.has_value(); }

  /// Which path the most recent refit took (kNone before the first fit).
  /// Exposed so tests can assert the incremental paths actually engage.
  [[nodiscard]] RefitKind last_refit_kind() const noexcept {
    return last_refit_kind_;
  }

  /// Posterior predictive mean/variance at @p x_star.
  /// Throws std::logic_error if not fitted.
  [[nodiscard]] Prediction predict(const linalg::Vector& x_star) const;

  /// Allocation-free predict() over a raw coordinate span, reusing
  /// caller-owned @p scratch buffers — the core of the batched acquisition
  /// scoring path. Bit-identical to the Vector overload.
  [[nodiscard]] Prediction predict(std::span<const double> x_star,
                                   PredictScratch& scratch) const;

  /// Log marginal likelihood of the training targets under the current
  /// kernel/noise; the objective maximized by kernel fitting.
  [[nodiscard]] double log_marginal_likelihood() const;

  /// Leave-one-out predictive means (Rasmussen & Williams Eq. 5.12), a
  /// cheap internal cross-validation diagnostic.
  [[nodiscard]] linalg::Vector loo_means() const;

  [[nodiscard]] const Kernel& kernel() const noexcept { return *kernel_; }
  [[nodiscard]] double noise_variance() const noexcept { return noise_variance_; }
  [[nodiscard]] std::size_t num_observations() const noexcept;
  [[nodiscard]] double target_mean() const noexcept { return y_mean_; }

  /// Replaces the kernel (e.g. after hyper-parameter fitting) and refits if
  /// data is present. Invalidates the cached factor: the refit is full.
  void set_kernel(const Kernel& kernel);
  /// Replaces the noise variance and refits if data is present.
  /// Invalidates the cached factor: the refit is full.
  void set_noise_variance(double noise_variance);

 private:
  /// Classifies how @p x relates to the currently fitted inputs; kFull
  /// whenever the cache cannot be reused (invalidated, jittered factor,
  /// shape mismatch, or differing rows).
  [[nodiscard]] RefitKind classify_refit(const linalg::Matrix& x) const;

  void refit(RefitKind kind);
  /// Builds the Gram matrix and its factor from scratch.
  void refit_full();
  /// Grows the cached factor by the appended rows of x_; returns false
  /// when a bordered pivot fails (caller falls back to refit_full(), whose
  /// jitter retry reproduces the historical behaviour).
  [[nodiscard]] bool try_extend_factor();
  /// Shrinks the cached factor to the leading x_.rows() block.
  void shrink_factor();

  std::unique_ptr<Kernel> kernel_;
  double noise_variance_;
  linalg::Matrix x_;
  linalg::Vector y_;         ///< raw targets
  double y_mean_ = 0.0;      ///< constant mean function value
  std::optional<linalg::Cholesky> chol_;
  linalg::Vector alpha_;     ///< K_y^{-1} (y - mean)
  bool cache_valid_ = false;  ///< chol_ matches x_ under current kernel/noise
  RefitKind last_refit_kind_ = RefitKind::kNone;
};

}  // namespace hp::gp
