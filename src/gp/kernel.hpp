#pragma once
// Covariance kernels for Gaussian-process regression. Spearmint (the tool
// HyperPower builds on) defaults to a Matern 5/2 kernel with automatic
// relevance determination (ARD) length-scales; we provide that plus
// squared-exponential and Matern 3/2 for comparison/ablation.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::gp {

/// Hyper-parameters shared by all stationary ARD kernels.
struct KernelParams {
  /// Signal variance sigma_f^2 (amplitude of function variation). Must be > 0.
  double signal_variance = 1.0;
  /// One positive length-scale per input dimension (ARD). A single entry is
  /// broadcast to all dimensions (isotropic kernel).
  std::vector<double> length_scales = {1.0};

  /// Validates positivity; throws std::invalid_argument on violation.
  void validate() const;
  /// Length-scale for dimension @p d (handles the broadcast case).
  [[nodiscard]] double length_scale(std::size_t d) const;
};

/// Scaled Euclidean distance r used by all ARD kernels below:
/// r^2 = sum over d, in ascending order, of ((a_d - b_d) / l_d)^2.
[[nodiscard]] double ard_distance(std::span<const double> a,
                                  std::span<const double> b,
                                  const KernelParams& params);

/// Vector convenience overload of ard_distance; forwards to the span form.
[[nodiscard]] double ard_distance(const linalg::Vector& a,
                                  const linalg::Vector& b,
                                  const KernelParams& params);

/// Abstract stationary ARD covariance function k(x, x') = f(r), where r is
/// the ard_distance() of the two points. A kernel family supplies only its
/// formula f (at_distance), so the maximum-likelihood fit can evaluate the
/// same formula from cached distances.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Covariance between two points given as raw coordinate spans — the
  /// allocation-free core used by the cached/batched Gram assemblers.
  /// Throws std::invalid_argument on dimension mismatch between the points.
  [[nodiscard]] double eval(std::span<const double> a,
                            std::span<const double> b) const {
    return at_distance(ard_distance(a, b, params_));
  }

  /// Covariance between two points; forwards to eval().
  [[nodiscard]] double operator()(const linalg::Vector& a,
                                  const linalg::Vector& b) const {
    return eval(std::span<const double>(a.raw()),
                std::span<const double>(b.raw()));
  }

  /// Covariance at scaled distance @p r >= 0: the family's formula.
  [[nodiscard]] virtual double at_distance(double r) const = 0;

  /// k(x, x) — for stationary kernels this is the signal variance.
  [[nodiscard]] double diagonal_value() const noexcept {
    return params_.signal_variance;
  }

  [[nodiscard]] const KernelParams& params() const noexcept { return params_; }

  [[nodiscard]] virtual std::string name() const = 0;
  /// Clone with different hyper-parameters (same functional form).
  [[nodiscard]] virtual std::unique_ptr<Kernel> with_params(
      KernelParams params) const = 0;
  [[nodiscard]] virtual std::unique_ptr<Kernel> clone() const = 0;

 protected:
  /// Validates @p params (KernelParams::validate()).
  explicit Kernel(KernelParams params);
  Kernel(const Kernel&) = default;
  Kernel(Kernel&&) = default;
  Kernel& operator=(const Kernel&) = default;
  Kernel& operator=(Kernel&&) = default;

 private:
  KernelParams params_;
};

/// k(r) = sigma_f^2 * exp(-0.5 * r^2).
class SquaredExponentialKernel final : public Kernel {
 public:
  explicit SquaredExponentialKernel(KernelParams params);
  [[nodiscard]] double at_distance(double r) const override;
  [[nodiscard]] std::string name() const override { return "squared_exponential"; }
  [[nodiscard]] std::unique_ptr<Kernel> with_params(KernelParams params) const override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override;
};

/// Matern nu=3/2: sigma_f^2 * (1 + sqrt(3) r) exp(-sqrt(3) r).
class Matern32Kernel final : public Kernel {
 public:
  explicit Matern32Kernel(KernelParams params);
  [[nodiscard]] double at_distance(double r) const override;
  [[nodiscard]] std::string name() const override { return "matern32"; }
  [[nodiscard]] std::unique_ptr<Kernel> with_params(KernelParams params) const override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override;
};

/// Matern nu=5/2 (Spearmint's default):
/// sigma_f^2 * (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r).
class Matern52Kernel final : public Kernel {
 public:
  explicit Matern52Kernel(KernelParams params);
  [[nodiscard]] double at_distance(double r) const override;
  [[nodiscard]] std::string name() const override { return "matern52"; }
  [[nodiscard]] std::unique_ptr<Kernel> with_params(KernelParams params) const override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override;
};

/// Builds the symmetric Gram matrix K(X, X) for rows of @p x.
[[nodiscard]] linalg::Matrix kernel_matrix(const Kernel& k,
                                           const linalg::Matrix& x);

/// Builds the cross-covariance vector k(X, x_star).
[[nodiscard]] linalg::Vector kernel_cross(const Kernel& k,
                                          const linalg::Matrix& x,
                                          const linalg::Vector& x_star);

/// Fills @p out with the cross-covariance k(X, x_star) without allocating —
/// the core of kernel_cross(), used by the batched prediction path.
/// Dimension agreement is an HP_REQUIRE contract.
void kernel_cross_into(const Kernel& k, const linalg::Matrix& x,
                       std::span<const double> x_star, std::span<double> out);

}  // namespace hp::gp
