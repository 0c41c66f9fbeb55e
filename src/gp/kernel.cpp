#include "gp/kernel.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"

namespace hp::gp {

void KernelParams::validate() const {
  if (signal_variance <= 0.0 || !std::isfinite(signal_variance)) {
    throw std::invalid_argument("KernelParams: signal_variance must be > 0");
  }
  if (length_scales.empty()) {
    throw std::invalid_argument("KernelParams: need at least one length scale");
  }
  for (double l : length_scales) {
    if (l <= 0.0 || !std::isfinite(l)) {
      throw std::invalid_argument("KernelParams: length scales must be > 0");
    }
  }
}

double KernelParams::length_scale(std::size_t d) const {
  if (length_scales.size() == 1) return length_scales[0];
  if (d >= length_scales.size()) {
    throw std::out_of_range("KernelParams::length_scale: dimension out of range");
  }
  return length_scales[d];
}

double ard_distance(std::span<const double> a, std::span<const double> b,
                    const KernelParams& params) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("ard_distance: dimension mismatch");
  }
  if (params.length_scales.size() != 1 &&
      params.length_scales.size() != a.size()) {
    throw std::invalid_argument(
        "ard_distance: length-scale count must be 1 or match the dimension");
  }
  double r2 = 0.0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    const double diff = (a[d] - b[d]) / params.length_scale(d);
    r2 += diff * diff;
  }
  return std::sqrt(r2);
}

double ard_distance(const linalg::Vector& a, const linalg::Vector& b,
                    const KernelParams& params) {
  return ard_distance(std::span<const double>(a.raw()),
                      std::span<const double>(b.raw()), params);
}

Kernel::Kernel(KernelParams params) : params_(std::move(params)) {
  params_.validate();
}

SquaredExponentialKernel::SquaredExponentialKernel(KernelParams params)
    : Kernel(std::move(params)) {}

double SquaredExponentialKernel::at_distance(double r) const {
  return params().signal_variance * std::exp(-0.5 * r * r);
}

std::unique_ptr<Kernel> SquaredExponentialKernel::with_params(
    KernelParams params) const {
  return std::make_unique<SquaredExponentialKernel>(std::move(params));
}

std::unique_ptr<Kernel> SquaredExponentialKernel::clone() const {
  return std::make_unique<SquaredExponentialKernel>(*this);
}

Matern32Kernel::Matern32Kernel(KernelParams params)
    : Kernel(std::move(params)) {}

double Matern32Kernel::at_distance(double r) const {
  const double s = std::sqrt(3.0) * r;
  return params().signal_variance * (1.0 + s) * std::exp(-s);
}

std::unique_ptr<Kernel> Matern32Kernel::with_params(KernelParams params) const {
  return std::make_unique<Matern32Kernel>(std::move(params));
}

std::unique_ptr<Kernel> Matern32Kernel::clone() const {
  return std::make_unique<Matern32Kernel>(*this);
}

Matern52Kernel::Matern52Kernel(KernelParams params)
    : Kernel(std::move(params)) {}

double Matern52Kernel::at_distance(double r) const {
  const double s = std::sqrt(5.0) * r;
  return params().signal_variance * (1.0 + s + s * s / 3.0) * std::exp(-s);
}

std::unique_ptr<Kernel> Matern52Kernel::with_params(KernelParams params) const {
  return std::make_unique<Matern52Kernel>(std::move(params));
}

std::unique_ptr<Kernel> Matern52Kernel::clone() const {
  return std::make_unique<Matern52Kernel>(*this);
}

linalg::Matrix kernel_matrix(const Kernel& k, const linalg::Matrix& x) {
  const std::size_t n = x.rows();
  linalg::Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> xi = x.row_span(i);
    out(i, i) = k.diagonal_value();
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = k.eval(xi, x.row_span(j));
      out(i, j) = v;
      out(j, i) = v;
    }
  }
  return out;
}

linalg::Vector kernel_cross(const Kernel& k, const linalg::Matrix& x,
                            const linalg::Vector& x_star) {
  linalg::Vector out(x.rows());
  kernel_cross_into(k, x, std::span<const double>(x_star.raw()),
                    std::span<double>(out.raw()));
  return out;
}

void kernel_cross_into(const Kernel& k, const linalg::Matrix& x,
                       std::span<const double> x_star, std::span<double> out) {
  HP_REQUIRE(out.size() == x.rows(),
             "kernel_cross_into: output size must match the row count");
  for (std::size_t i = 0; i < x.rows(); ++i) {
    out[i] = k.eval(x.row_span(i), x_star);
  }
}

}  // namespace hp::gp
