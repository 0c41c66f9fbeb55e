#include "gp/kernel_fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "stats/rng.hpp"

namespace hp::gp {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(KernelFit, RejectsBadDataset) {
  KernelParams p;
  GaussianProcess gp(Matern52Kernel(p), 1e-4);
  EXPECT_THROW((void)fit_kernel_by_ml(gp, Matrix(), Vector()),
               std::invalid_argument);
  EXPECT_THROW((void)fit_kernel_by_ml(gp, Matrix(3, 1), Vector(2)),
               std::invalid_argument);
}

TEST(KernelFit, ImprovesLmlOverInitialGuess) {
  stats::Rng rng(3);
  Matrix x(30, 1);
  Vector y(30);
  for (std::size_t i = 0; i < 30; ++i) {
    x(i, 0) = rng.uniform();
    y[i] = std::sin(8.0 * x(i, 0)) + rng.gaussian(0.0, 0.05);
  }
  KernelParams start;
  start.signal_variance = 0.01;  // deliberately bad guess
  start.length_scales = {5.0};
  GaussianProcess gp(Matern52Kernel(start), 0.5);
  gp.fit(x, y);
  const double lml_before = gp.log_marginal_likelihood();

  KernelFitOptions opt;
  opt.num_restarts = 2;
  opt.iterations_per_restart = 25;
  const KernelFitResult result = fit_kernel_by_ml(gp, x, y, opt);
  EXPECT_GT(result.log_marginal_likelihood, lml_before);
  EXPECT_GT(result.evaluations, 0);
  // The GP ends up fitted with the chosen hyper-parameters.
  EXPECT_TRUE(gp.fitted());
  EXPECT_NEAR(gp.kernel().params().signal_variance,
              result.params.signal_variance, 1e-12);
}

TEST(KernelFit, RecoversSensibleLengthScaleOnSmoothData) {
  // Smooth slow function: fitted length scale should not be tiny.
  Matrix x(20, 1);
  Vector y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = static_cast<double>(i) / 19.0;
    y[i] = x(i, 0);  // linear, very smooth
  }
  KernelParams start;
  start.length_scales = {0.01};
  GaussianProcess gp(Matern52Kernel(start), 1e-4);
  KernelFitOptions opt;
  opt.num_restarts = 2;
  const KernelFitResult result = fit_kernel_by_ml(gp, x, y, opt);
  EXPECT_GT(result.params.length_scales[0], 0.05);
}

TEST(KernelFit, ExpandsIsotropicStartToArd) {
  Matrix x(15, 3);
  Vector y(15);
  stats::Rng rng(7);
  for (std::size_t i = 0; i < 15; ++i) {
    for (std::size_t d = 0; d < 3; ++d) x(i, d) = rng.uniform();
    y[i] = x(i, 0);
  }
  KernelParams start;  // single isotropic length scale
  GaussianProcess gp(Matern52Kernel(start), 1e-4);
  const KernelFitResult result = fit_kernel_by_ml(gp, x, y);
  EXPECT_EQ(result.params.length_scales.size(), 3u);
}

TEST(KernelFit, FitNoiseRespectsFloor) {
  Matrix x(10, 1);
  Vector y(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i) / 9.0;
    y[i] = 2.0 * x(i, 0);
  }
  KernelParams start;
  GaussianProcess gp(Matern52Kernel(start), 1.0);
  KernelFitOptions opt;
  opt.min_noise_variance = 1e-6;
  const KernelFitResult result = fit_kernel_by_ml(gp, x, y, opt);
  EXPECT_GE(result.noise_variance, opt.min_noise_variance);
  // Noiseless data: fitted noise should shrink well below the start value.
  EXPECT_LT(result.noise_variance, 1.0);
}

TEST(KernelFit, DeterministicForSeed) {
  Matrix x(12, 1);
  Vector y(12);
  for (std::size_t i = 0; i < 12; ++i) {
    x(i, 0) = static_cast<double>(i) / 11.0;
    y[i] = std::cos(3.0 * x(i, 0));
  }
  KernelParams start;
  GaussianProcess gp1(Matern52Kernel(start), 1e-3);
  GaussianProcess gp2(Matern52Kernel(start), 1e-3);
  KernelFitOptions opt;
  opt.seed = 99;
  const auto r1 = fit_kernel_by_ml(gp1, x, y, opt);
  const auto r2 = fit_kernel_by_ml(gp2, x, y, opt);
  EXPECT_DOUBLE_EQ(r1.log_marginal_likelihood, r2.log_marginal_likelihood);
  EXPECT_EQ(r1.evaluations, r2.evaluations);
}

/// A kernel whose formula is broken: any evaluation is a programming error.
class ThrowingKernel final : public Kernel {
 public:
  explicit ThrowingKernel(KernelParams params) : Kernel(std::move(params)) {}
  [[nodiscard]] double at_distance(double /*r*/) const override {
    throw std::logic_error("ThrowingKernel: broken formula");
  }
  [[nodiscard]] std::string name() const override { return "throwing"; }
  [[nodiscard]] std::unique_ptr<Kernel> with_params(
      KernelParams params) const override {
    return std::make_unique<ThrowingKernel>(std::move(params));
  }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<ThrowingKernel>(*this);
  }
};

TEST(KernelFit, LogicErrorFromKernelPropagates) {
  // Only an indefinite Gram matrix is a scored outcome (-inf); a bug in
  // the kernel must escape the search, not read as "no feasible kernel
  // parameters".
  Matrix x{{0.1, 0.2}, {0.5, 0.4}, {0.9, 0.7}};
  Vector y{1.0, 2.0, 0.5};
  GaussianProcess gp(ThrowingKernel(KernelParams{}), 1e-3);
  EXPECT_THROW((void)fit_kernel_by_ml(gp, x, y), std::logic_error);
}

TEST(KernelFit, RejectsLengthScaleCountMismatch) {
  KernelParams start;
  start.length_scales = {1.0, 2.0};  // two scales for three input dimensions
  GaussianProcess gp(Matern52Kernel(start), 1e-3);
  EXPECT_THROW((void)fit_kernel_by_ml(gp, Matrix(4, 3), Vector(4)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hp::gp
