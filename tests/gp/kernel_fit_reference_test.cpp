// Bitwise equivalence of fit_kernel_by_ml() against a serial reference
// search whose every probe fits a fresh GaussianProcess — the
// straightforward formulation the cached-difference probe and the
// independent per-start streams must reproduce exactly. Doubles
// are compared with EXPECT_EQ, never a tolerance: the golden traces depend
// on the fit choosing identical hyper-parameters.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/contracts.hpp"
#include "gp/kernel_fit.hpp"
#include "linalg/cholesky.hpp"
#include "stats/rng.hpp"

namespace hp::gp {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// Flat log-space parameter vector: [log sv, log l_1..l_D, (log noise)].
struct RefParams {
  std::vector<double> values;
  std::size_t num_length_scales = 0;
  bool has_noise = false;

  [[nodiscard]] KernelParams to_kernel_params() const {
    KernelParams p;
    p.signal_variance = std::exp(values[0]);
    p.length_scales.resize(num_length_scales);
    for (std::size_t d = 0; d < num_length_scales; ++d) {
      p.length_scales[d] = std::exp(values[1 + d]);
    }
    return p;
  }
  [[nodiscard]] double noise_variance(double min_noise) const {
    if (!has_noise) return min_noise;
    return std::max(min_noise, std::exp(values.back()));
  }
};

/// The search of fit_kernel_by_ml() with each probe a fitted
/// GaussianProcess; a probe whose factorization fails scores -inf. Start k
/// (0 = incumbent, then the random restarts) draws from its own
/// stream_seed(seed, k) stream; the best start by LML wins, the lowest k on
/// ties.
KernelFitResult reference_fit(const GaussianProcess& gp, const Matrix& x,
                              const Vector& y,
                              const KernelFitOptions& options) {
  const KernelParams& start = gp.kernel().params();
  const std::size_t num_ls = x.cols();
  int evaluations = 0;
  const auto evaluate = [&](const RefParams& fp) -> double {
    ++evaluations;
    const auto kernel = gp.kernel().with_params(fp.to_kernel_params());
    GaussianProcess probe(*kernel,
                          fp.noise_variance(options.min_noise_variance));
    try {
      probe.fit(x, y);
    } catch (const core::ContractViolation&) {
      return -std::numeric_limits<double>::infinity();  // not PD with jitter
    }
    const double lml = probe.log_marginal_likelihood();
    return std::isfinite(lml) ? lml : -std::numeric_limits<double>::infinity();
  };
  const auto clamp_log = [&](double v) {
    return std::min(options.max_log, std::max(options.min_log, v));
  };

  RefParams incumbent;
  incumbent.num_length_scales = num_ls;
  incumbent.has_noise = options.fit_noise;
  incumbent.values.push_back(clamp_log(std::log(start.signal_variance)));
  for (std::size_t d = 0; d < num_ls; ++d) {
    incumbent.values.push_back(clamp_log(std::log(start.length_scale(
        start.length_scales.size() == 1 ? 0 : d))));
  }
  if (options.fit_noise) {
    incumbent.values.push_back(clamp_log(
        std::log(std::max(gp.noise_variance(), options.min_noise_variance))));
  }
  RefParams best;
  double best_lml = -std::numeric_limits<double>::infinity();
  for (int restart = 0; restart <= options.num_restarts; ++restart) {
    stats::Rng rng(stats::stream_seed(options.seed,
                                      static_cast<std::uint64_t>(restart)));
    RefParams current = incumbent;
    if (restart > 0) {
      for (double& v : current.values) {
        v = clamp_log(rng.uniform(options.min_log / 2.0, options.max_log / 2.0));
      }
    }
    double current_lml = evaluate(current);
    double step = options.initial_step;
    for (int iter = 0; iter < options.iterations_per_restart; ++iter) {
      if (step < options.min_step) break;
      bool improved = false;
      for (std::size_t c : rng.permutation(current.values.size())) {
        for (double direction : {+1.0, -1.0}) {
          RefParams candidate = current;
          candidate.values[c] =
              clamp_log(candidate.values[c] + direction * step);
          if (candidate.values[c] == current.values[c]) continue;
          const double lml = evaluate(candidate);
          if (lml > current_lml) {
            current = candidate;
            current_lml = lml;
            improved = true;
            break;
          }
        }
        if (improved) break;
      }
      if (!improved) step *= 0.5;
    }
    if (restart == 0 || current_lml > best_lml) {
      best = current;
      best_lml = current_lml;
    }
  }
  KernelFitResult result;
  result.params = best.to_kernel_params();
  result.noise_variance = best.noise_variance(options.min_noise_variance);
  result.log_marginal_likelihood = best_lml;
  result.evaluations = evaluations;
  return result;
}

std::unique_ptr<Kernel> make_kernel(const std::string& name,
                                    KernelParams params) {
  if (name == "squared_exponential") {
    return std::make_unique<SquaredExponentialKernel>(std::move(params));
  }
  if (name == "matern32") {
    return std::make_unique<Matern32Kernel>(std::move(params));
  }
  return std::make_unique<Matern52Kernel>(std::move(params));
}

constexpr std::size_t kDims = 13;

/// n points in [0,1]^13 with a smooth target plus a little noise.
void make_dataset(std::size_t n, std::uint64_t seed, Matrix* x, Vector* y) {
  stats::Rng rng(seed);
  *x = Matrix(n, kDims);
  *y = Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t d = 0; d < kDims; ++d) {
      (*x)(i, d) = rng.uniform();
      s += std::sin(3.0 * (*x)(i, d) + static_cast<double>(d));
    }
    (*y)[i] = s + rng.gaussian(0.0, 0.05);
  }
}

KernelParams start_params(bool ard) {
  KernelParams p;
  p.signal_variance = 0.8;
  if (ard) {
    p.length_scales.clear();
    for (std::size_t d = 0; d < kDims; ++d) {
      p.length_scales.push_back(0.2 + 0.05 * static_cast<double>(d));
    }
  } else {
    p.length_scales = {0.4};
  }
  return p;
}

/// A small search budget: every probe is checked, and n = 120 stays quick.
KernelFitOptions options_for(std::size_t n, bool fit_noise) {
  KernelFitOptions opt;
  opt.fit_noise = fit_noise;
  opt.num_restarts = n >= 120 ? 1 : 2;
  opt.iterations_per_restart = n >= 120 ? 12 : 25;
  opt.seed = 7 + n;
  return opt;
}

void expect_same_fit(const KernelFitResult& got, const KernelFitResult& want) {
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.log_marginal_likelihood, want.log_marginal_likelihood);
  EXPECT_EQ(got.noise_variance, want.noise_variance);
  EXPECT_EQ(got.params.signal_variance, want.params.signal_variance);
  ASSERT_EQ(got.params.length_scales.size(), want.params.length_scales.size());
  for (std::size_t d = 0; d < got.params.length_scales.size(); ++d) {
    EXPECT_EQ(got.params.length_scales[d], want.params.length_scales[d])
        << "d=" << d;
  }
}

using FitCase = std::tuple<std::string, bool, bool>;  // kernel, ard, noise

class KernelFitReference : public ::testing::TestWithParam<FitCase> {};

TEST_P(KernelFitReference, MatchesGaussianProcessProbesBitForBit) {
  const auto& [kernel_name, ard, fit_noise] = GetParam();
  for (std::size_t n : {std::size_t{2}, std::size_t{40}, std::size_t{120}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Matrix x;
    Vector y;
    make_dataset(n, 100 + n, &x, &y);
    const auto kernel = make_kernel(kernel_name, start_params(ard));
    GaussianProcess gp(*kernel, 1e-3);
    const KernelFitOptions opt = options_for(n, fit_noise);
    const KernelFitResult want = reference_fit(gp, x, y, opt);
    const KernelFitResult got = fit_kernel_by_ml(gp, x, y, opt);
    expect_same_fit(got, want);
    // The installed GP is fitted with the chosen parameters.
    EXPECT_EQ(gp.noise_variance(), want.noise_variance);
    EXPECT_EQ(gp.kernel().params().signal_variance,
              want.params.signal_variance);
  }
}

std::string fit_case_name(const ::testing::TestParamInfo<FitCase>& info) {
  return std::get<0>(info.param) + (std::get<1>(info.param) ? "_ard" : "_iso") +
         (std::get<2>(info.param) ? "_fitnoise" : "_fixednoise");
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelFitReference,
    ::testing::Combine(::testing::Values("squared_exponential", "matern32",
                                         "matern52"),
                       ::testing::Bool(), ::testing::Bool()),
    fit_case_name);

TEST(KernelFitReference, DuplicateRowsTakeTheJitterPathIdentically) {
  // Repeated inputs with zero noise make the Gram matrix singular, so the
  // factorization needs jitter (or fails) on many probes.
  Matrix base;
  Vector y;
  make_dataset(40, 5, &base, &y);
  Matrix x = base;
  for (std::size_t i = 20; i < 40; ++i) {
    for (std::size_t d = 0; d < kDims; ++d) x(i, d) = base(i - 20, d);
  }
  KernelFitOptions opt = options_for(40, /*fit_noise=*/false);
  opt.min_noise_variance = 0.0;
  const Matern52Kernel kernel(start_params(true));
  // The incumbent probe's Gram matrix is singular without jitter.
  const auto start_chol = linalg::Cholesky::with_jitter(kernel_matrix(kernel, x));
  ASSERT_TRUE(start_chol.has_value());
  EXPECT_GT(start_chol->jitter_used(), 0.0);

  GaussianProcess gp(kernel, 0.0);
  const KernelFitResult want = reference_fit(gp, x, y, opt);
  const KernelFitResult got = fit_kernel_by_ml(gp, x, y, opt);
  expect_same_fit(got, want);
}

}  // namespace
}  // namespace hp::gp
