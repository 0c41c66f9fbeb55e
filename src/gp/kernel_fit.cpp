#include "gp/kernel_fit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "linalg/cholesky.hpp"
#include "obs/span.hpp"
#include "stats/rng.hpp"

namespace hp::gp {

namespace {

/// Flat log-space parameter vector: [log sv, log l_1..l_D, (log noise)].
struct FlatParams {
  std::vector<double> values;
  std::size_t num_length_scales;
  bool has_noise;

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

/// The LML objective on one dataset. The pairwise input differences and the
/// centred targets are built once; each probe then assembles the noisy Gram
/// matrix from them with exactly the arithmetic of kernel_matrix() +
/// add_to_diagonal() + GaussianProcess::fit(), so a probe's value is
/// bit-identical to the LML of a GaussianProcess fitted with the same
/// kernel and noise.
class LmlProbe {
 public:
  LmlProbe(const linalg::Matrix& x, const linalg::Vector& y)
      : n_(x.rows()),
        dims_(x.cols()),
        pairs_(n_ * (n_ - 1) / 2),
        diff_(pairs_ * dims_),
        r2_(pairs_),
        centered_(y) {
    // Dimension-major: diff_[d * pairs_ + p] = x(i,d) - x(j,d) for the p-th
    // pair i < j in kernel_matrix()'s upper-triangle order, i.e. the
    // operand order of ard_distance(row i, row j).
    for (std::size_t d = 0; d < dims_; ++d) {
      double* out = diff_.data() + d * pairs_;
      for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = i + 1; j < n_; ++j) *out++ = x(i, d) - x(j, d);
      }
    }
    const double mean = y.mean();
    for (std::size_t i = 0; i < n_; ++i) centered_[i] -= mean;
  }

  /// LML under @p kernel with observation noise @p noise; -inf when the
  /// Gram matrix stays indefinite even with jitter or the LML is not finite.
  double operator()(const Kernel& kernel, double noise) {
    const KernelParams& params = kernel.params();
    // r^2 per pair, summed over d in ascending order as ard_distance()
    // does; the inner loop runs across independent pairs.
    std::fill(r2_.begin(), r2_.end(), 0.0);
    for (std::size_t d = 0; d < dims_; ++d) {
      const double l = params.length_scale(d);
      const double* diff = diff_.data() + d * pairs_;
      for (std::size_t p = 0; p < pairs_; ++p) {
        const double q = diff[p] / l;
        r2_[p] += q * q;
      }
    }
    linalg::Matrix gram(n_, n_);
    const double diag = kernel.diagonal_value() + noise;
    std::size_t p = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      gram(i, i) = diag;
      for (std::size_t j = i + 1; j < n_; ++j) {
        const double v = kernel.at_distance(std::sqrt(r2_[p++]));
        gram(i, j) = v;
        gram(j, i) = v;
      }
    }
    const auto chol = linalg::Cholesky::with_jitter(std::move(gram));
    if (!chol.has_value()) return -std::numeric_limits<double>::infinity();
    const double lml = lml_of_factor(centered_, chol->solve(centered_), *chol);
    return std::isfinite(lml) ? lml : -std::numeric_limits<double>::infinity();
  }

 private:
  std::size_t n_;
  std::size_t dims_;
  std::size_t pairs_;
  std::vector<double> diff_;
  std::vector<double> r2_;  ///< per-probe scratch
  linalg::Vector centered_;
};

}  // namespace

KernelFitResult fit_kernel_by_ml(GaussianProcess& gp, const linalg::Matrix& x,
                                 const linalg::Vector& y,
                                 const KernelFitOptions& options) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    throw std::invalid_argument("fit_kernel_by_ml: bad dataset");
  }
  const KernelParams& start = gp.kernel().params();
  if (start.length_scales.size() != 1 &&
      start.length_scales.size() != x.cols()) {
    throw std::invalid_argument(
        "fit_kernel_by_ml: length-scale count must be 1 or match the input "
        "dimension");
  }
  HP_CHECK_ALL_FINITE(y, "fit_kernel_by_ml targets y");
  const std::size_t num_ls = x.cols();
  obs::ScopedTimer span("gp.fit_kernel", x.rows());
  span.trace_arg({"n", x.rows()});

  stats::Rng rng(options.seed);
  int evaluations = 0;
  LmlProbe probe(x, y);

  // Objective: LML of the candidate parameters; -inf for numerically
  // infeasible settings. Any exception is a bug and propagates.
  const auto evaluate = [&](const FlatParams& fp) -> double {
    ++evaluations;
    const auto kernel = gp.kernel().with_params(fp.to_kernel_params());
    return probe(*kernel, fp.noise_variance(options.min_noise_variance));
  };

  const auto clamp_log = [&](double v) {
    return std::min(options.max_log, std::max(options.min_log, v));
  };

  // Incumbent start: current kernel parameters (broadcast length scales).
  FlatParams best;
  best.num_length_scales = num_ls;
  best.has_noise = options.fit_noise;
  best.values.push_back(clamp_log(std::log(start.signal_variance)));
  for (std::size_t d = 0; d < num_ls; ++d) {
    best.values.push_back(clamp_log(std::log(start.length_scale(
        start.length_scales.size() == 1 ? 0 : d))));
  }
  if (options.fit_noise) {
    best.values.push_back(clamp_log(
        std::log(std::max(gp.noise_variance(), options.min_noise_variance))));
  }
  double best_lml = evaluate(best);

  for (int restart = 0; restart <= options.num_restarts; ++restart) {
    FlatParams current = best;
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
      // Randomized coordinate descent: try +/- step on each coordinate in a
      // random order, keep the first improvement.
      for (std::size_t c : rng.permutation(current.values.size())) {
        for (double direction : {+1.0, -1.0}) {
          FlatParams candidate = current;
          candidate.values[c] = clamp_log(candidate.values[c] + direction * step);
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
    if (current_lml > best_lml) {
      best = current;
      best_lml = current_lml;
    }
  }

  if (!std::isfinite(best_lml)) {
    throw std::runtime_error(
        "fit_kernel_by_ml: no feasible kernel parameters found");
  }

  KernelFitResult result;
  result.params = best.to_kernel_params();
  result.noise_variance = best.noise_variance(options.min_noise_variance);
  result.log_marginal_likelihood = best_lml;
  result.evaluations = evaluations;
  span.trace_arg({"probes", evaluations});

  // A fresh GP fits (x, y) once; changing the hyper-parameters of `gp` in
  // place would first refit its old data under them, an extra O(n^3).
  gp = GaussianProcess(*gp.kernel().with_params(result.params),
                       result.noise_variance);
  gp.fit(x, y);
  return result;
}

}  // namespace hp::gp
