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
#include "parallel/thread_pool.hpp"
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
/// centred targets are built once and only read afterwards, so one probe
/// serves every start of a fit, concurrently; each caller brings its own
/// r^2 scratch. A probe assembles the noisy Gram matrix from them with
/// exactly the arithmetic of kernel_matrix() + add_to_diagonal() +
/// GaussianProcess::fit(), so its value is bit-identical to the LML of a
/// GaussianProcess fitted with the same kernel and noise.
class LmlProbe {
 public:
  LmlProbe(const linalg::Matrix& x, const linalg::Vector& y)
      : n_(x.rows()),
        dims_(x.cols()),
        pairs_(n_ * (n_ - 1) / 2),
        diff_(pairs_ * dims_),
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
  /// @p r2 is the caller's scratch (resized here).
  double operator()(const Kernel& kernel, double noise,
                    std::vector<double>& r2) const {
    const KernelParams& params = kernel.params();
    // r^2 per pair, summed over d in ascending order as ard_distance()
    // does; the inner loop runs across independent pairs.
    r2.assign(pairs_, 0.0);
    for (std::size_t d = 0; d < dims_; ++d) {
      const double l = params.length_scale(d);
      const double* diff = diff_.data() + d * pairs_;
      for (std::size_t p = 0; p < pairs_; ++p) {
        const double q = diff[p] / l;
        r2[p] += q * q;
      }
    }
    linalg::Matrix gram(n_, n_);
    const double diag = kernel.diagonal_value() + noise;
    std::size_t p = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      gram(i, i) = diag;
      for (std::size_t j = i + 1; j < n_; ++j) {
        const double v = kernel.at_distance(std::sqrt(r2[p++]));
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
  linalg::Vector centered_;
};

/// @p v clamped to the search box [min_log, max_log].
double clamp_log(const KernelFitOptions& options, double v) {
  return std::min(options.max_log, std::max(options.min_log, v));
}

/// Where one start of the search ended.
struct StartResult {
  FlatParams params;
  double lml = 0.0;
  int evaluations = 0;
};

/// Start @p k of the multi-start search: k = 0 climbs from @p incumbent,
/// k > 0 from a uniform random point. Every draw comes from the start's
/// own stream, so a start's result depends on nothing but (seed, k) and
/// the data — never on which thread runs it or on the other starts.
StartResult run_start(const LmlProbe& probe, const Kernel& family,
                      const FlatParams& incumbent, std::size_t k,
                      const KernelFitOptions& options) {
  stats::Rng rng(stats::stream_seed(options.seed, k));
  std::vector<double> r2;
  StartResult result;
  // Objective: LML of the candidate parameters; -inf for numerically
  // infeasible settings. Any exception is a bug and propagates.
  const auto evaluate = [&](const FlatParams& fp) -> double {
    ++result.evaluations;
    const auto kernel = family.with_params(fp.to_kernel_params());
    return probe(*kernel, fp.noise_variance(options.min_noise_variance), r2);
  };

  FlatParams current = incumbent;
  if (k > 0) {
    for (double& v : current.values) {
      v = clamp_log(options, rng.uniform(options.min_log / 2.0,
                                         options.max_log / 2.0));
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
        candidate.values[c] =
            clamp_log(options, candidate.values[c] + direction * step);
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
  result.params = std::move(current);
  result.lml = current_lml;
  return result;
}

}  // namespace

KernelFitResult fit_kernel_by_ml(GaussianProcess& gp, const linalg::Matrix& x,
                                 const linalg::Vector& y,
                                 const KernelFitOptions& options,
                                 parallel::ThreadPool* pool) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    throw std::invalid_argument("fit_kernel_by_ml: bad dataset");
  }
  if (options.num_restarts < 0) {
    throw std::invalid_argument("fit_kernel_by_ml: num_restarts must be >= 0");
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

  // Incumbent start: current kernel parameters (broadcast length scales).
  const auto clamped_log = [&](double v) {
    return clamp_log(options, std::log(v));
  };
  FlatParams incumbent;
  incumbent.num_length_scales = num_ls;
  incumbent.has_noise = options.fit_noise;
  incumbent.values.push_back(clamped_log(start.signal_variance));
  for (std::size_t d = 0; d < num_ls; ++d) {
    incumbent.values.push_back(clamped_log(
        start.length_scale(start.length_scales.size() == 1 ? 0 : d)));
  }
  if (options.fit_noise) {
    incumbent.values.push_back(clamped_log(
        std::max(gp.noise_variance(), options.min_noise_variance)));
  }

  // The starts are independent, so they run on the pool when there is one;
  // the reduction below is serial and in start order either way.
  const LmlProbe probe(x, y);
  std::vector<StartResult> starts(
      static_cast<std::size_t>(options.num_restarts) + 1);
  const auto run = [&](std::size_t k) {
    starts[k] = run_start(probe, gp.kernel(), incumbent, k, options);
  };
  parallel::parallel_for(pool, starts.size(), run);

  // Best by LML; strict > keeps the lowest start index on ties.
  std::size_t best = 0;
  int evaluations = 0;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    evaluations += starts[k].evaluations;
    if (starts[k].lml > starts[best].lml) best = k;
  }
  if (!std::isfinite(starts[best].lml)) {
    throw std::runtime_error(
        "fit_kernel_by_ml: no feasible kernel parameters found");
  }

  KernelFitResult result;
  result.params = starts[best].params.to_kernel_params();
  result.noise_variance =
      starts[best].params.noise_variance(options.min_noise_variance);
  result.log_marginal_likelihood = starts[best].lml;
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
