#pragma once
// Kernel hyper-parameter selection by maximizing the log marginal
// likelihood. Spearmint integrates hyper-parameters out with slice
// sampling; for a deterministic, dependency-free reproduction we use
// multi-start randomized coordinate search in log-space (type-II maximum
// likelihood), which is the other standard choice (GPML, scikit-learn).

#include <cstdint>

#include "gp/gaussian_process.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::parallel {
class ThreadPool;
}  // namespace hp::parallel

namespace hp::gp {

/// Search configuration for maximum-likelihood kernel fitting.
struct KernelFitOptions {
  int num_restarts = 4;          ///< random restarts (plus the incumbent start)
  int iterations_per_restart = 40;
  double initial_step = 0.5;     ///< log-space step size
  double min_step = 1e-3;        ///< stop when the step shrinks below this
  double min_log = -6.0;         ///< bounds on log(params)
  double max_log = 6.0;
  bool fit_noise = true;         ///< also optimize the noise variance
  double min_noise_variance = 1e-8;
  std::uint64_t seed = 2018;
};

/// Result of a kernel fit.
struct KernelFitResult {
  KernelParams params;
  double noise_variance = 0.0;
  double log_marginal_likelihood = 0.0;
  int evaluations = 0;  ///< number of LML evaluations performed
};

/// Maximizes the LML of @p gp's kernel family on (@p x, @p y) and installs
/// the best hyper-parameters into @p gp (which ends up fitted on the data).
///
/// The search runs num_restarts + 1 independent starts: start 0 climbs
/// from @p gp's current parameters, start k > 0 from a random point, and
/// start k draws only from stats::stream_seed(options.seed, k). The best
/// start by LML wins, the lowest k on ties; `evaluations` sums the probes
/// of every start. With @p pool the starts run on its threads; the result
/// is bitwise the same with or without a pool and at any pool size.
/// Throws std::invalid_argument on an empty/mismatched dataset or a
/// negative num_restarts.
KernelFitResult fit_kernel_by_ml(GaussianProcess& gp, const linalg::Matrix& x,
                                 const linalg::Vector& y,
                                 const KernelFitOptions& options = {},
                                 parallel::ThreadPool* pool = nullptr);

}  // namespace hp::gp
