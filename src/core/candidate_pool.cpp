#include "core/candidate_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "stats/halton.hpp"

namespace hp::core {

CandidatePool::CandidatePool(const HyperParameterSpace& space,
                             CandidatePoolOptions options)
    : space_(space), options_(options) {
  if (options_.lattice_points + options_.random_points == 0) {
    throw std::invalid_argument("CandidatePool: empty pool");
  }
  if (options_.score_block_size == 0) {
    throw std::invalid_argument("CandidatePool: score_block_size must be >= 1");
  }
  if (options_.lattice_points > 0) {
    stats::HaltonSequence halton(space_.dimension(), options_.lattice_seed);
    lattice_ = halton.take(options_.lattice_points);
  }
  lattice_configs_.reserve(lattice_.size());
  for (const std::vector<double>& unit : lattice_) {
    lattice_configs_.push_back(space_.decode(unit));
  }
}

CandidatePool::Maximizer CandidatePool::maximize(
    const AcquisitionFunction& acquisition, const AcquisitionContext& ctx,
    stats::Rng& rng, parallel::ThreadPool* pool) {
  const std::size_t num_lattice = lattice_.size();
  const std::size_t num_random = options_.random_points;
  const std::size_t total = num_lattice + num_random;
  const std::size_t block = options_.score_block_size;

  // Draw every random candidate up front, on this thread. The historical
  // scalar path interleaved the draws with scoring, but scoring consumes no
  // RNG, so the draw sequence — and therefore every trace — is unchanged.
  random_units_.resize(num_random);
  for (auto& unit : random_units_) {
    unit.resize(space_.dimension());
    for (double& u : unit) u = rng.uniform();
  }

  // Blocks never straddle the lattice/random boundary: blocks
  // [0, lattice_blocks) cover the (pre-decoded) lattice, the rest the
  // random candidates, which their block decodes first. A block writes only
  // its own slice of random_configs_ and scores_ and uses only its own
  // scratch, so blocks may run concurrently (the acquisition is const; see
  // AcquisitionFunction::score_block).
  const std::size_t lattice_blocks = (num_lattice + block - 1) / block;
  const std::size_t num_blocks =
      lattice_blocks + (num_random + block - 1) / block;
  random_configs_.resize(num_random);
  scores_.resize(total);
  scratches_.resize(num_blocks);
  const auto score_one_block = [&](std::size_t b) {
    const bool in_lattice = b < lattice_blocks;
    const std::size_t begin = (in_lattice ? b : b - lattice_blocks) * block;
    const std::size_t count =
        std::min(block, (in_lattice ? num_lattice : num_random) - begin);
    const std::span<const std::vector<double>> units =
        std::span<const std::vector<double>>(in_lattice ? lattice_
                                                        : random_units_)
            .subspan(begin, count);
    if (!in_lattice) {
      for (std::size_t i = begin; i < begin + count; ++i) {
        random_configs_[i] = space_.decode(random_units_[i]);
      }
    }
    acquisition.score_block(
        units,
        std::span<const Configuration>(in_lattice ? lattice_configs_
                                                  : random_configs_)
            .subspan(begin, count),
        ctx, scratches_[b],
        std::span<double>(scores_).subspan(
            (in_lattice ? 0 : num_lattice) + begin, count));
  };
  parallel::parallel_for(pool, num_blocks, score_one_block);

  // Selection replays candidates strictly in index order with the exact
  // historical state machine. Strict > means equal scores keep the earlier
  // candidate: the lowest-index tie-break pinned by the maximize() contract.
  Maximizer best;
  best.score = -1.0;
  Maximizer fallback;  // highest feasibility probability among zero-scorers
  double fallback_prob = -1.0;
  for (std::size_t i = 0; i < total; ++i) {
    const bool in_lattice = i < num_lattice;
    const std::vector<double>& unit =
        in_lattice ? lattice_[i] : random_units_[i - num_lattice];
    const Configuration& config = in_lattice
                                      ? lattice_configs_[i]
                                      : random_configs_[i - num_lattice];
    const double score = scores_[i];
    ++best.evaluated;
    if (score > best.score) {
      best.score = score;
      best.unit = unit;
      best.config = config;
      continue;
    }
    if (best.score <= 0.0 && ctx.constraints != nullptr) {
      // Track a constraint-respecting fallback in case nothing scores > 0.
      // (Kept operation-for-operation equal to the pre-blocked scalar loop:
      // a candidate that *raises* best.score to 0 is deliberately not
      // considered as a fallback, exactly as before.)
      const std::vector<double> z = ctx.space.structural_vector(config);
      const double prob = ctx.constraints->feasibility_probability(z);
      if (prob > fallback_prob) {
        fallback_prob = prob;
        fallback.unit = unit;
        fallback.config = config;
      }
    }
  }

  if (best.score <= 0.0 && !fallback.unit.empty()) {
    fallback.score = 0.0;
    fallback.evaluated = best.evaluated;
    return fallback;
  }
  if (best.score <= 0.0) {
    // Every candidate scored zero and no constraint-based fallback exists
    // (e.g. early default-mode iterations where the surrogate sees no
    // improvement anywhere): explore with a fresh random point rather than
    // deterministically re-proposing the first lattice point.
    std::vector<double> unit(space_.dimension());
    for (double& u : unit) u = rng.uniform();
    best.unit = unit;
    best.config = space_.decode(unit);
    best.score = 0.0;
    best.evaluated += 1;
  }
  return best;
}

}  // namespace hp::core
