#pragma once
// Shared batch-fill helper for proposers with sequential proposal state.
//
// Three places used to repeat the same "one proposal per sample stream"
// loop — the base Proposer::propose_batch, the constant-liar loop in
// bayes_opt.cpp, and the engine's batched round — each with its
// own copy of the per-sample stats::stream_seed derivation and its own
// exhaustion handling (or lack of it: a finite grid used to pad a short
// final batch with wrapped-around repeats). fill_proposal_batch is the one
// implementation: per-sample streams, optional early stop on exhaustion,
// and optional constant-liar hooks between in-round proposals.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/search_space.hpp"
#include "stats/rng.hpp"

namespace hp::core {

/// Constant-liar hooks (Bayesian optimization): push_lie is invoked after
/// every in-round proposal except the last, letting the strategy install a
/// pseudo-observation so the remaining proposals spread out instead of
/// re-picking the same acquisition maximum; pop_lies runs once after the
/// round (when at least one lie was pushed) to restore the real
/// observations. Either hook may be empty.
struct ConstantLiarHooks {
  std::function<void(const Configuration&)> push_lie;
  std::function<void()> pop_lies;
};

/// Fills a proposal round for samples [first_sample_index,
/// first_sample_index + count): each proposal draws from its own RNG
/// stream seeded by (run_seed, sample index), so the round is a pure
/// function of the run seed regardless of batching. Stops early — without
/// padding — when @p exhausted returns true before a proposal (empty
/// predicate = never exhausted). Returns the proposals actually produced
/// (possibly fewer than @p count).
[[nodiscard]] std::vector<Configuration> fill_proposal_batch(
    std::uint64_t run_seed, std::size_t first_sample_index, std::size_t count,
    const std::function<Configuration(stats::Rng&)>& propose_one,
    const std::function<bool()>& exhausted = {},
    const ConstantLiarHooks& liar = {});

}  // namespace hp::core
