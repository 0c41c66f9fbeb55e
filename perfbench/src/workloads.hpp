#pragma once
// The benchmark's workloads, each set up and run in process through the
// same public path the CLI uses: cli::build_evaluation_stack (or, for the
// real-training workload, the NnTrainingObjective and hardware-model
// APIs) for set-up, then core::EvaluationEngine driving a core::Proposer.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "span_recorder.hpp"

namespace perfbench {

enum class Method { kRand, kHwIeci };

struct WorkloadSpec {
  std::string name;
  std::string problem;         ///< cli problem name ("cifar10", "tiny_mnist")
  Method method = Method::kRand;
  double power_budget_w = 0.0;
  std::size_t evaluations = 0;  ///< function-evaluation budget
  std::size_t batch_size = 1;
  std::size_t threads = 1;
  bool real_training = false;   ///< NnTrainingObjective instead of the testbed
  /// Searches per pass of an untraced run (see search_seeds).
  std::size_t suite = 1;
};

[[nodiscard]] const std::vector<WorkloadSpec>& all_workloads();
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] const WorkloadSpec& workload_by_name(const std::string& name);

/// The search seeds of an untraced run: @p seed itself, then suite - 1
/// more generated from it. Search cost and result vary from seed to seed,
/// so a run measures a pass over several seeds instead of one search.
[[nodiscard]] std::vector<std::uint64_t> search_seeds(const WorkloadSpec& spec,
                                                      std::uint64_t seed);

struct RunSettings {
  std::uint64_t seed = 1;
  std::string worker_bin;  ///< hpo-worker binary for the fleet probe
};

/// What one repetition (set-up + search + teardown) measured.
struct RepResult {
  std::uint64_t seed = 0;
  bool traced = false;
  /// The run's first search: checked like every other, but not timed into
  /// any metric (the first search in a process runs up to a third slower
  /// than a repeat of it).
  bool warmup = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t samples = 0;
  std::size_t evaluations = 0;
  std::size_t failed = 0;
  bool aborted = false;
  std::optional<double> best_error;
  std::optional<double> best_power_w;
  double sim_hours = 0.0;
  /// FNV-1a of the records at full precision (time fields blanked for
  /// real training).
  std::uint64_t trace_digest = 0;
  /// The trace's records, kept for traced repetitions only (probe input).
  std::vector<hp::core::EvaluationRecord> records;
};

/// Runs one repetition. @p tracer non-null = traced run (decorated seams).
[[nodiscard]] RepResult run_rep(const WorkloadSpec& spec,
                                const RunSettings& settings,
                                SearchTracer* tracer);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

struct GpProbe {
  std::size_t n = 0;         ///< the requested observation count
  std::size_t fitted = 0;    ///< observations actually fitted (<= n)
  std::vector<double> fit_ms;
  int lml_evaluations = 0;
};
/// Times gp::fit_kernel_by_ml, with the kernel-fit options the BO proposer
/// uses, on the first @p n observations the proposer would see in
/// @p records (encoded with SearchSpace::encode), or on all of them when
/// the run has fewer. Every fit starts cold, from the proposer's initial
/// kernel. Empty when the run has fewer than two observations.
[[nodiscard]] std::optional<GpProbe> probe_gp_fit(
    const WorkloadSpec& spec,
    const std::vector<hp::core::EvaluationRecord>& records, std::size_t n,
    std::size_t repeats);

/// Jobs per round of the fleet probe (the cifar config's batch size).
inline constexpr std::size_t kFleetProbeBatch = 8;

struct FleetProbe {
  std::vector<double> round_ms;
  std::size_t jobs = 0;      ///< records returned
  std::size_t requeued = 0;
  std::size_t lost = 0;
};
/// Dispatches the evaluated configurations of @p records, under their own
/// sample indices and in rounds of kFleetProbeBatch, through a fresh 3-worker
/// dist::FleetScheduler whose workers build the CLI's evaluation stack for
/// the workload's problem, cycling until @p rounds rounds have run, and
/// times each round. The real-training workload's objective cannot be
/// rebuilt by a worker, so its configurations go to the testbed objective
/// of the same problem.
[[nodiscard]] std::optional<FleetProbe> probe_fleet(
    const WorkloadSpec& spec, const RunSettings& settings,
    const std::vector<hp::core::EvaluationRecord>& records,
    std::size_t rounds);

/// Appends up to @p limit of @p records to a fresh journal at @p path (on
/// the checkout's disk, fsync per record as in a journaled search),
/// removes it, and returns each EvalJournal::append latency in
/// microseconds.
[[nodiscard]] std::vector<double> probe_journal_appends(
    const std::vector<hp::core::EvaluationRecord>& records,
    std::size_t limit, const std::string& path);

}  // namespace perfbench
