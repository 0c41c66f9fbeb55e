#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "cli/args.hpp"
#include "cli/objective_setup.hpp"
#include "core/acquisition.hpp"
#include "core/bayes_opt.hpp"
#include "core/evaluation_engine.hpp"
#include "core/hw_models.hpp"
#include "core/random_search.hpp"
#include "core/spaces.hpp"
#include "core/trace_io.hpp"
#include "decorators.hpp"
#include "dist/job_scheduler.hpp"
#include "gp/kernel.hpp"
#include "gp/kernel_fit.hpp"
#include "hw/device.hpp"
#include "hw/gpu_simulator.hpp"
#include "hw/profiler.hpp"
#include "nn/network.hpp"
#include "stats/rng.hpp"
#include "testbed/nn_objective.hpp"

namespace perfbench {

namespace core = hp::core;

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(2);
    // The ROADMAP cifar config: proposer and gp do nearly all the work.
    w[0].name = "cifar_ieci_b8";
    w[0].problem = "cifar10";
    w[0].method = Method::kHwIeci;
    w[0].power_budget_w = 90.0;
    w[0].evaluations = 120;
    w[0].batch_size = 8;
    w[0].threads = 4;
    w[0].suite = 7;
    // Real im2col CNN training: nn and the objective do all the work.
    w[1].name = "tiny_mnist_nn";
    w[1].problem = "tiny_mnist";
    w[1].method = Method::kRand;
    w[1].power_budget_w = 55.0;
    w[1].evaluations = 60;
    w[1].real_training = true;
    w[1].suite = 15;
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec& workload_by_name(const std::string& name) {
  for (const WorkloadSpec& spec : all_workloads()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<std::uint64_t> search_seeds(const WorkloadSpec& spec,
                                        std::uint64_t seed) {
  // Kept below 2^62 so every seed survives the CLI's signed parsing (the
  // fleet probe's workers receive it as --seed).
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < spec.suite; ++i) {
    seeds.push_back((seed + i * 1000003ULL) % (1ULL << 62));
  }
  return seeds;
}

namespace {

constexpr std::size_t kProbeWorkers = 3;
constexpr std::size_t kSetupSamples = 5;

using SteadyTime = SteadyClock::time_point;

double seconds_since(SteadyTime t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

double rusage_cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a of the run's records at full precision: each record's journal
/// line (core::format_record_line: every field at %.17g, configuration
/// included), so two digests agree only if the trace CSVs, which print
/// the same fields rounded, are byte-identical too. Real training charges
/// measured seconds to timestamp_s and cost_s (fields 2 and 9), so those
/// are blanked there.
std::uint64_t trace_digest(const core::RunTrace& trace, bool blank_times) {
  std::string text;
  for (const core::EvaluationRecord& record : trace.records()) {
    const std::string line = core::format_record_line(record);
    std::size_t field = 0, start = 0;
    for (;;) {
      const std::size_t comma = line.find(',', start);
      if (!blank_times || (field != 2 && field != 9)) {
        text.append(line, start, comma - start);
      }
      text += ',';
      if (comma == std::string::npos) break;
      start = comma + 1;
      ++field;
    }
    text += '\n';
  }
  return fnv1a(text);
}

/// Real-training objective: tiny_mnist with the options of
/// examples/mnist_real_training_hpo.cpp.
struct RealTrainingStack {
  core::BenchmarkProblem problem{core::tiny_mnist_problem()};
  std::unique_ptr<hp::testbed::NnTrainingObjective> objective;
};

std::unique_ptr<RealTrainingStack> build_real_training_stack() {
  auto stack = std::make_unique<RealTrainingStack>();
  hp::testbed::NnObjectiveOptions options;
  options.data.train_size = 300;
  options.data.test_size = 150;
  options.data.image_size = 12;
  options.data.seed = 11;
  options.epochs = 5;
  options.batch_size = 30;
  options.seed = 3;
  stack->objective = std::make_unique<hp::testbed::NnTrainingObjective>(
      stack->problem, hp::testbed::SyntheticDataset::Mnist, hp::hw::gtx1070(),
      options);
  return stack;
}

/// A-priori power/memory models trained on 60 simulated GTX 1070 profiles
/// of random feasible architectures, as the example does.
core::HardwareConstraints train_constraints(
    const core::BenchmarkProblem& problem, core::ConstraintBudgets budgets) {
  hp::hw::GpuSimulator simulator(hp::hw::gtx1070(), 5);
  hp::hw::InferenceProfiler profiler(simulator);
  hp::stats::Rng rng(2018);
  std::vector<hp::nn::CnnSpec> specs;
  for (std::size_t attempts = 0; specs.size() < 60 && attempts < 1200;
       ++attempts) {
    hp::nn::CnnSpec cnn = problem.to_cnn_spec(problem.space().sample(rng));
    if (hp::nn::is_feasible(cnn)) specs.push_back(std::move(cnn));
  }
  const std::vector<hp::hw::ProfileSample> samples =
      profiler.profile_all(specs);
  std::optional<core::HardwareModel> memory;
  if (auto trained = core::train_memory_model(samples)) {
    memory = std::move(trained->model);
  }
  return core::HardwareConstraints(
      budgets, core::train_power_model(samples).model, std::move(memory));
}

std::vector<std::string> stack_argv(const WorkloadSpec& spec,
                                    std::uint64_t seed) {
  char budget[32];
  std::snprintf(budget, sizeof budget, "%.17g", spec.power_budget_w);
  std::vector<std::string> argv = {"perfbench",      "--problem",
                                   spec.problem,     "--device",
                                   "GTX 1070",       "--power-budget",
                                   budget,           "--seed",
                                   std::to_string(seed)};
  return argv;
}

hp::cli::Args parse_args(const std::vector<std::string>& argv) {
  std::vector<const char*> pointers;
  for (const std::string& a : argv) pointers.push_back(a.c_str());
  return hp::cli::Args(static_cast<int>(pointers.size()), pointers.data());
}

/// Everything a search needs, built by the timed set-up phase.
struct Setup {
  std::unique_ptr<hp::cli::EvaluationStack> cli;
  std::unique_ptr<RealTrainingStack> real;
  core::ConstraintBudgets budgets;
  std::optional<core::HardwareConstraints> constraints;
  core::OptimizerOptions options;

  [[nodiscard]] const core::HyperParameterSpace& space() const {
    return cli ? cli->problem.space() : real->problem.space();
  }
  [[nodiscard]] core::Objective& objective() {
    return cli ? cli->search_objective() : *real->objective;
  }
  [[nodiscard]] const core::HardwareConstraints* apriori() const {
    return constraints ? &*constraints : nullptr;
  }
};

std::unique_ptr<hp::dist::FleetScheduler> spawn_fleet(
    const RunSettings& settings, const hp::cli::Args& args,
    const core::HyperParameterSpace& space) {
  hp::dist::FleetOptions fleet;
  fleet.supervisor.workers = kProbeWorkers;
  fleet.supervisor.worker_binary = settings.worker_bin;
  fleet.heartbeat_interval_s = 0.5;
  fleet.job_deadline_s = 120.0;
  fleet.dispatch_retry.max_attempts = 3;
  fleet.dispatch_retry.backoff_initial_s = 0.05;
  fleet.run_seed = settings.seed;
  for (const std::string& flag : hp::cli::evaluation_stack_flags()) {
    if (!args.has(flag)) continue;
    fleet.supervisor.worker_args.push_back("--" + flag);
    if (const auto value = args.get(flag)) {
      fleet.supervisor.worker_args.push_back(*value);
    }
  }
  fleet.supervisor.worker_args.push_back("--heartbeat-interval");
  fleet.supervisor.worker_args.push_back("0.5");
  auto scheduler = std::make_unique<hp::dist::FleetScheduler>(fleet);
  // Workers start lazily on the first round. One warm-up job per worker,
  // outside the search's sample range, keeps spawning and each worker's
  // own stack build out of the timed rounds; its records are discarded.
  hp::stats::Rng rng(settings.seed ^ 0x5eedULL);
  std::vector<core::RoundJob> warmup;
  for (std::size_t k = 0; k < kProbeWorkers; ++k) {
    warmup.push_back({core::OptimizerOptions{}.max_samples + k,
                      space.sample(rng)});
  }
  (void)scheduler->evaluate_round(std::move(warmup));
  return scheduler;
}

std::unique_ptr<Setup> build_setup(const WorkloadSpec& spec,
                                   const RunSettings& settings) {
  auto setup = std::make_unique<Setup>();
  core::OptimizerOptions& options = setup->options;
  options.max_function_evaluations = spec.evaluations;
  options.batch_size = spec.batch_size;
  options.num_threads = spec.threads;
  options.seed = settings.seed;
  if (spec.real_training) {
    setup->real = build_real_training_stack();
    setup->budgets.power_w = spec.power_budget_w;
    setup->constraints.emplace(
        train_constraints(setup->real->problem, setup->budgets));
    options.max_samples = 600;
    return setup;
  }
  const hp::cli::Args args = parse_args(stack_argv(spec, settings.seed));
  setup->cli = hp::cli::build_evaluation_stack(args);
  setup->budgets = setup->cli->budgets;
  const hp::cli::EvaluationPolicy policy = hp::cli::evaluation_policy(args);
  options.seed = policy.seed;
  options.retry = policy.retry;
  options.use_hardware_models = setup->cli->hyperpower_mode;
  options.use_early_termination = policy.use_early_termination;
  const auto& power = setup->cli->framework->power_model();
  const auto& memory = setup->cli->framework->memory_model();
  if (power || memory) {
    setup->constraints.emplace(
        setup->budgets,
        power ? std::optional<core::HardwareModel>(power->model) : std::nullopt,
        memory ? std::optional<core::HardwareModel>(memory->model)
               : std::nullopt);
  }
  return setup;
}

std::unique_ptr<core::Proposer> make_proposer(
    const WorkloadSpec& spec, const core::HyperParameterSpace& space) {
  if (spec.method == Method::kHwIeci) {
    return std::make_unique<core::BayesOptProposer>(
        space, std::make_unique<core::HwIeciAcquisition>());
  }
  return std::make_unique<core::RandomSearchProposer>(space);
}

/// Encoded inputs and targets of the first @p n records
/// BayesOptProposer::observe keeps (it skips model-filtered and
/// infeasible-architecture samples), or of all of them when there are
/// fewer.
void observations(const core::HyperParameterSpace& space,
                  const std::vector<core::EvaluationRecord>& records,
                  std::size_t n, hp::linalg::Matrix& x, hp::linalg::Vector& y) {
  std::vector<const core::EvaluationRecord*> kept;
  for (const core::EvaluationRecord& r : records) {
    if (kept.size() == n) break;
    if (r.status == core::EvaluationStatus::ModelFiltered ||
        r.status == core::EvaluationStatus::InfeasibleArchitecture) {
      continue;
    }
    kept.push_back(&r);
  }
  x = hp::linalg::Matrix(kept.size(), space.dimension());
  std::vector<double> targets;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const std::vector<double> unit = space.encode(kept[i]->config);
    for (std::size_t j = 0; j < unit.size(); ++j) x(i, j) = unit[j];
    targets.push_back(kept[i]->test_error);
  }
  y = hp::linalg::Vector{std::move(targets)};
}

}  // namespace

RepResult run_rep(const WorkloadSpec& spec, const RunSettings& settings,
                  SearchTracer* tracer) {
  RepResult rep;
  rep.seed = settings.seed;
  rep.traced = tracer != nullptr;
  // Set-up takes milliseconds, little next to its call-to-call noise, so
  // it is timed kSetupSamples times and the median kept; the last set-up
  // runs the search.
  std::unique_ptr<Setup> setup;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetupSamples; ++i) {
    setup.reset();
    const SteadyTime setup_start = SteadyClock::now();
    setup = build_setup(spec, settings);
    setup_s.push_back(seconds_since(setup_start));
  }
  std::sort(setup_s.begin(), setup_s.end());
  rep.setup_s = setup_s[kSetupSamples / 2];

  std::unique_ptr<core::Proposer> proposer =
      make_proposer(spec, setup->space());
  core::Proposer* search_proposer = proposer.get();
  core::Objective* objective = &setup->objective();
  std::optional<TracedProposer> traced_proposer;
  std::optional<TracedObjective> traced_objective;
  if (tracer != nullptr) {
    search_proposer =
        &traced_proposer.emplace(setup->space(), *proposer, *tracer);
    objective = &traced_objective.emplace(*objective, *tracer);
  }
  core::EvaluationEngine engine(setup->space(), *objective, setup->budgets,
                                setup->apriori(), setup->options,
                                *search_proposer);

  const double cpu_start = rusage_cpu_s(RUSAGE_SELF);
  const SteadyTime search_start = SteadyClock::now();
  if (tracer != nullptr) tracer->start();
  core::RunResult result = engine.run();
  if (tracer != nullptr) tracer->finish();
  rep.wall_s = seconds_since(search_start);
  rep.cpu_s = rusage_cpu_s(RUSAGE_SELF) - cpu_start;

  const core::RunTrace& trace = result.trace;
  rep.samples = trace.size();
  rep.evaluations = trace.function_evaluations();
  rep.failed = trace.failed_count();
  rep.aborted = result.aborted;
  if (result.best) {
    rep.best_error = result.best->test_error;
    rep.best_power_w = result.best->measured_power_w;
  }
  rep.sim_hours = trace.total_time_s() / 3600.0;
  rep.trace_digest = trace_digest(trace, spec.real_training);
  if (tracer != nullptr) rep.records = trace.records();
  return rep;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::optional<GpProbe> probe_gp_fit(
    const WorkloadSpec& spec,
    const std::vector<core::EvaluationRecord>& records, std::size_t n,
    std::size_t repeats) {
  const core::BenchmarkProblem problem = hp::cli::problem_by_name(spec.problem);
  hp::linalg::Matrix x;
  hp::linalg::Vector y;
  observations(problem.space(), records, n, x, y);
  if (x.rows() < 2) return std::nullopt;
  // The fit options BayesOptProposer::refit_objective_gp passes.
  const core::BayesOptOptions bo;
  hp::gp::KernelFitOptions fit_options = bo.kernel_fit;
  fit_options.min_noise_variance = bo.observation_noise;
  GpProbe probe;
  probe.n = n;
  probe.fitted = x.rows();
  for (std::size_t r = 0; r < repeats; ++r) {
    // The surrogate BayesOptProposer starts from (make_gp in
    // core/bayes_opt.cpp): Matern-5/2, unit signal variance, length-scale
    // 0.3 per dimension.
    hp::gp::KernelParams params;
    params.signal_variance = 1.0;
    params.length_scales.assign(problem.space().dimension(), 0.3);
    hp::gp::GaussianProcess gp(hp::gp::Matern52Kernel(params),
                               bo.observation_noise);
    const SteadyTime t0 = SteadyClock::now();
    const hp::gp::KernelFitResult fit =
        hp::gp::fit_kernel_by_ml(gp, x, y, fit_options);
    probe.fit_ms.push_back(seconds_since(t0) * 1e3);
    probe.lml_evaluations = fit.evaluations;
  }
  return probe;
}

std::optional<FleetProbe> probe_fleet(
    const WorkloadSpec& spec, const RunSettings& settings,
    const std::vector<core::EvaluationRecord>& records, std::size_t rounds) {
  std::vector<core::RoundJob> jobs;
  for (const core::EvaluationRecord& r : records) {
    if (r.status != core::EvaluationStatus::ModelFiltered) {
      jobs.push_back({r.index, r.config});
    }
  }
  if (jobs.empty()) return std::nullopt;
  const hp::cli::Args args = parse_args(stack_argv(spec, settings.seed));
  const core::BenchmarkProblem problem = hp::cli::problem_by_name(spec.problem);
  std::unique_ptr<hp::dist::FleetScheduler> fleet =
      spawn_fleet(settings, args, problem.space());
  const hp::dist::FleetScheduler::Stats before = fleet->stats();
  FleetProbe probe;
  for (std::size_t next = 0; probe.round_ms.size() < rounds;) {
    std::vector<core::RoundJob> round;
    for (std::size_t k = 0; k < kFleetProbeBatch; ++k) {
      round.push_back(jobs[next++ % jobs.size()]);
    }
    const SteadyTime t0 = SteadyClock::now();
    const std::vector<core::EvaluationRecord> done =
        fleet->evaluate_round(std::move(round));
    probe.round_ms.push_back(seconds_since(t0) * 1e3);
    probe.jobs += done.size();
  }
  const hp::dist::FleetScheduler::Stats after = fleet->stats();
  probe.requeued = after.requeued - before.requeued;
  probe.lost = after.lost - before.lost;
  fleet->shutdown();
  return probe;
}

std::vector<double> probe_journal_appends(
    const std::vector<core::EvaluationRecord>& records, std::size_t limit,
    const std::string& path) {
  std::vector<double> latencies_us;
  {
    core::EvalJournal journal =
        core::EvalJournal::create(path, core::JournalHeader{"probe", 1, 1});
    for (std::size_t i = 0; i < records.size() && i < limit; ++i) {
      const SteadyTime t0 = SteadyClock::now();
      journal.append(records[i]);
      latencies_us.push_back(seconds_since(t0) * 1e6);
    }
  }
  std::remove(path.c_str());
  return latencies_us;
}

}  // namespace perfbench
