// perfbench_e2e — runs one benchmark workload for a fixed measuring time
// and writes what every repetition measured as JSON. perfbench/run.py
// builds and drives it and turns the repetitions into metrics; run it by
// hand as
//
//   perfbench_e2e --workload cifar_ieci_b8 --seed 1 --seconds 10
//                 --trace 0 --out DIR --worker-bin PATH/hpo-worker
//
// Each repetition sets the workload up, runs one search, checks it, and
// tears it down. The first repetition is a warm-up search of the first
// seed, checked but left out of every metric. With --trace 0 the
// repetitions then cycle through the workload's suite of search seeds
// generated from --seed (at least one full pass). With --trace 1 every
// repetition uses --seed itself, untraced and traced ones alternate (so
// the two can be compared byte for byte and for overhead), the spans of
// the last three traced searches go to DIR/spans.json, and the gp,
// journal and fleet probes run on the last traced repetition's own
// records (the journal probe writes its journal to DIR).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::RepResult;
using perfbench::WorkloadSpec;

constexpr std::size_t kFleetProbeRounds = 500;

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void write_numbers(std::FILE* out, const std::vector<double>& values) {
  std::fputc('[', out);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(out, "%s%.9g", i == 0 ? "" : ",", values[i]);
  }
  std::fputc(']', out);
}

/// Correctness checks of one repetition against the workload's contract.
void check_rep(const WorkloadSpec& spec, const RepResult& rep,
               std::uint64_t reference_digest,
               std::vector<std::string>& errors) {
  const auto fail = [&](const std::string& what) {
    errors.push_back((rep.traced ? "traced rep of seed " : "rep of seed ") +
                     std::to_string(rep.seed) + ": " + what);
  };
  if (rep.evaluations != spec.evaluations) {
    fail("function evaluations " + std::to_string(rep.evaluations) +
         " != budget " + std::to_string(spec.evaluations));
  }
  if (rep.aborted) fail("search aborted");
  if (rep.failed != 0) fail(std::to_string(rep.failed) + " failed evaluations");
  if (!rep.best_error || !rep.best_power_w) {
    fail("no feasible best configuration with a measured power");
  } else if (*rep.best_power_w > spec.power_budget_w) {
    fail("best configuration draws " + std::to_string(*rep.best_power_w) +
         " W, over the budget");
  }
  if (rep.trace_digest != reference_digest) {
    fail("trace differs from the first repetition's of seed " +
         std::to_string(rep.seed));
  }
}

void write_results(const std::string& path, const WorkloadSpec& spec,
                   std::uint64_t seed, double peak_rss_mb,
                   const std::vector<RepResult>& reps,
                   const std::vector<perfbench::GpProbe>& gp_probes,
                   const std::vector<double>& journal_us,
                   const std::optional<perfbench::FleetProbe>& fleet_probe,
                   const std::vector<std::string>& errors) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench_e2e: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(out,
               "{\"workload\":\"%s\",\"seed\":%" PRIu64
               ",\"budget_evaluations\":%zu,\"threads\":%zu,"
               "\"peak_rss_mb\":%.6f,\n\"build\":{\"compiler\":\"%s\","
               "\"build_type\":\"%s\",\"hp_contracts\":%d},\n\"reps\":[",
               spec.name.c_str(), seed, spec.evaluations, spec.threads,
               peak_rss_mb, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
               HP_CONTRACTS);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    std::fprintf(
        out,
        "%s\n{\"seed\":%" PRIu64
        ",\"traced\":%s,\"warmup\":%s,\"setup_s\":%.9g,\"wall_s\":%.9g,"
        "\"cpu_s\":%.9g,\"samples\":%zu,\"evaluations\":%zu,\"failed\":%zu,"
        "\"best_error\":%.9g,\"sim_hours\":%.9g,\"digest\":\"%016" PRIx64
        "\"}",
        i == 0 ? "" : ",", r.seed, r.traced ? "true" : "false",
        r.warmup ? "true" : "false", r.setup_s, r.wall_s, r.cpu_s, r.samples,
        r.evaluations, r.failed, r.best_error.value_or(1.0), r.sim_hours,
        r.trace_digest);
  }
  std::fputs("],\n\"gp_probes\":[", out);
  for (std::size_t i = 0; i < gp_probes.size(); ++i) {
    std::fprintf(out,
                 "%s{\"n\":%zu,\"fitted\":%zu,\"lml_evals\":%d,"
                 "\"fit_ms\":",
                 i == 0 ? "" : ",", gp_probes[i].n, gp_probes[i].fitted,
                 gp_probes[i].lml_evaluations);
    write_numbers(out, gp_probes[i].fit_ms);
    std::fputc('}', out);
  }
  std::fputs("],\n\"journal_append_us\":", out);
  write_numbers(out, journal_us);
  std::fputs(",\n\"fleet_probe\":", out);
  if (fleet_probe) {
    std::fprintf(out,
                 "{\"jobs\":%zu,\"requeued\":%zu,\"lost\":%zu,"
                 "\"round_ms\":",
                 fleet_probe->jobs, fleet_probe->requeued, fleet_probe->lost);
    write_numbers(out, fleet_probe->round_ms);
    std::fputc('}', out);
  } else {
    std::fputs("null", out);
  }
  std::fputs(",\n\"errors\":[", out);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ",",
                 json_escape(errors[i]).c_str());
  }
  std::fputs("]}\n", out);
  std::fclose(out);
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload NAME "
               "--seed N --seconds S --trace 0|1 --out DIR --worker-bin PATH\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir, worker_bin;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (key == "--out") {
      out_dir = value;
    } else if (key == "--worker-bin") {
      worker_bin = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (workload.empty() || out_dir.empty() || worker_bin.empty() ||
      seconds <= 0.0 || (trace != 0 && trace != 1)) {
    usage("missing or invalid option");
  }

  const WorkloadSpec* spec = nullptr;
  try {
    spec = &perfbench::workload_by_name(workload);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  perfbench::RunSettings settings{seed, worker_bin};

  std::vector<RepResult> reps;
  std::vector<perfbench::GpProbe> gp_probes;
  std::vector<double> journal_us;
  std::optional<perfbench::FleetProbe> fleet_probe;
  std::vector<std::string> errors;
  std::vector<hp::core::EvaluationRecord> probe_records;
  perfbench::SpanRecorder recorder;
  double peak_rss_mb = 0.0;
  try {
    // After the warm-up, untraced runs cycle through the workload's seed
    // suite, at least one full pass, which repeats the warm-up's seed so
    // every run checks that a search repeats exactly; traced runs stay on
    // the given seed so their per-layer counts repeat exactly, and run at
    // least one traced and one untraced search after the warm-up.
    const std::vector<std::uint64_t> seeds =
        trace == 1 ? std::vector<std::uint64_t>{seed}
                   : perfbench::search_seeds(*spec, seed);
    const std::size_t min_reps = trace == 1 ? 3 : 1 + seeds.size();
    std::map<std::uint64_t, std::uint64_t> digest_of_seed;
    double measured = 0.0;
    while (measured < seconds || reps.size() < min_reps) {
      const bool warmup = reps.empty();
      const bool traced = trace == 1 && reps.size() % 2 == 1;
      settings.seed = seeds[warmup ? 0 : (reps.size() - 1) % seeds.size()];
      perfbench::SearchTracer tracer(recorder);
      reps.push_back(perfbench::run_rep(*spec, settings,
                                        traced ? &tracer : nullptr));
      RepResult& rep = reps.back();
      rep.warmup = warmup;
      if (!warmup) measured += rep.setup_s + rep.wall_s;
      const auto first = digest_of_seed.emplace(rep.seed, rep.trace_digest);
      check_rep(*spec, rep, first.first->second, errors);
      if (rep.traced) {
        probe_records = std::move(reps.back().records);
        recorder.keep_last_searches(3);
      }
      if (!errors.empty()) break;
    }
    // Before the probes below, which are not part of a search.
    peak_rss_mb = perfbench::peak_rss_mb();
    if (errors.empty() && trace == 1) {
      for (const std::size_t n : {std::size_t{40}, std::size_t{120}}) {
        if (auto probe = perfbench::probe_gp_fit(*spec, probe_records, n, 3)) {
          gp_probes.push_back(*probe);
        }
      }
      journal_us = perfbench::probe_journal_appends(
          probe_records, 4000, out_dir + "/probe.hpj");
      fleet_probe = perfbench::probe_fleet(*spec, settings, probe_records,
                                           kFleetProbeRounds);
      const std::size_t sent = kFleetProbeRounds * perfbench::kFleetProbeBatch;
      if (fleet_probe && (fleet_probe->lost != 0 ||
                          fleet_probe->requeued != 0 ||
                          fleet_probe->jobs != sent)) {
        errors.push_back("fleet probe: " + std::to_string(fleet_probe->jobs) +
                         " records, " + std::to_string(fleet_probe->lost) +
                         " jobs lost, " +
                         std::to_string(fleet_probe->requeued) + " requeued");
      }
      recorder.write_chrome_json(out_dir + "/spans.json");
    }
  } catch (const std::exception& e) {
    errors.emplace_back(std::string("exception: ") + e.what());
  }
  write_results(out_dir + "/reps.json", *spec, seed, peak_rss_mb, reps,
                gp_probes, journal_us, fleet_probe, errors);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench_e2e: check failed: %s\n", e.c_str());
  }
  return errors.empty() ? 0 : 1;
}
