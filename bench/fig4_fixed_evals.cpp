// Figure 4 reproduction: the four methods on CIFAR-10 (GTX 1070, 90 W
// power budget) with a fixed number of function evaluations (50), five
// runs each.
//   (left)   best observed test error vs function evaluations;
//   (center) cumulative constraint-violating samples vs evaluations —
//            HW-IECI never selects violating samples;
//   (right)  per-evaluation test-error scatter — BO methods concentrate
//            queries in high-performance regions.
// As in the paper's setup, every queried sample is trained and measured
// (the model filter is off; BO acquisitions still use the a-priori models).

#include <cstdio>
#include <vector>

#include "common/experiment.hpp"
#include "common/report.hpp"
#include "common/table.hpp"
#include "stats/descriptive.hpp"

int main() {
  using namespace hp;
  bench::BenchReport report("fig4_fixed_evals");
  std::printf("=== Figure 4: fixed 50 function evaluations, CIFAR-10 on "
              "GTX 1070 @ 90 W (5 runs) ===\n\n");

  const bench::PairSetup pair =
      bench::make_pair(bench::Dataset::Cifar10, bench::Platform::Gtx1070);
  const bench::TrainedModels models = bench::train_models(pair, 100, 2018);

  constexpr std::size_t kEvals = 50;
  constexpr int kRuns = 5;
  const std::vector<core::Method> methods{
      core::Method::Rand, core::Method::RandWalk, core::Method::HwCwei,
      core::Method::HwIeci};

  struct MethodSeries {
    std::string name;
    std::vector<double> best_error;        // mean over runs, per evaluation
    std::vector<double> violations;        // mean cumulative violations
    std::vector<double> scatter_errors;    // all completed-sample errors
    std::size_t total_violations = 0;
  };
  std::vector<MethodSeries> all;

  for (core::Method method : methods) {
    MethodSeries series;
    series.best_error.assign(kEvals, 0.0);
    series.violations.assign(kEvals, 0.0);
    for (int run = 0; run < kRuns; ++run) {
      bench::RunSpec spec;
      spec.method = method;
      spec.hyperpower = true;               // a-priori models available
      spec.filter_before_training = false;  // Fig-4 regime: all trained
      spec.max_function_evaluations = kEvals;
      spec.seed = 100 + static_cast<std::uint64_t>(run);
      const auto result = bench::run_one(pair, models, spec);
      series.name = core::to_string(method);
      const auto best = result.trace.best_error_per_function_evaluation();
      const auto viol = result.trace.violations_per_function_evaluation();
      for (std::size_t e = 0; e < kEvals && e < best.size(); ++e) {
        series.best_error[e] += best[e] / kRuns;
        series.violations[e] += static_cast<double>(viol[e]) / kRuns;
      }
      for (const auto& r : result.trace.records()) {
        if (r.status == core::EvaluationStatus::Completed) {
          series.scatter_errors.push_back(r.test_error);
        }
      }
      series.total_violations += result.trace.measured_violation_count();
    }
    all.push_back(std::move(series));
  }

  // (left) best error vs evaluations.
  {
    std::vector<std::string> labels;
    std::vector<std::vector<double>> curves;
    for (const auto& s : all) {
      labels.push_back(s.name);
      curves.push_back(s.best_error);
    }
    std::printf("%s\n", bench::render_ascii_series(
                            "(left) mean best test error vs function "
                            "evaluations (1..50)",
                            labels, curves)
                            .c_str());
    report.add_series("best_error_vs_evals", labels, curves);
    bench::TextTable t({"method", "best @5", "best @10", "best @25",
                        "best @50"});
    for (const auto& s : all) {
      t.add_row({s.name, bench::fmt_percent(s.best_error[4]),
                 bench::fmt_percent(s.best_error[9]),
                 bench::fmt_percent(s.best_error[24]),
                 bench::fmt_percent(s.best_error[49])});
    }
    std::printf("%s\n", t.render().c_str());
    report.add_table("best_error", t);
  }

  // (center) cumulative violations.
  {
    bench::TextTable t({"method", "violations @10", "@25", "@50",
                        "mean per run"});
    for (const auto& s : all) {
      t.add_row({s.name, bench::fmt_fixed(s.violations[9], 1),
                 bench::fmt_fixed(s.violations[24], 1),
                 bench::fmt_fixed(s.violations[49], 1),
                 bench::fmt_fixed(
                     static_cast<double>(s.total_violations) / kRuns, 1)});
    }
    std::printf("(center) cumulative constraint-violating samples "
                "(paper: HW-IECI stays at zero)\n%s\n",
                t.render().c_str());
    report.add_table("violations", t);
  }

  // (right) query quality: fraction of evaluations in the
  // high-performance region.
  {
    bench::TextTable t({"method", "queries < 25% error", "queries < 30%",
                        "median query error"});
    for (const auto& s : all) {
      int hi25 = 0, hi30 = 0;
      for (double e : s.scatter_errors) {
        if (e < 0.25) ++hi25;
        if (e < 0.30) ++hi30;
      }
      const double n = static_cast<double>(s.scatter_errors.size());
      t.add_row({s.name, bench::fmt_percent(hi25 / n),
                 bench::fmt_percent(hi30 / n),
                 bench::fmt_percent(
                     stats::median(std::vector<double>(s.scatter_errors)))});
    }
    std::printf("(right) per-evaluation test-error scatter (paper: BO "
                "queries cluster in\nhigh-performance regions, random "
                "methods do not)\n%s",
                t.render().c_str());
    report.add_table("query_quality", t);
  }
  return 0;
}
