#pragma once
// Machine-readable result files for the bench binaries: every bench writes
// BENCH_<name>.json next to its stdout report, so CI and scripts can diff
// runs without scraping the text tables. Every file records the machine,
// compiler, build type and commit it was measured with. The output directory is
// $HYPERPOWER_BENCH_DIR when set, else the current directory.

#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/json.hpp"

namespace hp::bench {

/// Accumulates one bench's machine-readable results and writes them as
/// BENCH_<name>.json. Sections are added as the bench computes them (the
/// same tables/series it prints); write() is idempotent and the destructor
/// writes best-effort, so a bench that throws midway still leaves a
/// partial-but-valid file.
class BenchReport {
 public:
  explicit BenchReport(std::string name);
  ~BenchReport();

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Free-form result tree (already seeded with {"bench": <name>}).
  [[nodiscard]] obs::JsonValue& root() noexcept { return root_; }

  /// Embeds a printed table as {"header": [...], "rows": [[...], ...]}.
  void add_table(const std::string& key, const TextTable& table);

  /// Embeds labelled numeric series (the figures' curves).
  void add_series(const std::string& key,
                  const std::vector<std::string>& labels,
                  const std::vector<std::vector<double>>& series);

  /// Writes BENCH_<name>.json and returns the path. Subsequent calls
  /// rewrite the same file.
  std::string write();

  /// $HYPERPOWER_BENCH_DIR or ".".
  [[nodiscard]] static std::string output_dir();

  /// Where the bench ran, written into every file as "provenance":
  /// {nproc, compiler, build_type, contracts, git_sha}. tools/bench_compare.py
  /// warns when a baseline's provenance differs from the current run's.
  [[nodiscard]] static obs::JsonValue provenance();

 private:
  std::string name_;
  obs::JsonValue root_;
};

}  // namespace hp::bench
