#pragma once
// CSV persistence for run traces plus the crash-safe evaluation journal.
//
// Trace CSV: RunTrace::write_csv's counterpart, so finished experiments can
// be re-analyzed (Pareto fronts, best-error curves) without re-running the
// search. The CSV carries the sample records but not the configurations'
// parameter values; loaded traces support every RunTrace query except
// config-dependent ones.
//
// Evaluation journal: an append-only, fsync'd, line-framed record of every
// finished evaluation *including* its configuration, written by the
// optimizer as records complete. Unlike the trace CSV (written once at the
// end of a run) the journal survives the process dying mid-run: resume
// loads it, drops a torn final line if the crash interrupted a write, and
// replays the completed evaluations so the continued run's trace is
// bit-identical to an uninterrupted one.

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/run_trace.hpp"

namespace hp::core {

/// Parses a 12-column CSV produced by RunTrace::write_csv. Throws
/// std::runtime_error on any other header or a malformed row, except that
/// a malformed FINAL data row of a file that also holds valid rows — the
/// torn tail of a writer that died mid-line — is dropped with a logged
/// warning and the valid prefix is returned.
[[nodiscard]] RunTrace load_trace_csv(std::istream& is);

/// File convenience wrappers; throw std::runtime_error on I/O failure.
void save_trace_csv_file(const RunTrace& trace, const std::string& path);
[[nodiscard]] RunTrace load_trace_csv_file(const std::string& path);

/// Serializes one evaluation record — configuration included, doubles
/// printed round-trip exact ("%.17g") — as the line-framed form shared by
/// the journal and the fleet wire protocol (src/dist/wire.hpp): parsing
/// the text recovers identical bit patterns, which is what lets a worker
/// process hand a record back to the scheduler without perturbing the
/// golden-trace guarantee.
[[nodiscard]] std::string format_record_line(const EvaluationRecord& record);

/// Parses a line produced by format_record_line. @p line_number only
/// flavors the error message. Throws std::runtime_error on corruption.
[[nodiscard]] EvaluationRecord parse_record_line(const std::string& line,
                                                 std::size_t line_number);

/// Identity of the run a journal belongs to. Checked on resume: replaying
/// a journal into a differently-configured run would silently corrupt the
/// determinism guarantee, so a mismatch throws instead.
struct JournalHeader {
  std::string method;
  std::uint64_t seed = 0;
  std::size_t batch_size = 1;
};

/// Result of EvalJournal::load.
struct JournalLoadResult {
  JournalHeader header;
  std::vector<EvaluationRecord> records;
  /// 1 when a torn final line was dropped (crash mid-append), else 0.
  std::size_t dropped_lines = 0;
  /// The study_state epilogue written on clean finalize ("completed" or
  /// "aborted"); empty when the run never finalized (crash — the journal
  /// ends in records or a torn tail).
  /// Lets resume tooling distinguish "this run finished" from "this run
  /// died" without replaying anything.
  std::string study_state;
  [[nodiscard]] bool complete() const noexcept { return !study_state.empty(); }
};

/// Append-only evaluation journal. Each append writes one line-framed
/// record (configuration included, doubles printed round-trip exact) and
/// fsyncs, so after a crash the file holds every completed evaluation plus
/// at most one torn line. A default-constructed journal is inactive and
/// append() is a no-op, which lets the optimizer write journal code
/// unconditionally.
///
/// Format: journals are written and read only as `hpjournal,v3`; no
/// journal outlives its run, so older versions are rejected as a bad
/// header. Every line after the header ends in a `#crc32` field over its
/// body — a torn *middle* write (a crashed fleet merge, a disk that
/// reordered flushes) is detected by the checksum and rejected
/// deterministically even when the truncated text happens to still parse.
/// A checksummed `s,<state>,<count>` study_state epilogue is written by
/// finalize() when a run ends cleanly, so load() can report "completed"
/// versus "torn tail" without replaying.
class EvalJournal {
 public:
  EvalJournal() = default;
  EvalJournal(EvalJournal&&) noexcept = default;
  EvalJournal& operator=(EvalJournal&&) noexcept = default;
  EvalJournal(const EvalJournal&) = delete;
  EvalJournal& operator=(const EvalJournal&) = delete;

  /// Creates (truncates) @p path and writes the header line. Throws
  /// std::runtime_error on I/O failure.
  [[nodiscard]] static EvalJournal create(const std::string& path,
                                          const JournalHeader& header);

  /// Creates @p path with the header plus @p records already appended —
  /// the resume path's journal rebuild (the records a resumed run replays
  /// must be in its journal too, or a second crash would lose them).
  [[nodiscard]] static EvalJournal rewrite(
      const std::string& path, const JournalHeader& header,
      const std::vector<EvaluationRecord>& records);

  /// Loads a journal, tolerating a torn final line (dropped and counted).
  /// Throws std::runtime_error when the file cannot be read, the header is
  /// malformed, or a non-final line is corrupt.
  [[nodiscard]] static JournalLoadResult load(const std::string& path);

  /// Appends one record and fsyncs. No-op on an inactive journal. Throws
  /// std::runtime_error on I/O failure.
  void append(const EvaluationRecord& record);

  /// Writes the study_state epilogue (`s,<state>,<records>`, checksummed),
  /// fsyncs, and closes the journal — the clean-finalize marker. After
  /// this the journal is inactive; further appends are no-ops. No-op on an
  /// inactive journal. Throws std::runtime_error on I/O failure or an
  /// empty @p state.
  void finalize(const std::string& state, std::size_t records);

  [[nodiscard]] bool active() const noexcept { return file_ != nullptr; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept;
  };

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::string path_;
};

}  // namespace hp::core
