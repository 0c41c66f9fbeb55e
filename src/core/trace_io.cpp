#include "core/trace_io.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/checksum.hpp"
#include "obs/log.hpp"
#include "obs/span.hpp"

namespace hp::core {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("trace csv: " + what);
}

[[noreturn]] void fail_journal(const std::string& what) {
  throw std::runtime_error("journal: " + what);
}

std::vector<std::string> split_csv_row(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  fields.push_back(field);
  return fields;
}

EvaluationStatus status_from_string(const std::string& name) {
  if (name == "completed") return EvaluationStatus::Completed;
  if (name == "early_terminated") return EvaluationStatus::EarlyTerminated;
  if (name == "model_filtered") return EvaluationStatus::ModelFiltered;
  if (name == "infeasible_architecture") {
    return EvaluationStatus::InfeasibleArchitecture;
  }
  if (name == "failed") return EvaluationStatus::Failed;
  fail("unknown status '" + name + "'");
}

double parse_number(const std::string& text, const char* what) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size()) fail(std::string("malformed ") + what);
    return value;
  } catch (const std::logic_error&) {
    fail(std::string("malformed ") + what);
  }
}

constexpr const char* kHeader =
    "index,timestamp_s,status,test_error,diverged,power_w,memory_mb,"
    "violates,cost_s,measured,attempts,failure";

/// Parses one 12-column data row. Throws via fail() on any malformed field.
EvaluationRecord parse_trace_row(const std::string& line, std::size_t row) {
  const auto fields = split_csv_row(line);
  constexpr std::size_t expected = 12;
  if (fields.size() != expected) {
    fail("row " + std::to_string(row) + ": expected " +
         std::to_string(expected) + " fields, got " +
         std::to_string(fields.size()));
  }
  EvaluationRecord r;
  r.index = static_cast<std::size_t>(parse_number(fields[0], "index"));
  r.timestamp_s = parse_number(fields[1], "timestamp");
  r.status = status_from_string(fields[2]);
  r.test_error = parse_number(fields[3], "test_error");
  r.diverged = parse_number(fields[4], "diverged") != 0.0;
  if (!fields[5].empty()) {
    r.measured_power_w = parse_number(fields[5], "power");
  }
  if (!fields[6].empty()) {
    r.measured_memory_mb = parse_number(fields[6], "memory");
  }
  r.violates_constraints = parse_number(fields[7], "violates") != 0.0;
  r.cost_s = parse_number(fields[8], "cost");
  r.measured = parse_number(fields[9], "measured") != 0.0;
  r.attempts = static_cast<std::size_t>(parse_number(fields[10], "attempts"));
  if (!fields[11].empty()) {
    const auto kind = failure_kind_from_string(fields[11]);
    if (!kind) fail("unknown failure kind '" + fields[11] + "'");
    r.failure_kind = kind;
  }
  return r;
}

/// Round-trip exact double formatting ("%.17g"): parsing the text with
/// std::stod recovers the identical bit pattern, which is what makes a
/// journal resume bit-identical to the uninterrupted run.
std::string format_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

RunTrace load_trace_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) fail("empty stream");
  if (line != kHeader) fail("unexpected header '" + line + "'");

  // Read every line up front so a malformed row can be told apart from a
  // torn final one (crash mid-write): only the last non-empty line may be
  // dropped, anything earlier is real corruption.
  std::vector<std::pair<std::size_t, std::string>> rows;
  std::size_t row = 1;
  while (std::getline(is, line)) {
    ++row;
    if (line.empty()) continue;
    rows.emplace_back(row, line);
  }

  RunTrace trace;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    try {
      trace.add(parse_trace_row(rows[i].second, rows[i].first));
    } catch (const std::runtime_error& e) {
      // Only a malformed FINAL row of an otherwise-valid file reads as a
      // torn tail; mid-file corruption — or a file whose only row is
      // garbage — stays fatal.
      if (i + 1 != rows.size() || trace.size() == 0) throw;
      obs::logger().warn(
          "trace.truncated_row",
          {{"row", obs::JsonValue(rows[i].first)},
           {"error", obs::JsonValue(e.what())},
           {"recovered_records", obs::JsonValue(trace.size())}});
    }
  }
  return trace;
}

void save_trace_csv_file(const RunTrace& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) fail("cannot open '" + path + "' for writing");
  trace.write_csv(os);
  if (!os) fail("write failed");
}

RunTrace load_trace_csv_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open '" + path + "' for reading");
  return load_trace_csv(is);
}

void EvalJournal::FileCloser::operator()(std::FILE* f) const noexcept {
  if (f != nullptr) std::fclose(f);
}

std::string format_record_line(const EvaluationRecord& r) {
  std::ostringstream os;
  os << "r," << r.index << ',' << format_double(r.timestamp_s) << ','
     << to_string(r.status) << ',' << format_double(r.test_error) << ','
     << (r.diverged ? 1 : 0) << ',';
  if (r.measured_power_w) {
    os << format_double(*r.measured_power_w);
  } else {
    os << '-';
  }
  os << ',';
  if (r.measured_memory_mb) {
    os << format_double(*r.measured_memory_mb);
  } else {
    os << '-';
  }
  os << ',' << (r.violates_constraints ? 1 : 0) << ','
     << format_double(r.cost_s) << ',' << (r.measured ? 1 : 0) << ','
     << r.attempts << ',';
  if (r.failure_kind) {
    os << to_string(*r.failure_kind);
  } else {
    os << '-';
  }
  os << ',' << r.config.size();
  for (const double v : r.config) os << ',' << format_double(v);
  return os.str();
}

EvaluationRecord parse_record_line(const std::string& line,
                                   std::size_t line_number) {
  const auto fields = split_csv_row(line);
  const auto bad = [line_number](const std::string& what) {
    fail_journal("line " + std::to_string(line_number) + ": " + what);
  };
  if (fields.size() < 14 || fields[0] != "r") bad("malformed record frame");
  EvaluationRecord r;
  try {
    r.index = static_cast<std::size_t>(parse_number(fields[1], "index"));
    r.timestamp_s = parse_number(fields[2], "timestamp");
    r.status = status_from_string(fields[3]);
    r.test_error = parse_number(fields[4], "test_error");
    r.diverged = parse_number(fields[5], "diverged") != 0.0;
    if (fields[6] != "-") r.measured_power_w = parse_number(fields[6], "power");
    if (fields[7] != "-") {
      r.measured_memory_mb = parse_number(fields[7], "memory");
    }
    r.violates_constraints = parse_number(fields[8], "violates") != 0.0;
    r.cost_s = parse_number(fields[9], "cost");
    r.measured = parse_number(fields[10], "measured") != 0.0;
    r.attempts = static_cast<std::size_t>(parse_number(fields[11], "attempts"));
    if (fields[12] != "-") {
      const auto kind = failure_kind_from_string(fields[12]);
      if (!kind) bad("unknown failure kind '" + fields[12] + "'");
      r.failure_kind = kind;
    }
    const auto dim =
        static_cast<std::size_t>(parse_number(fields[13], "config size"));
    if (fields.size() != 14 + dim) bad("config field count mismatch");
    r.config.reserve(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      r.config.push_back(parse_number(fields[14 + i], "config value"));
    }
  } catch (const std::runtime_error& e) {
    // Re-frame trace-csv parse errors as journal errors so the caller can
    // tell which artifact is corrupt.
    bad(e.what());
  }
  return r;
}

namespace {

constexpr const char* kJournalMagic = "hpjournal";
constexpr const char* kJournalVersion = "v3";

std::string journal_header_line(const JournalHeader& header) {
  std::ostringstream os;
  os << kJournalMagic << ',' << kJournalVersion << ',' << header.method << ','
     << header.seed << ',' << header.batch_size;
  return os.str();
}

/// Journal line: the line body followed by ",#<8-hex crc32 of body>".
/// The checksum turns "does the text still parse" into "is this the exact
/// text that was written", which is what catches a torn middle write whose
/// truncation happens to land on a field boundary.
std::string checksummed_line(const std::string& body) {
  char suffix[16];
  std::snprintf(suffix, sizeof suffix, ",#%08x", crc32(body));
  return body + suffix;
}

std::string checksummed_record_line(const EvaluationRecord& r) {
  return checksummed_line(format_record_line(r));
}

/// The clean-finalize marker. A distinct frame tag ("s", records use
/// "r") keeps it unmistakable for a record even without the checksum.
std::string epilogue_body(const std::string& state, std::size_t records) {
  std::ostringstream os;
  os << "s," << state << ',' << records;
  return os.str();
}

/// Splits a journal line into body + checksum field, verifies the checksum, and
/// returns the body. Throws via fail_journal on a missing or wrong
/// checksum — the caller decides whether that is a droppable torn tail
/// (final line) or fatal corruption (anything earlier).
std::string verify_checksummed_line(const std::string& line,
                                    std::size_t line_number) {
  const auto hash_pos = line.rfind(",#");
  if (hash_pos == std::string::npos || line.size() != hash_pos + 10) {
    fail_journal("line " + std::to_string(line_number) +
                 ": missing record checksum");
  }
  const std::string body = line.substr(0, hash_pos);
  char expected[16];
  std::snprintf(expected, sizeof expected, "%08x", crc32(body));
  if (line.compare(hash_pos + 2, 8, expected) != 0) {
    fail_journal("line " + std::to_string(line_number) +
                 ": record checksum mismatch");
  }
  return body;
}

[[nodiscard]] std::FILE* open_journal_for_write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "we");
  if (f == nullptr) {
    fail_journal("cannot open '" + path + "' for writing");
  }
  return f;
}

void write_journal_line(std::FILE* f, const std::string& path,
                        const std::string& line) {
  if (std::fputs(line.c_str(), f) == EOF || std::fputc('\n', f) == EOF ||
      std::fflush(f) != 0) {
    fail_journal("write to '" + path + "' failed");
  }
  // fsync per line: the crash-safety contract is "every record whose
  // append returned is recoverable", which buffered writes alone can't
  // give. The journal is written once per *evaluation* (seconds to hours
  // of work each), so the sync is never the bottleneck.
  if (::fsync(fileno(f)) != 0) {
    fail_journal("fsync of '" + path + "' failed");
  }
}

}  // namespace

EvalJournal EvalJournal::create(const std::string& path,
                                const JournalHeader& header) {
  EvalJournal journal;
  journal.file_.reset(open_journal_for_write(path));
  journal.path_ = path;
  write_journal_line(journal.file_.get(), path, journal_header_line(header));
  return journal;
}

EvalJournal EvalJournal::rewrite(const std::string& path,
                                 const JournalHeader& header,
                                 const std::vector<EvaluationRecord>& records) {
  EvalJournal journal = create(path, header);
  for (const EvaluationRecord& record : records) journal.append(record);
  return journal;
}

JournalLoadResult EvalJournal::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail_journal("cannot open '" + path + "' for reading");

  std::string line;
  if (!std::getline(is, line)) fail_journal("empty file '" + path + "'");
  const auto header_fields = split_csv_row(line);
  if (header_fields.size() != 5 || header_fields[0] != kJournalMagic ||
      header_fields[1] != kJournalVersion) {
    fail_journal("bad header in '" + path + "'");
  }
  JournalLoadResult result;
  result.header.method = header_fields[2];
  try {
    result.header.seed = std::stoull(header_fields[3]);
    result.header.batch_size = std::stoul(header_fields[4]);
  } catch (const std::logic_error&) {
    fail_journal("bad header numbers in '" + path + "'");
  }

  std::vector<std::pair<std::size_t, std::string>> rows;
  std::size_t line_number = 1;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    rows.emplace_back(line_number, line);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // Nothing may follow a study_state epilogue: the writer closes the
    // file right after it, so a later line means the file was tampered
    // with or interleaved — not a recoverable torn tail.
    if (!result.study_state.empty()) {
      fail_journal("line " + std::to_string(rows[i].first) +
                   ": content after the study_state epilogue");
    }
    try {
      const std::string body =
          verify_checksummed_line(rows[i].second, rows[i].first);
      if (body.rfind("s,", 0) == 0) {
        const auto fields = split_csv_row(body);
        if (fields.size() != 3 || fields[1].empty()) {
          fail_journal("line " + std::to_string(rows[i].first) +
                       ": malformed study_state epilogue");
        }
        if (static_cast<std::size_t>(
                parse_number(fields[2], "epilogue record count")) !=
            result.records.size()) {
          fail_journal("line " + std::to_string(rows[i].first) +
                       ": study_state epilogue record count does not match "
                       "the journal");
        }
        result.study_state = fields[1];
        continue;
      }
      result.records.push_back(parse_record_line(body, rows[i].first));
    } catch (const std::runtime_error& e) {
      if (i + 1 != rows.size()) throw;  // mid-file corruption stays fatal
      result.dropped_lines = 1;
      obs::logger().warn(
          "journal.torn_tail",
          {{"path", obs::JsonValue(path)},
           {"line", obs::JsonValue(rows[i].first)},
           {"error", obs::JsonValue(e.what())},
           {"recovered_records", obs::JsonValue(result.records.size())}});
    }
  }
  return result;
}

void EvalJournal::append(const EvaluationRecord& record) {
  if (!active()) return;
  obs::ScopedTimer fsync_span("journal.fsync", record.index);
  write_journal_line(file_.get(), path_, checksummed_record_line(record));
}

void EvalJournal::finalize(const std::string& state, std::size_t records) {
  if (!active()) return;
  if (state.empty()) fail_journal("finalize requires a non-empty state");
  obs::ScopedTimer fsync_span("journal.fsync", records);
  write_journal_line(file_.get(), path_,
                     checksummed_line(epilogue_body(state, records)));
  file_.reset();
  path_.clear();
}

std::optional<JournalLoadResult> load_journal_for_resume(
    const std::string& path, const JournalHeader& expected) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) && !ec) return std::nullopt;
  JournalLoadResult journal;
  try {
    journal = EvalJournal::load(path);
  } catch (const std::runtime_error& e) {
    throw std::invalid_argument(
        "--resume: cannot resume from " + path + " (" + e.what() +
        "); the file is left untouched — move it aside to start afresh");
  }
  if (journal.header.method != expected.method ||
      journal.header.seed != expected.seed ||
      journal.header.batch_size != expected.batch_size) {
    throw std::invalid_argument(
        "--resume: journal " + path + " was written by " +
        journal.header.method + "/seed " +
        std::to_string(journal.header.seed) + "/batch " +
        std::to_string(journal.header.batch_size) +
        ", which does not match this invocation");
  }
  return journal;
}

}  // namespace hp::core
