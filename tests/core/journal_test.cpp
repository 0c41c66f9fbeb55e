#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/trace_io.hpp"

namespace hp::core {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

JournalHeader header() {
  JournalHeader h;
  h.method = "Rand";
  h.seed = 42;
  h.batch_size = 4;
  return h;
}

std::vector<EvaluationRecord> sample_records() {
  std::vector<EvaluationRecord> records;
  EvaluationRecord ok;
  ok.config = {0.1234567890123456, 0.9876543210987654};
  ok.status = EvaluationStatus::Completed;
  ok.test_error = 0.0625;
  ok.measured_power_w = 87.5;
  ok.measured_memory_mb = 512.25;
  ok.cost_s = 123.5;
  ok.timestamp_s = 123.5;
  ok.index = 0;
  records.push_back(ok);

  EvaluationRecord degraded;
  degraded.config = {1.0 / 3.0, 2.0 / 7.0};
  degraded.status = EvaluationStatus::Completed;
  degraded.test_error = 0.125;
  degraded.measured_power_w = 90.0;
  degraded.measured = false;  // came from the fallback model
  degraded.attempts = 2;
  degraded.cost_s = 150.0;
  degraded.timestamp_s = 273.5;
  degraded.index = 1;
  records.push_back(degraded);

  EvaluationRecord failed;
  failed.config = {0.5, 0.5};
  failed.status = EvaluationStatus::Failed;
  failed.test_error = 1.0;
  failed.violates_constraints = false;
  failed.cost_s = 105.0;
  failed.timestamp_s = 378.5;
  failed.index = 2;
  failed.attempts = 3;
  failed.failure_kind = FailureKind::Transient;
  records.push_back(failed);

  EvaluationRecord filtered;
  filtered.config = {0.75, 0.25};
  filtered.status = EvaluationStatus::ModelFiltered;
  filtered.violates_constraints = true;
  filtered.cost_s = 3.0;
  filtered.timestamp_s = 381.5;
  filtered.index = 3;
  records.push_back(filtered);
  return records;
}

void expect_record_eq(const EvaluationRecord& a, const EvaluationRecord& b) {
  EXPECT_EQ(a.config, b.config);  // bit-exact doubles
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.test_error, b.test_error);
  EXPECT_EQ(a.diverged, b.diverged);
  EXPECT_EQ(a.measured_power_w, b.measured_power_w);
  EXPECT_EQ(a.measured_memory_mb, b.measured_memory_mb);
  EXPECT_EQ(a.violates_constraints, b.violates_constraints);
  EXPECT_EQ(a.cost_s, b.cost_s);
  EXPECT_EQ(a.timestamp_s, b.timestamp_s);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.measured, b.measured);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.failure_kind, b.failure_kind);
}

TEST(EvalJournal, RoundTripsRecordsBitExactly) {
  const std::string path = temp_path("journal_roundtrip.hpj");
  auto journal = EvalJournal::create(path, header());
  EXPECT_TRUE(journal.active());
  EXPECT_EQ(journal.path(), path);
  const std::vector<EvaluationRecord> records = sample_records();
  for (const auto& record : records) journal.append(record);

  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.header.method, "Rand");
  EXPECT_EQ(loaded.header.seed, 42u);
  EXPECT_EQ(loaded.header.batch_size, 4u);
  EXPECT_EQ(loaded.dropped_lines, 0u);
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    expect_record_eq(loaded.records[i], records[i]);
  }
  std::remove(path.c_str());
}

TEST(EvalJournal, InactiveJournalIgnoresAppend) {
  EvalJournal journal;
  EXPECT_FALSE(journal.active());
  journal.append(sample_records()[0]);  // must not crash or write anywhere
}

TEST(EvalJournal, DropsTornFinalLine) {
  const std::string path = temp_path("journal_torn.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    for (const auto& record : sample_records()) journal.append(record);
  }
  {
    // Simulate dying mid-append: an unterminated, truncated record line.
    std::ofstream torn(path, std::ios::app | std::ios::binary);
    torn << "r,4,384.5,completed,0.1";
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.dropped_lines, 1u);
  EXPECT_EQ(loaded.records.size(), sample_records().size());
  std::remove(path.c_str());
}

TEST(EvalJournal, RecoversHeaderOnlyFileWithTornFirstRecord) {
  const std::string path = temp_path("journal_torn_first.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
  }
  // Truncate into the middle of the first (and only) record line.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const std::size_t record_start = contents.find("\nr,") + 1;
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << contents.substr(0, record_start + 8);
  out.close();

  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.records.size(), 0u);
  EXPECT_EQ(loaded.dropped_lines, 1u);
  std::remove(path.c_str());
}

TEST(EvalJournal, ThrowsOnMidFileCorruption) {
  const std::string path = temp_path("journal_corrupt.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
  }
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  // A valid record line, re-appended after the corrupt one so the
  // corruption is mid-file — not a recoverable torn tail.
  const std::size_t record_start = contents.find("\nr,") + 1;
  const std::string valid_line = contents.substr(record_start);
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "r,not-a-record\n" << valid_line;
  }
  EXPECT_THROW((void)EvalJournal::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(EvalJournal, ThrowsOnMissingFileAndBadHeader) {
  EXPECT_THROW((void)EvalJournal::load(temp_path("no_such_journal.hpj")),
               std::runtime_error);
  const std::string path = temp_path("journal_badheader.hpj");
  // Only v3 is read: the pre-checksum v1 and pre-epilogue v2 headers are
  // rejected like any other unknown header, even over valid record lines.
  for (const char* header_line : {"not-a-journal,v9", "hpjournal,v1,Rand,42,4",
                                  "hpjournal,v2,Rand,42,4"}) {
    SCOPED_TRACE(header_line);
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << header_line << "\n";
      for (const auto& record : sample_records()) {
        out << format_record_line(record) << "\n";
      }
    }
    EXPECT_THROW((void)EvalJournal::load(path), std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST(EvalJournal, RewriteReproducesCreatePlusAppends) {
  const std::string incremental_path = temp_path("journal_incremental.hpj");
  const std::string rewritten_path = temp_path("journal_rewritten.hpj");
  const std::vector<EvaluationRecord> records = sample_records();
  {
    auto journal = EvalJournal::create(incremental_path, header());
    for (const auto& record : records) journal.append(record);
  }
  {
    auto journal = EvalJournal::rewrite(rewritten_path, header(), records);
    EXPECT_TRUE(journal.active());
  }
  std::ifstream a(incremental_path, std::ios::binary);
  std::ifstream b(rewritten_path, std::ios::binary);
  const std::string text_a((std::istreambuf_iterator<char>(a)),
                           std::istreambuf_iterator<char>());
  const std::string text_b((std::istreambuf_iterator<char>(b)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(text_a, text_b);
  std::remove(incremental_path.c_str());
  std::remove(rewritten_path.c_str());
}

TEST(EvalJournal, WritesV3HeaderAndChecksummedRecordLines) {
  const std::string path = temp_path("journal_v3_format.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
  }
  std::ifstream in(path, std::ios::binary);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "hpjournal,v3,Rand,42,4");
  ASSERT_TRUE(std::getline(in, line));
  // Every v2+ record line ends in ",#<8-hex crc32 of the body>".
  ASSERT_GT(line.size(), 10u);
  EXPECT_EQ(line.substr(line.size() - 10, 2), ",#");
  for (std::size_t i = line.size() - 8; i < line.size(); ++i) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(line[i]))) << line;
  }
  std::remove(path.c_str());
}

TEST(EvalJournal, FinalizeWritesStudyStateEpilogueAndClosesJournal) {
  const std::string path = temp_path("journal_finalized.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
    journal.append(sample_records()[1]);
    journal.finalize("completed", 2);
    // finalize closes the journal: it goes inactive, appends are no-ops.
    EXPECT_FALSE(journal.active());
    journal.append(sample_records()[2]);
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_TRUE(loaded.complete());
  EXPECT_EQ(loaded.study_state, "completed");
  EXPECT_EQ(loaded.dropped_lines, 0u);
  ASSERT_EQ(loaded.records.size(), 2u);
  expect_record_eq(loaded.records[0], sample_records()[0]);
  expect_record_eq(loaded.records[1], sample_records()[1]);
  std::remove(path.c_str());
}

TEST(EvalJournal, UnfinalizedJournalLoadsAsIncomplete) {
  const std::string path = temp_path("journal_unfinalized.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
    // No finalize: the writer "crashed" — this is the resume case.
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_FALSE(loaded.complete());
  EXPECT_TRUE(loaded.study_state.empty());
  EXPECT_EQ(loaded.records.size(), 1u);
  std::remove(path.c_str());
}

TEST(EvalJournal, TornEpilogueDropsAsTailAndLoadsAsIncomplete) {
  const std::string path = temp_path("journal_torn_epilogue.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
    journal.finalize("completed", 1);
  }
  // Truncate into the middle of the epilogue line, as a crash during the
  // final write would: the journal must load as a normal unfinished run.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const std::size_t epilogue_start = contents.find("\ns,") + 1;
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << contents.substr(0, epilogue_start + 5);
  out.close();

  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_FALSE(loaded.complete());
  EXPECT_EQ(loaded.dropped_lines, 1u);
  ASSERT_EQ(loaded.records.size(), 1u);
  expect_record_eq(loaded.records[0], sample_records()[0]);
  std::remove(path.c_str());
}

TEST(EvalJournal, ThrowsOnContentAfterStudyStateEpilogue) {
  const std::string path = temp_path("journal_after_epilogue.hpj");
  std::string record_line;
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
  }
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    const std::size_t record_start = contents.find("\nr,") + 1;
    record_line = contents.substr(record_start);  // includes trailing \n
  }
  {
    auto journal = EvalJournal::rewrite(path, header(), {sample_records()[0]});
    journal.finalize("completed", 1);
  }
  {
    // A record appended after the epilogue is tampering, never a torn
    // tail: the writer closes the file right after finalizing.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << record_line;
  }
  EXPECT_THROW((void)EvalJournal::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(EvalJournal, EpilogueRecordCountMismatchLoadsAsIncomplete) {
  const std::string path = temp_path("journal_epilogue_count.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
    journal.append(sample_records()[1]);
    journal.finalize("completed", 2);
  }
  // Delete the second record line wholesale. Every surviving line's
  // checksum is intact, so only the epilogue's record count can expose
  // the excision — and because the epilogue is the FINAL line, the
  // mismatch resolves conservatively: drop it as a torn tail and hand
  // resume an incomplete journal instead of trusting the "completed"
  // marker of a journal that lost records.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const std::size_t second = contents.find("\nr,", contents.find("\nr,") + 1);
  const std::size_t epilogue = contents.find("\ns,");
  ASSERT_NE(second, std::string::npos);
  ASSERT_NE(epilogue, std::string::npos);
  contents.erase(second, epilogue - second);
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << contents;
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_FALSE(loaded.complete());
  EXPECT_EQ(loaded.dropped_lines, 1u);
  ASSERT_EQ(loaded.records.size(), 1u);
  std::remove(path.c_str());
}

// Reads the journal file, applies one text substitution, writes it back —
// the "disk flipped a digit" / "merge tore a write" simulator.
void tamper(const std::string& path, const std::string& from,
            const std::string& to) {
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const std::size_t pos = contents.find(from);
  ASSERT_NE(pos, std::string::npos);
  contents.replace(pos, from.size(), to);
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << contents;
}

TEST(EvalJournal, RejectsMidFileChecksumMismatchEvenWhenParseable) {
  const std::string path = temp_path("journal_v2_midflip.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
    journal.append(sample_records()[1]);
  }
  // Flip one digit of the FIRST record's test error. The line still parses
  // as a valid record — only the checksum knows it is not what was written.
  tamper(path, "0.0625", "0.0635");
  EXPECT_THROW((void)EvalJournal::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(EvalJournal, DropsChecksumMismatchOnFinalLineAsTornTail) {
  const std::string path = temp_path("journal_v2_tailflip.hpj");
  {
    auto journal = EvalJournal::create(path, header());
    journal.append(sample_records()[0]);
    journal.append(sample_records()[1]);
  }
  // Same flip on the LAST line: recoverable torn tail, prefix survives.
  tamper(path, "0.125", "0.135");
  const JournalLoadResult loaded = EvalJournal::load(path);
  EXPECT_EQ(loaded.dropped_lines, 1u);
  ASSERT_EQ(loaded.records.size(), 1u);
  expect_record_eq(loaded.records[0], sample_records()[0]);
  std::remove(path.c_str());
}

TEST(EvalJournal, RewriteJournalStaysAppendable) {
  const std::string path = temp_path("journal_rewrite_append.hpj");
  const std::vector<EvaluationRecord> records = sample_records();
  {
    auto journal = EvalJournal::rewrite(
        path, header(), {records.begin(), records.begin() + 2});
    for (std::size_t i = 2; i < records.size(); ++i) {
      journal.append(records[i]);
    }
  }
  const JournalLoadResult loaded = EvalJournal::load(path);
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    expect_record_eq(loaded.records[i], records[i]);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hp::core
