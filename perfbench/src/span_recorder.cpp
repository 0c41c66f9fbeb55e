#include "span_recorder.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

void SpanRecorder::add(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::keep_last_searches(std::size_t n) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> root_starts;
  for (const Span& s : spans_) {
    if (s.parent == 0) root_starts.push_back(s.start_ns);
  }
  if (n == 0 || root_starts.size() <= n) return;
  std::sort(root_starts.begin(), root_starts.end());
  const std::int64_t cut = root_starts[root_starts.size() - n];
  std::erase_if(spans_, [cut](const Span& s) { return s.start_ns < cut; });
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  bool first = true;
  for (const Span& s : spans()) {
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%" PRIx64
                 "\",\"parent\":\"%" PRIx64 "\",\"round\":%" PRId64 "}}",
                 first ? "" : ",\n", s.name, s.tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, s.round);
    first = false;
  }
  std::fputs("\n]}\n", out);
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

int thread_number() {
  static std::atomic<int> next{1};
  thread_local const int number = next.fetch_add(1);
  return number;
}

void SearchTracer::emit(std::uint64_t id, std::uint64_t parent,
                        const char* name, std::int64_t start,
                        std::int64_t end) {
  recorder_.add(Span{id, parent, name, start, end, round(), thread_number()});
}

void SearchTracer::start() {
  search_id_ = recorder_.new_id();
  search_start_ = recorder_.now_ns();
  phase_ = Phase::kIdle;
  observed_ = 0;
  round_.store(-1, std::memory_order_release);
}

void SearchTracer::close_round(std::int64_t t) {
  if (phase_ == Phase::kAsk) {
    emit(ask_id_, search_id_, "proposer.ask", ask_start_, ask_end_);
    emit(execute_parent(), search_id_, "engine.execute", ask_end_, t);
  } else if (phase_ == Phase::kTell) {
    emit(tell_id_, search_id_, "study.tell", tell_start_, t);
  }
}

void SearchTracer::finish() {
  const std::int64_t t = recorder_.now_ns();
  close_round(t);
  phase_ = Phase::kIdle;
  round_.store(-1, std::memory_order_release);
  emit(search_id_, 0, "search", search_start_, t);
}

std::uint64_t SearchTracer::on_propose_begin(std::int64_t t) {
  if (phase_ != Phase::kAsk) {
    close_round(t);
    ask_id_ = recorder_.new_id();
    tell_id_ = recorder_.new_id();
    execute_id_.store(recorder_.new_id(), std::memory_order_release);
    round_.store(observed_, std::memory_order_release);
    ask_start_ = t;
    phase_ = Phase::kAsk;
  }
  return ask_id_;
}

void SearchTracer::on_propose_end(std::int64_t t) { ask_end_ = t; }

std::uint64_t SearchTracer::on_observe_begin(std::int64_t t) {
  if (phase_ == Phase::kIdle) {
    throw std::logic_error("SearchTracer: observe before any proposal");
  }
  if (phase_ == Phase::kAsk) {
    close_round(t);
    tell_start_ = t;
    phase_ = Phase::kTell;
  }
  ++observed_;
  return tell_id_;
}

}  // namespace perfbench
