#include "obs/log.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace hp::obs {

const char* to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace:
      return "trace";
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "?";
}

std::optional<LogLevel> log_level_from_string(const std::string& name) {
  for (LogLevel level :
       {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
        LogLevel::kError, LogLevel::kOff}) {
    if (name == to_string(level)) return level;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// StderrSink

StderrSink::StderrSink(std::ostream* os) : os_(os) {}

void StderrSink::write(const LogEvent& event) {
  if (event.name == "optimizer.progress") return;
  MutexLock lock(mutex_);
  std::ostream& os = os_ != nullptr ? *os_ : std::cerr;
  char head[64];
  std::snprintf(head, sizeof(head), "[%9.3fs %-5s] ", event.wall_s,
                to_string(event.level));
  os << head << event.name;
  for (const LogField& f : event.fields) {
    os << ' ' << f.key << '=';
    if (f.value.kind() == JsonValue::Kind::String) {
      // Bare strings read better than quoted JSON in the pretty format,
      // unless they contain spaces.
      const std::string quoted = f.value.dump();
      const std::string bare = quoted.substr(1, quoted.size() - 2);
      os << (bare.find(' ') == std::string::npos ? bare : quoted);
    } else {
      f.value.dump(os);
    }
  }
  os << '\n';
}

void StderrSink::flush() {
  MutexLock lock(mutex_);
  (os_ != nullptr ? *os_ : std::cerr).flush();
}

// ---------------------------------------------------------------------------
// JsonlSink

struct JsonlSink::Impl {
  Mutex mutex;
  std::ofstream os HP_GUARDED_BY(mutex);
};

JsonlSink::JsonlSink(const std::string& path) : impl_(new Impl) {
  // No other thread can see impl_ yet, but `os` is guarded state and the
  // uncontended lock keeps the access contract checkable.
  MutexLock lock(impl_->mutex);
  impl_->os.open(path, std::ios::out | std::ios::trunc);
  if (!impl_->os) {
    throw std::runtime_error("JsonlSink: cannot open " + path);
  }
}

JsonlSink::~JsonlSink() = default;

void JsonlSink::write(const LogEvent& event) {
  JsonValue line = JsonValue::object();
  line["t"] = JsonValue(event.wall_s);
  line["level"] = JsonValue(to_string(event.level));
  line["event"] = JsonValue(event.name);
  for (const LogField& f : event.fields) line[f.key] = f.value;
  const std::string text = line.dump();
  MutexLock lock(impl_->mutex);
  impl_->os << text << '\n';
}

void JsonlSink::flush() {
  MutexLock lock(impl_->mutex);
  impl_->os.flush();
}

// ---------------------------------------------------------------------------
// Logger

Logger::Logger()
    : threshold_(static_cast<int>(LogLevel::kOff)),
      start_(std::chrono::steady_clock::now()) {}

void Logger::add_sink(std::shared_ptr<LogSink> sink, LogLevel min_level) {
  if (sink == nullptr) return;
  MutexLock lock(mutex_);
  sinks_.emplace_back(std::move(sink), min_level);
  recompute_threshold_locked();
}

void Logger::remove_sink(const std::shared_ptr<LogSink>& sink) {
  MutexLock lock(mutex_);
  sinks_.erase(std::remove_if(sinks_.begin(), sinks_.end(),
                              [&](const auto& s) { return s.first == sink; }),
               sinks_.end());
  recompute_threshold_locked();
}

void Logger::clear_sinks() {
  MutexLock lock(mutex_);
  sinks_.clear();
  recompute_threshold_locked();
}

void Logger::flush() {
  // Same two-lock discipline as log(): serialize on the dispatch lock,
  // snapshot the registrations, call the sinks with mutex_ released.
  MutexLock dispatch(dispatch_mutex_);
  std::vector<std::shared_ptr<LogSink>> sinks;
  {
    MutexLock lock(mutex_);
    sinks.reserve(sinks_.size());
    for (const auto& [sink, min_level] : sinks_) sinks.push_back(sink);
  }
  for (const auto& sink : sinks) sink->flush();
}

void Logger::recompute_threshold_locked() {
  int threshold = static_cast<int>(LogLevel::kOff);
  for (const auto& [sink, min_level] : sinks_) {
    threshold = std::min(threshold, static_cast<int>(min_level));
  }
  threshold_.store(threshold, std::memory_order_relaxed);
}

void Logger::log(LogLevel level, std::string name,
                 std::vector<LogField> fields) {
  if (!enabled(level)) return;
  LogEvent event;
  event.level = level;
  event.name = std::move(name);
  event.fields = std::move(fields);
  event.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  // Two-lock dispatch (the declared dispatch_mutex_ -> mutex_ hierarchy,
  // DESIGN.md §14): the dispatch lock serializes fan-out so every sink
  // sees the same total event order, while the registration list is only
  // snapshotted under mutex_ — no sink call ever runs with the
  // registration lock held, so a sink callback may add/remove sinks
  // without self-deadlocking (regression-tested in tests/obs/log_test).
  MutexLock dispatch(dispatch_mutex_);
  std::vector<std::pair<std::shared_ptr<LogSink>, LogLevel>> sinks;
  {
    MutexLock lock(mutex_);
    sinks = sinks_;
  }
  for (const auto& [sink, min_level] : sinks) {
    if (static_cast<int>(event.level) >= static_cast<int>(min_level)) {
      sink->write(event);
    }
  }
}

Logger& logger() {
  static Logger instance;
  return instance;
}

}  // namespace hp::obs
