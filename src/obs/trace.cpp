#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <map>
#include <ostream>
#include <unordered_map>

#include "obs/json.hpp"

namespace hp::obs {

namespace {

/// splitmix64 finalizer (obs must stay dependency-free, so the mixer is
/// local rather than borrowed from src/stats).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_name(const char* s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Stable span id: a pure function of causal position, never of thread
/// scheduling — the invariant behind thread-count-invariant span trees.
std::uint64_t span_id(std::uint64_t parent, const char* name,
                      std::uint64_t key) noexcept {
  const std::uint64_t id = mix64(parent ^ mix64(hash_name(name) ^ mix64(key)));
  return id == 0 ? 1 : id;
}

struct TlsBuffer {
  void* buffer = nullptr;
  std::uint64_t generation = 0;
};
thread_local TlsBuffer tls_buffer;
thread_local SpanContext tls_context;

void write_hex_id(std::ostream& os, std::uint64_t id) {
  // Ids exceed 2^53, so they are exported as hex strings, never JSON
  // numbers (doubles would silently round them).
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[19];
  buf[0] = '0';
  buf[1] = 'x';
  for (int i = 0; i < 16; ++i) {
    buf[2 + i] = kDigits[(id >> (60 - 4 * i)) & 0xf];
  }
  buf[18] = '\0';
  os << buf;
}

void write_args_json(std::ostream& os, const TraceEvent& e) {
  os << "\"args\":{\"id\":\"";
  write_hex_id(os, e.id);
  os << "\",\"parent\":\"";
  write_hex_id(os, e.parent);
  os << '"';
  for (std::uint8_t i = 0; i < e.num_args && i < kMaxTraceArgs; ++i) {
    const TraceArg& a = e.args[i];
    if (a.key == nullptr) continue;
    os << ",\"" << json_escape(a.key) << "\":";
    switch (a.kind) {
      case TraceArg::Kind::kUint:
        os << a.u;
        break;
      case TraceArg::Kind::kDouble: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", a.d);
        os << buf;
        break;
      }
      case TraceArg::Kind::kString:
        os << '"' << json_escape(a.s != nullptr ? a.s : "") << '"';
        break;
      case TraceArg::Kind::kNone:
        os << "null";
        break;
    }
  }
  os << '}';
}

// ---- async-signal-safe formatting helpers for FlightRecorder::dump_fd ----

void fd_write(int fd, const char* data, std::size_t n) noexcept {
  while (n > 0) {
    const ssize_t written = ::write(fd, data, n);
    if (written <= 0) return;
    data += written;
    n -= static_cast<std::size_t>(written);
  }
}

void fd_write_str(int fd, const char* s) noexcept {
  if (s != nullptr) fd_write(fd, s, std::strlen(s));
}

void fd_write_u64(int fd, std::uint64_t v) noexcept {
  char buf[21];
  char* p = buf + sizeof buf;
  *--p = '\0';
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  fd_write_str(fd, p);
}

volatile std::sig_atomic_t g_in_fatal_handler = 0;

void fatal_signal_handler(int sig) {
  if (g_in_fatal_handler == 0) {
    g_in_fatal_handler = 1;
    flight_recorder().dump_fd(2, "fatal signal");
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

// ---------------------------------------------------------------- flight

void FlightRecorder::arm(std::size_t entries) {
  entries = std::max<std::size_t>(entries, 16);
  if (entries != entries_ || words_ == nullptr) {
    entries_ = entries;
    words_ = std::make_unique<std::atomic<std::uint64_t>[]>(entries_ *
                                                            kWordsPerEntry);
  }
  for (std::size_t i = 0; i < entries_ * kWordsPerEntry; ++i) {
    words_[i].store(0, std::memory_order_relaxed);
  }
  cursor_.store(0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void FlightRecorder::reset() {
  enabled_.store(false, std::memory_order_relaxed);
  words_.reset();
  entries_ = 0;
  cursor_.store(0, std::memory_order_relaxed);
}

void FlightRecorder::record(const char* name, bool instant, double t_s,
                            const TraceArg* args,
                            std::size_t num_args) noexcept {
  if (!enabled() || words_ == nullptr) return;
  const std::uint64_t index = cursor_.fetch_add(1, std::memory_order_relaxed);
  std::atomic<std::uint64_t>* w = &words_[(index % entries_) * kWordsPerEntry];
  const char* k0 = nullptr;
  const char* k1 = nullptr;
  std::uint64_t v0 = 0;
  std::uint64_t v1 = 0;
  for (std::size_t i = 0; i < num_args; ++i) {
    if (args[i].kind != TraceArg::Kind::kUint) continue;
    if (k0 == nullptr) {
      k0 = args[i].key;
      v0 = args[i].u;
    } else if (k1 == nullptr) {
      k1 = args[i].key;
      v1 = args[i].u;
      break;
    }
  }
  w[0].store(reinterpret_cast<std::uintptr_t>(name), std::memory_order_relaxed);
  w[1].store(static_cast<std::uint64_t>(t_s * 1e6), std::memory_order_relaxed);
  w[2].store(instant ? 1 : 0, std::memory_order_relaxed);
  w[3].store(reinterpret_cast<std::uintptr_t>(k0), std::memory_order_relaxed);
  w[4].store(v0, std::memory_order_relaxed);
  w[5].store(reinterpret_cast<std::uintptr_t>(k1), std::memory_order_relaxed);
  w[6].store(v1, std::memory_order_relaxed);
}

void FlightRecorder::dump_fd(int fd, const char* reason) const noexcept {
  fd_write_str(fd, "=== flight recorder dump (");
  fd_write_str(fd, reason);
  fd_write_str(fd, ") ===\n");
  if (words_ == nullptr || entries_ == 0) {
    fd_write_str(fd, "(flight recorder empty)\n");
    return;
  }
  const std::uint64_t total = cursor_.load(std::memory_order_relaxed);
  const std::uint64_t kept = std::min<std::uint64_t>(total, entries_);
  fd_write_u64(fd, total);
  fd_write_str(fd, " events recorded, last ");
  fd_write_u64(fd, kept);
  fd_write_str(fd, " shown\n");
  for (std::uint64_t i = total - kept; i < total; ++i) {
    const std::atomic<std::uint64_t>* w = &words_[(i % entries_) *
                                                  kWordsPerEntry];
    fd_write_str(fd, "  +");
    fd_write_u64(fd, w[1].load(std::memory_order_relaxed));
    fd_write_str(fd, "us ");
    fd_write_str(fd, w[2].load(std::memory_order_relaxed) != 0 ? "I " : "S ");
    fd_write_str(fd, reinterpret_cast<const char*>(
                         static_cast<std::uintptr_t>(
                             w[0].load(std::memory_order_relaxed))));
    for (std::size_t a = 0; a < 2; ++a) {
      const auto key_bits = w[3 + 2 * a].load(std::memory_order_relaxed);
      if (key_bits == 0) break;
      fd_write_str(fd, " ");
      fd_write_str(fd, reinterpret_cast<const char*>(
                           static_cast<std::uintptr_t>(key_bits)));
      fd_write_str(fd, "=");
      fd_write_u64(fd, w[4 + 2 * a].load(std::memory_order_relaxed));
    }
    fd_write_str(fd, "\n");
  }
  fd_write_str(fd, "=== end flight recorder dump ===\n");
}

void FlightRecorder::dump(std::ostream& os, const char* reason) const {
  os << "=== flight recorder dump (" << reason << ") ===\n";
  if (words_ == nullptr || entries_ == 0) {
    os << "(flight recorder empty)\n";
    return;
  }
  const std::uint64_t total = cursor_.load(std::memory_order_relaxed);
  const std::uint64_t kept = std::min<std::uint64_t>(total, entries_);
  os << total << " events recorded, last " << kept << " shown\n";
  for (std::uint64_t i = total - kept; i < total; ++i) {
    const std::atomic<std::uint64_t>* w = &words_[(i % entries_) *
                                                  kWordsPerEntry];
    os << "  +" << w[1].load(std::memory_order_relaxed) << "us "
       << (w[2].load(std::memory_order_relaxed) != 0 ? "I " : "S ")
       << reinterpret_cast<const char*>(static_cast<std::uintptr_t>(
              w[0].load(std::memory_order_relaxed)));
    for (std::size_t a = 0; a < 2; ++a) {
      const auto key_bits = w[3 + 2 * a].load(std::memory_order_relaxed);
      if (key_bits == 0) break;
      os << ' '
         << reinterpret_cast<const char*>(static_cast<std::uintptr_t>(key_bits))
         << '=' << w[4 + 2 * a].load(std::memory_order_relaxed);
    }
    os << '\n';
  }
  os << "=== end flight recorder dump ===\n";
}

void FlightRecorder::dump_to_stderr(const char* reason) const noexcept {
  dump_fd(2, reason);
}

void FlightRecorder::install_fatal_signal_handlers() noexcept {
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    std::signal(sig, fatal_signal_handler);
  }
}

FlightRecorder& flight_recorder() {
  static FlightRecorder instance;
  return instance;
}

// ---------------------------------------------------------------- tracer

/// One thread's ring segment and per-name totals: single-writer (the
/// owning thread), with a monotonic ring cursor published by release
/// stores. Readers (snapshot/export/phase_totals) must only run while
/// writers are quiescent; the cursor tells them how many events survive.
struct Tracer::Buffer {
  explicit Buffer(std::size_t cap) : capacity(cap), events(cap) {}

  std::uint32_t tid = 0;
  std::size_t capacity;
  std::vector<TraceEvent> events;
  std::atomic<std::uint64_t> count{0};
  /// Keyed by the name literal's address (PhaseStat::name stays empty);
  /// phase_totals() merges by text, since equal literals in different
  /// translation units may not share one address.
  std::unordered_map<const char*, PhaseStat> totals;

  void push(const TraceEvent& e) noexcept {
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    events[n % capacity] = e;
    count.store(n + 1, std::memory_order_release);
  }
};

void Tracer::start(const TraceConfig& config) {
  {
    MutexLock lock(mutex_);
    buffers_.clear();
    capacity_ = std::max<std::size_t>(
        4, config.ring_kb * 1024 / sizeof(TraceEvent));
    epoch_ = std::chrono::steady_clock::now();
    generation_.fetch_add(1, std::memory_order_release);
  }
  if (config.flight_recorder) flight_recorder().arm(config.flight_entries);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::reset() {
  enabled_.store(false, std::memory_order_relaxed);
  MutexLock lock(mutex_);
  buffers_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

SpanContext Tracer::current_context() const noexcept { return tls_context; }

SpanContext Tracer::exchange_context(SpanContext context) noexcept {
  const SpanContext previous = tls_context;
  tls_context = context;
  return previous;
}

std::uint64_t Tracer::begin_span(const char* name, std::uint64_t key,
                                 std::atomic<double>* child_s) noexcept {
  const std::uint64_t id = span_id(tls_context.id, name, key);
  tls_context = {id, child_s};
  return id;
}

Tracer::Buffer* Tracer::local_buffer() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  TlsBuffer& t = tls_buffer;
  if (t.buffer == nullptr || t.generation != gen) {
    MutexLock lock(mutex_);
    auto buf = std::make_unique<Buffer>(capacity_);
    buf->tid = static_cast<std::uint32_t>(buffers_.size());
    t.buffer = buf.get();
    t.generation = gen;
    buffers_.push_back(std::move(buf));
  }
  return static_cast<Buffer*>(t.buffer);
}

double Tracer::since_epoch_s(
    std::chrono::steady_clock::time_point t) const noexcept {
  return std::chrono::duration<double>(t - epoch_).count();
}

void Tracer::end_span(std::uint64_t id, SpanContext parent, const char* name,
                      std::chrono::steady_clock::time_point start,
                      double dur_s, double children_s, const TraceArg* args,
                      std::size_t num_args) noexcept {
  tls_context = parent;
  if (!enabled()) return;
  if (parent.child_s != nullptr) {
    parent.child_s->fetch_add(dur_s, std::memory_order_relaxed);
  }
  Buffer* buffer = local_buffer();
  PhaseStat& totals = buffer->totals[name];
  ++totals.count;
  totals.total_s += dur_s;
  totals.self_s += std::max(0.0, dur_s - children_s);
  TraceEvent e;
  e.id = id;
  e.parent = parent.id;
  e.name = name;
  e.start_s = since_epoch_s(start);
  e.dur_s = dur_s;
  e.num_args = static_cast<std::uint8_t>(
      std::min<std::size_t>(num_args, kMaxTraceArgs));
  for (std::uint8_t i = 0; i < e.num_args; ++i) e.args[i] = args[i];
  buffer->push(e);
  if (flight_recorder().enabled()) {
    flight_recorder().record(name, /*instant=*/false, e.start_s + dur_s, args,
                             num_args);
  }
}

void Tracer::instant(const char* name,
                     std::initializer_list<TraceArg> args) noexcept {
  if (!enabled()) return;
  Buffer* buffer = local_buffer();
  ++buffer->totals[name].instants;
  TraceEvent e;
  e.parent = tls_context.id;
  e.name = name;
  e.start_s = since_epoch_s(std::chrono::steady_clock::now());
  e.instant = true;
  for (const TraceArg& a : args) {
    if (e.num_args >= kMaxTraceArgs) break;
    e.args[e.num_args++] = a;
  }
  buffer->push(e);
  if (flight_recorder().enabled()) {
    flight_recorder().record(name, /*instant=*/true, e.start_s, args.begin(),
                             args.size());
  }
}

std::vector<TraceEventView> Tracer::snapshot() const {
  MutexLock lock(mutex_);
  std::vector<TraceEventView> out;
  for (const auto& buf : buffers_) {
    const std::uint64_t n = buf->count.load(std::memory_order_acquire);
    const std::uint64_t kept = std::min<std::uint64_t>(n, buf->capacity);
    out.reserve(out.size() + kept);
    for (std::uint64_t i = n - kept; i < n; ++i) {
      out.push_back({buf->tid, buf->events[i % buf->capacity]});
    }
  }
  return out;
}

std::uint64_t Tracer::dropped_events() const noexcept {
  MutexLock lock(mutex_);
  std::uint64_t dropped = 0;
  for (const auto& buf : buffers_) {
    const std::uint64_t n = buf->count.load(std::memory_order_acquire);
    if (n > buf->capacity) dropped += n - buf->capacity;
  }
  return dropped;
}

std::vector<PhaseStat> Tracer::phase_totals() const {
  std::map<std::string, PhaseStat> by_name;
  {
    MutexLock lock(mutex_);
    for (const auto& buf : buffers_) {
      for (const auto& [name, t] : buf->totals) {
        PhaseStat& stat = by_name[name];
        stat.count += t.count;
        stat.total_s += t.total_s;
        stat.self_s += t.self_s;
        stat.instants += t.instants;
      }
    }
  }
  std::vector<PhaseStat> out;
  out.reserve(by_name.size());
  for (auto& [name, stat] : by_name) {
    stat.name = name;
    out.push_back(std::move(stat));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const PhaseStat& a, const PhaseStat& b) {
                     return a.self_s > b.self_s;
                   });
  return out;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const std::vector<TraceEventView> events = snapshot();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEventView& view : events) {
    const TraceEvent& e = view.event;
    if (e.name == nullptr) continue;
    if (!first) os << ',';
    first = false;
    char num[32];
    os << "{\"name\":\"" << json_escape(e.name)
       << "\",\"cat\":\"hp\",\"ph\":\"" << (e.instant ? 'i' : 'X') << '"';
    if (e.instant) os << ",\"s\":\"t\"";
    os << ",\"pid\":1,\"tid\":" << (view.tid + 1);
    std::snprintf(num, sizeof num, "%.3f", e.start_s * 1e6);
    os << ",\"ts\":" << num;
    if (!e.instant) {
      std::snprintf(num, sizeof num, "%.3f", e.dur_s * 1e6);
      os << ",\"dur\":" << num;
    }
    os << ',';
    write_args_json(os, e);
    os << '}';
  }
  os << "]}\n";
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

}  // namespace hp::obs
