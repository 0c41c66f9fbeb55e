#pragma once
// Process supervision for the evaluation fleet (DESIGN.md §15): owns the
// fork/exec of N hpo-worker processes, their stdin/stdout pipes, the
// poll(2) event source the scheduler drains, SIGKILL + waitpid teardown,
// and the respawn budget. This is the single sanctioned home of raw
// process-control calls — tools/lint.py rule `raw-process-control` keeps
// fork/pipe/waitpid out of the rest of src/.
//
// Threading: the supervisor is confined to the scheduler's event-loop
// thread — no locks, by design. Nothing here blocks indefinitely: reads
// are non-blocking, reaps follow a SIGKILL, and shutdown() bounds its
// grace period. The destructor guarantees every child it ever spawned has
// been reaped (no zombie processes survive the supervisor).

#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace hp::dist {

class WorkerSupervisor {
 public:
  struct Options {
    /// Path of the hpo-worker binary (execv'd as argv[0]).
    std::string worker_binary;
    /// Arguments after argv[0]; every worker gets the same ones. The slot
    /// index is appended as `--worker-slot <n>` for log attribution.
    std::vector<std::string> worker_args;
    std::size_t workers = 2;
    /// Total respawns allowed across the fleet's lifetime; a worker loss
    /// past the budget retires the slot instead.
    std::size_t respawn_budget = 16;
  };

  explicit WorkerSupervisor(Options options);
  ~WorkerSupervisor();

  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  /// Spawns the fleet. Throws std::runtime_error when the worker binary is
  /// missing/non-executable or a pipe/fork fails.
  void start();

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] bool alive(std::size_t slot) const;
  [[nodiscard]] bool retired(std::size_t slot) const;
  [[nodiscard]] pid_t pid(std::size_t slot) const;
  /// Live workers remaining (not dead, not retired).
  [[nodiscard]] std::size_t live_count() const noexcept;

  /// Frames @p payload onto the worker's stdin. Returns false when the
  /// worker is dead/retired or the write fails (EPIPE after a crash) —
  /// the caller then treats the worker as lost.
  [[nodiscard]] bool send(std::size_t slot, std::string_view payload);

  /// Waits up to @p timeout_ms for worker output. Every complete line is
  /// passed to @p on_line(slot, line); EOF/closed pipes SIGKILL + reap the
  /// worker and invoke @p on_death(slot) once. Either callback may be
  /// empty.
  void poll_lines(int timeout_ms,
                  const std::function<void(std::size_t, const std::string&)>&
                      on_line,
                  const std::function<void(std::size_t)>& on_death);

  /// SIGKILLs and reaps the worker (no-op when already dead). The kill +
  /// reap is synchronous and final — nothing keeps running past it.
  void kill_worker(std::size_t slot);

  /// Respawns a dead slot. Returns false (and retires the slot) once the
  /// respawn budget is exhausted.
  [[nodiscard]] bool respawn(std::size_t slot);

  /// Graceful stop: sends quit to live workers, waits up to
  /// @p grace_ms for them to exit, SIGKILLs stragglers, reaps everything.
  void shutdown(int grace_ms = 2000);

  [[nodiscard]] std::size_t respawns() const noexcept { return respawns_; }
  /// True when every process ever spawned has been waitpid'd.
  [[nodiscard]] bool all_reaped() const noexcept {
    return spawned_ == reaped_;
  }

 private:
  struct Slot {
    pid_t pid = -1;
    int in_fd = -1;   ///< write end of the worker's stdin
    int out_fd = -1;  ///< read end of the worker's stdout
    std::string read_buffer;
    bool alive = false;
    bool retired = false;
  };

  void spawn(std::size_t slot_index);
  /// SIGKILL (if still alive) + blocking waitpid + close fds.
  void reap(std::size_t slot_index);
  /// Drains available bytes; returns false on EOF/error (worker died).
  [[nodiscard]] bool drain(
      std::size_t slot_index,
      const std::function<void(std::size_t, const std::string&)>& on_line);

  Options options_;
  std::vector<Slot> slots_;
  std::size_t respawns_ = 0;
  std::size_t spawned_ = 0;
  std::size_t reaped_ = 0;
};

}  // namespace hp::dist
