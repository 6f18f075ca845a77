// Child processes of the harness: one-shot CLI runs and the serving
// daemon over pipes. Every child is waited for with wait4, so its own
// ru_maxrss is what the harness reports, never the harness's.
#ifndef TDAC_PERFBENCH_PROCESS_H_
#define TDAC_PERFBENCH_PROCESS_H_

#include <sys/types.h>

#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util.h"

namespace perfbench {

struct ChildExit {
  int status = 0;          // raw wait status
  double wall_s = 0.0;     // spawn to reaped
  double cpu_s = 0.0;      // the child's user + system time
  double maxrss_mb = 0.0;  // the child's ru_maxrss

  bool clean() const;
  std::string Describe() const;
};

/// Runs `argv` to completion with stdin from /dev/null and stdout and
/// stderr appended to `log_path`.
///
/// Linux charges the spawning process's peak RSS to a child's ru_maxrss
/// (exec records the old address space's high-water mark), so a process
/// that spawns measured programs must itself stay small: see
/// PrepareIsolated in workloads.h.
ChildExit RunChild(const std::vector<std::string>& argv,
                   const std::string& log_path);

/// A `tdac_serve` child: requests go to its stdin, response lines come back
/// through a reader thread that stamps each with its arrival time.
class Daemon {
 public:
  struct Line {
    std::string text;
    Clock::time_point at;
  };

  /// Spawns `argv`; the daemon's stderr goes to `stderr_path`.
  Daemon(const std::vector<std::string>& argv, const std::string& stderr_path);
  /// Kills and reaps the child if Finish() was not called.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Clock::time_point spawned_at() const { return spawned_at_; }

  /// Writes `line` plus a newline; the send time is returned.
  Clock::time_point Send(std::string_view line);

  /// Pops the next response line, waiting at most `timeout_s`. False on
  /// timeout or once the daemon closed its stdout and the queue is empty.
  bool Next(Line* out, double timeout_s);

  /// True once the daemon closed its stdout.
  bool closed();

  /// Closes the daemon's stdin, drains its output and reaps it.
  ChildExit Finish();

 private:
  void ReadLoop();

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  Clock::time_point spawned_at_;

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Line> lines_;  // guarded by mutex_
  bool eof_ = false;        // guarded by mutex_

  std::thread reader_;  // declared last: it uses the members above
};

}  // namespace perfbench

#endif  // TDAC_PERFBENCH_PROCESS_H_
