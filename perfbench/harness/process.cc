#include "process.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

extern char** environ;

namespace perfbench {
namespace {

// Daemons still running. A harness that exits early (Fatal) kills and
// reaps them at exit, so no child outlives a failed run.
std::mutex g_live_mutex;
std::vector<pid_t> g_live;  // guarded by g_live_mutex

void KillLiveDaemons() {
  std::lock_guard<std::mutex> lock(g_live_mutex);
  for (const pid_t pid : g_live) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  g_live.clear();
}

void TrackDaemon(pid_t pid) {
  static const bool registered = std::atexit(KillLiveDaemons) == 0;
  (void)registered;
  std::lock_guard<std::mutex> lock(g_live_mutex);
  g_live.push_back(pid);
}

void UntrackDaemon(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_live_mutex);
  g_live.erase(std::remove(g_live.begin(), g_live.end(), pid), g_live.end());
}

std::vector<char*> ArgvPointers(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  out.reserve(argv.size() + 1);
  for (const std::string& arg : argv) out.push_back(const_cast<char*>(arg.c_str()));
  out.push_back(nullptr);
  return out;
}

pid_t Spawn(const std::vector<std::string>& argv,
            posix_spawn_file_actions_t* actions) {
  pid_t pid = -1;
  std::vector<char*> args = ArgvPointers(argv);
  const int rc =
      posix_spawn(&pid, args[0], actions, nullptr, args.data(), environ);
  if (rc != 0) Fatal("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  return pid;
}

ChildExit Reap(pid_t pid, Clock::time_point started) {
  ChildExit out;
  struct rusage usage = {};
  pid_t waited = -1;
  do {
    waited = wait4(pid, &out.status, 0, &usage);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid) Fatal("wait4 failed: " + std::string(std::strerror(errno)));
  out.wall_s = SecondsBetween(started, Clock::now());
  out.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  out.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return out;
}

}  // namespace

bool ChildExit::clean() const {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string ChildExit::Describe() const {
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) return "signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

ChildExit RunChild(const std::vector<std::string>& argv,
                   const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const Clock::time_point started = Clock::now();
  const pid_t pid = Spawn(argv, &actions);
  posix_spawn_file_actions_destroy(&actions);
  return Reap(pid, started);
}

Daemon::Daemon(const std::vector<std::string>& argv,
               const std::string& stderr_path) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
    Fatal("pipe2 failed: " + std::string(std::strerror(errno)));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                   stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  spawned_at_ = Clock::now();
  pid_ = Spawn(argv, &actions);
  TrackDaemon(pid_);
  posix_spawn_file_actions_destroy(&actions);
  close(in_pipe[0]);
  close(out_pipe[1]);
  stdin_fd_ = in_pipe[1];
  stdout_fd_ = out_pipe[0];
  reader_ = std::thread([this]() { ReadLoop(); });
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    Finish();
  }
}

Clock::time_point Daemon::Send(std::string_view line) {
  std::string buffer(line);
  buffer += '\n';
  const Clock::time_point at = Clock::now();
  size_t done = 0;
  while (done < buffer.size()) {
    const ssize_t n = write(stdin_fd_, buffer.data() + done, buffer.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Fatal("daemon stdin closed: " + std::string(std::strerror(errno)));
    done += static_cast<size_t>(n);
  }
  return at;
}

bool Daemon::Next(Line* out, double timeout_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  const bool ready = ready_.wait_for(
      lock, std::chrono::duration<double>(timeout_s),
      [this]() { return !lines_.empty() || eof_; });
  if (!ready || lines_.empty()) return false;
  *out = std::move(lines_.front());
  lines_.pop_front();
  return true;
}

bool Daemon::closed() {
  std::lock_guard<std::mutex> lock(mutex_);
  return eof_;
}

void Daemon::ReadLoop() {
  std::string pending;
  char buffer[1 << 14];
  for (;;) {
    const ssize_t n = read(stdout_fd_, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    const Clock::time_point at = Clock::now();
    pending.append(buffer, static_cast<size_t>(n));
    size_t start = 0;
    size_t newline = 0;
    std::vector<Line> batch;
    while ((newline = pending.find('\n', start)) != std::string::npos) {
      batch.push_back(Line{pending.substr(start, newline - start), at});
      start = newline + 1;
    }
    pending.erase(0, start);
    if (!batch.empty()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Line& line : batch) lines_.push_back(std::move(line));
      }
      ready_.notify_all();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    eof_ = true;
  }
  ready_.notify_all();
}

ChildExit Daemon::Finish() {
  if (stdin_fd_ >= 0) {
    close(stdin_fd_);
    stdin_fd_ = -1;
  }
  if (reader_.joinable()) reader_.join();
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
  UntrackDaemon(pid_);
  ChildExit out = Reap(pid_, spawned_at_);
  pid_ = -1;
  return out;
}

}  // namespace perfbench
