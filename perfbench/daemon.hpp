// The mimdd child process the benchmark serves from.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  /// Start `mimdd_path` listening on the Unix socket `socket_path`, with
  /// `flags` appended (its log goes to `log_path`), and return once it
  /// answers a Stats request.  The child is killed if this process dies
  /// first.  Throws std::runtime_error if it does not come up within 30 s.
  Daemon(const std::string& mimdd_path, const std::string& socket_path,
         const std::string& log_path, const std::vector<std::string>& flags);
  /// Stops the daemon (see stop()).
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// False once the process has exited.
  [[nodiscard]] bool alive();
  /// The process's peak resident set (VmHWM) in MiB; 0 once it exited.
  [[nodiscard]] double peak_rss_mib() const;
  /// Graceful Shutdown frame, then wait; SIGKILL after 20 s.  Idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

}  // namespace perfbench
