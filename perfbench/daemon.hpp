#pragma once
/// \file daemon.hpp
/// Runs the shipping `ptask_served` binary as a child process and reads its
/// resource use from /proc.

#include <sys/types.h>

#include <string>

namespace perfbench {

class Daemon {
 public:
  /// Starts `executable --port 0 --workers <workers> --quiet` and waits for
  /// its "listening on" line.  Throws std::runtime_error on failure.
  Daemon(const std::string& executable, int workers);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }

  /// User + system CPU seconds the daemon has used so far.
  double cpu_seconds() const;
  /// Peak resident set (VmHWM) in MiB.
  double peak_rss_mib() const;

  /// SIGTERM (graceful drain), then waits; SIGKILL after a grace period.
  /// Returns true when the daemon exited with status 0.  Idempotent.
  bool stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
  bool clean_exit_ = false;
};

}  // namespace perfbench
