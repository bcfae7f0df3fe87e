#pragma once
// A spawned serve_digg child: started with a pinned thread count, timed
// from spawn until it prints DIGG_SERVE_PORT_BOUND=, drained with SIGTERM
// and reaped. The destructor kills and reaps a child that is still alive,
// so no server outlives the benchmark.

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

struct ServerOptions {
  std::string binary;        // serve_digg
  std::uint64_t seed = 42;   // its corpus seed (argv[1])
  unsigned threads = 1;      // DIGG_THREADS for the child
  std::string metrics_path;  // DIGG_METRICS dump at exit ("" = none)
  bool exporter = false;     // DIGG_METRICS_PORT=0 (ephemeral exporter)
};

class ServerProcess {
 public:
  /// Spawns the server and blocks until it is listening. Throws
  /// std::runtime_error when it exits or stays silent for `timeout_s`.
  explicit ServerProcess(const ServerOptions& opts, double timeout_s = 120);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::uint16_t metrics_port() const noexcept {
    return metrics_port_;
  }
  /// Spawn until DIGG_SERVE_PORT_BOUND= was read.
  [[nodiscard]] double setup_s() const noexcept { return setup_s_; }
  /// The child's VmHWM (peak resident set) in MB; negative if unreadable.
  [[nodiscard]] double peak_rss_mb() const;

  /// Graceful drain: SIGTERM, then wait up to `timeout_s` for a zero exit
  /// status after the child's "drained:" line. False on anything else (the
  /// child is then killed).
  bool stop(double timeout_s = 60);

 private:
  bool read_line(std::string& line, double deadline_s);
  void kill_and_reap();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffered_;
  std::uint16_t port_ = 0;
  std::uint16_t metrics_port_ = 0;
  double setup_s_ = 0.0;
};

/// VmHWM of a process in MB (from /proc/<pid>/status; "self" for ours).
[[nodiscard]] double vmhwm_mb(const std::string& pid);

/// CPU time the hypervisor has taken from this machine's CPUs since boot,
/// in seconds summed over CPUs (the steal column of /proc/stat); 0 when
/// unreadable.
[[nodiscard]] double host_steal_s();

}  // namespace perfbench
