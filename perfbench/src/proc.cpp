#include "perfbench/src/proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "perfbench/src/trace.h"

extern char** environ;

namespace perfbench {

double vmhwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
  }
  return -1.0;
}

double host_steal_s() {
  // "cpu  user nice system idle iowait irq softirq steal ...", in clock
  // ticks.
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field[8] = {};
  in >> cpu;
  for (double& f : field) in >> f;
  if (!in || cpu != "cpu") return 0.0;
  return field[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

ServerProcess::ServerProcess(const ServerOptions& opts, double timeout_s) {
  // The child's environment: ours, minus every telemetry switch, plus the
  // pinned settings below.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::string key = kv.substr(0, kv.find('='));
    if (key == "DIGG_THREADS" || key == "DIGG_SERVE_PORT" ||
        key == "DIGG_METRICS" || key == "DIGG_METRICS_PORT" ||
        key == "DIGG_CHECKPOINT_MS" || key == "DIGG_TRACE" ||
        key == "DIGG_LOG_LEVEL")
      continue;
    env.push_back(kv);
  }
  env.push_back("DIGG_THREADS=" + std::to_string(opts.threads));
  env.push_back("DIGG_SERVE_PORT=0");
  env.push_back("DIGG_LOG_LEVEL=error");
  if (!opts.metrics_path.empty())
    env.push_back("DIGG_METRICS=" + opts.metrics_path);
  if (opts.exporter) env.push_back("DIGG_METRICS_PORT=0");
  std::vector<char*> envp;
  for (auto& kv : env) envp.push_back(kv.data());
  envp.push_back(nullptr);
  std::string seed = std::to_string(opts.seed);
  std::string bin = opts.binary;
  char* argv[] = {bin.data(), seed.data(), nullptr};

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const double t0 = now_s();
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The server dies with the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execve(argv[0], argv, envp.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];
  const double deadline = t0 + timeout_s;
  std::string line;
  while (read_line(line, deadline)) {
    if (line.rfind("DIGG_METRICS_PORT_BOUND=", 0) == 0)
      metrics_port_ = static_cast<std::uint16_t>(
          std::strtoul(line.c_str() + 24, nullptr, 10));
    if (line.rfind("DIGG_SERVE_PORT_BOUND=", 0) == 0) {
      port_ = static_cast<std::uint16_t>(
          std::strtoul(line.c_str() + 22, nullptr, 10));
      setup_s_ = now_s() - t0;
      return;
    }
  }
  kill_and_reap();
  throw std::runtime_error("server did not report its port: " + opts.binary);
}

ServerProcess::~ServerProcess() {
  kill_and_reap();
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool ServerProcess::read_line(std::string& line, double deadline_s) {
  for (;;) {
    const auto nl = buffered_.find('\n');
    if (nl != std::string::npos) {
      line = buffered_.substr(0, nl);
      buffered_.erase(0, nl + 1);
      return true;
    }
    const double left = deadline_s - now_s();
    if (left <= 0) return false;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) return false;
    char buf[4096];
    const auto n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    buffered_.append(buf, static_cast<std::size_t>(n));
  }
}

double ServerProcess::peak_rss_mb() const {
  return pid_ > 0 ? vmhwm_mb(std::to_string(pid_)) : -1.0;
}

bool ServerProcess::stop(double timeout_s) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const double deadline = now_s() + timeout_s;
  bool drained = false;
  std::string line;
  while (read_line(line, deadline))
    if (line.rfind("drained:", 0) == 0) drained = true;
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return drained && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (now_s() > deadline) break;
    ::usleep(1000);
  }
  kill_and_reap();
  return false;
}

void ServerProcess::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

}  // namespace perfbench
