#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

Daemon::Daemon(const std::string& executable, int workers) {
  int pipe_fds[2] = {-1, -1};
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  const std::string workers_text = std::to_string(workers);
  std::vector<std::string> args = {executable, "--port", "0", "--workers",
                                   workers_text, "--quiet"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.  The daemon dies with
    // the benchmark, so a killed run leaves no process behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];

  // "ptask_served: listening on 127.0.0.1:<port>"
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      stop();
      throw std::runtime_error("ptask_served did not report its port");
    }
    char buffer[256];
    const ssize_t n = ::read(stdout_fd_, buffer, sizeof(buffer));
    if (n <= 0) {
      stop();
      throw std::runtime_error("ptask_served exited before listening");
    }
    line.append(buffer, static_cast<std::size_t>(n));
  }
  const std::size_t colon = line.rfind(':', line.find('\n'));
  port_ = colon == std::string::npos ? 0 : std::atoi(line.c_str() + colon + 1);
  if (port_ <= 0) {
    stop();
    throw std::runtime_error("cannot parse ptask_served banner: " + line);
  }
}

Daemon::~Daemon() { stop(); }

double Daemon::cpu_seconds() const {
  // Fields 14 and 15 of /proc/<pid>/stat, counted after the ")" that ends
  // the command name.
  const std::string stat = read_file("/proc/" + std::to_string(pid_) + "/stat");
  const std::size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) {
    throw std::runtime_error("cannot read daemon /proc stat");
  }
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (index == 15) {
      stime = std::strtoull(field.c_str(), nullptr, 10);
      break;
    }
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mib() const {
  const std::string status =
      read_file("/proc/" + std::to_string(pid_) + "/status");
  const std::size_t at = status.find("VmHWM:");
  if (at == std::string::npos) {
    throw std::runtime_error("cannot read daemon VmHWM");
  }
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

bool Daemon::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (done == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    } else {
      clean_exit_ = done == pid_ && WIFEXITED(status) &&
                    WEXITSTATUS(status) == 0;
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return clean_exit_;
}

}  // namespace perfbench
