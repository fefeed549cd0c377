#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/plan_client.hpp"

namespace perfbench {

namespace {

bool reap(pid_t pid, int options) {
  int status = 0;
  return ::waitpid(pid, &status, options) == pid;
}

}  // namespace

Daemon::Daemon(const std::string& mimdd_path, const std::string& socket_path,
               const std::string& log_path,
               const std::vector<std::string>& flags)
    : socket_(socket_path) {
  std::vector<std::string> args = {mimdd_path, "--socket", socket_path,
                                   "--force"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Die with the benchmark, whatever way it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (true) {
    if (!alive()) throw std::runtime_error("mimdd exited during start-up");
    try {
      mimd::PlanClient c = mimd::PlanClient::connect(socket_, 5000);
      (void)c.stats();
      return;
    } catch (const std::exception&) {
      if (std::chrono::steady_clock::now() > deadline) {
        stop();
        throw std::runtime_error("mimdd did not answer within 30 s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

Daemon::~Daemon() { stop(); }

bool Daemon::alive() {
  if (pid_ <= 0) return false;
  if (reap(pid_, WNOHANG)) pid_ = -1;
  return pid_ > 0;
}

double Daemon::peak_rss_mib() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      f >> kib;
      return kib / 1024.0;
    }
    std::string rest;
    std::getline(f, rest);
  }
  return 0.0;
}

void Daemon::stop() {
  if (!alive()) return;
  try {
    mimd::PlanClient c = mimd::PlanClient::connect(socket_, 5000);
    c.shutdown_server();
  } catch (const std::exception&) {
    ::kill(pid_, SIGTERM);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (reap(pid_, WNOHANG)) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(pid_, SIGKILL);
  reap(pid_, 0);
  pid_ = -1;
}

}  // namespace perfbench
