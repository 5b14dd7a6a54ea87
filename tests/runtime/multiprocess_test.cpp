// Multi-process integration tests: real dsjoin_coord + dsjoin_noded
// processes over loopback, driven via fork/exec. Two contracts:
//
//   1. A 4-daemon distributed run reproduces the in-process TcpTransport
//      baseline exactly (deduplicated pair count and epsilon) — the
//      runtime's acceptance criterion.
//   2. SIGKILLing one daemon mid-stream degrades the run instead of
//      wrecking it: the coordinator and the survivors exit cleanly, no
//      false pairs are reported, and epsilon is honest about the hole.
//
// Binary paths come from the build system (DSJOIN_COORD_BIN /
// DSJOIN_NODED_BIN compile definitions); CI filters these cases with
// --gtest_filter='Multiprocess*'.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dsjoin/runtime/local.hpp"

namespace dsjoin::runtime {
namespace {

using namespace std::chrono_literals;

// The one experiment both tests run; mirrors run_inprocess_tcp below.
core::SystemConfig experiment_config() {
  core::SystemConfig config;
  config.nodes = 4;
  config.seed = 7;
  config.workload = "ZIPF";
  config.queries.front().policy = core::PolicyKind::kRoundRobin;
  config.tuples_per_node = 250;
  config.arrivals_per_second = 50.0;
  config.queries.front().join_half_width_s = 2.0;
  return config;
}

std::vector<std::string> coord_args(const std::string& port_file) {
  return {DSJOIN_COORD_BIN,   "--port",      "0",
          "--port-file",      port_file,     "--nodes",
          "4",                "--queries",   "RR:0.5:2.0",
          "--workload",       "ZIPF",        "--tuples",
          "250",              "--rate",      "50",
          "--seed",           "7",           "--admit-timeout",
          "60"};
}

/// fork/exec with stdout redirected to `stdout_path` (empty = inherit).
pid_t spawn(const std::vector<std::string>& args,
            const std::string& stdout_path) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or -1, asserted by callers)

  if (!stdout_path.empty()) {
    const int fd =
        ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::close(fd);
    }
  }
  ::execv(argv[0], argv.data());
  std::perror("execv");
  ::_exit(127);
}

/// waitpid with a deadline; SIGKILLs and fails the test on expiry so a
/// wedged child can never hang the suite.
int wait_with_timeout(pid_t pid, std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    int status = 0;
    const pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid) return status;
    if (got < 0) return -1;
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      ADD_FAILURE() << "process " << pid << " hit the " << timeout.count()
                    << "s timeout and was killed";
      return status;
    }
    std::this_thread::sleep_for(20ms);
  }
}

/// Polls `path` until the coordinator publishes its port (atomic rename).
std::uint16_t read_port_file(const std::string& path,
                             std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(path);
    unsigned port = 0;
    if (in && (in >> port) && port > 0 && port < 65536) {
      return static_cast<std::uint16_t>(port);
    }
    std::this_thread::sleep_for(20ms);
  }
  return 0;
}

/// Parsed `REPORT key=value ...` line from the coordinator's stdout.
struct Report {
  bool found = false;
  bool clean = false;
  std::uint32_t nodes = 0;
  std::uint32_t failed = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t exact = 0;
  std::uint64_t reported = 0;
  std::uint64_t false_pairs = 0;
  double epsilon = -1.0;
};

Report parse_report(const std::string& stdout_path) {
  Report report;
  std::ifstream in(stdout_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("REPORT ", 0) != 0) continue;
    report.found = true;
    std::istringstream fields(line.substr(7));
    std::string field;
    while (fields >> field) {
      const auto eq = field.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "clean") report.clean = value == "1";
      else if (key == "nodes") report.nodes = std::stoul(value);
      else if (key == "failed") report.failed = std::stoul(value);
      else if (key == "arrivals") report.arrivals = std::stoull(value);
      else if (key == "exact") report.exact = std::stoull(value);
      else if (key == "reported") report.reported = std::stoull(value);
      else if (key == "false") report.false_pairs = std::stoull(value);
      else if (key == "epsilon") report.epsilon = std::stod(value);
    }
  }
  return report;
}

/// Unique scratch directory per test (parallel ctest processes).
class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/dsjoin_mp_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
    EXPECT_FALSE(dir_.empty());
  }
  ~ScratchDir() {
    if (dir_.empty()) return;
    for (const auto& f : files_) ::unlink(f.c_str());
    ::rmdir(dir_.c_str());
  }
  std::string path(const std::string& name) {
    files_.push_back(dir_ + "/" + name);
    return files_.back();
  }

 private:
  std::string dir_;
  std::vector<std::string> files_;
};

std::vector<std::string> noded_args(std::uint16_t port, bool pace) {
  std::vector<std::string> args = {DSJOIN_NODED_BIN, "--coord-port",
                                   std::to_string(port)};
  if (pace) args.push_back("--pace");
  return args;
}

TEST(Multiprocess, FourDaemonRunMatchesInProcessBaseline) {
  // Ground truth from the in-process transport, same config and seed.
  const RunReport baseline = run_inprocess_tcp(experiment_config());
  ASSERT_TRUE(baseline.clean) << baseline.error;
  ASSERT_EQ(baseline.false_pairs, 0u);
  ASSERT_GT(baseline.exact_pairs, 0u);

  ScratchDir scratch;
  const std::string port_file = scratch.path("port");
  const std::string coord_out = scratch.path("coord.out");

  const pid_t coord = spawn(coord_args(port_file), coord_out);
  ASSERT_GT(coord, 0);
  const std::uint16_t port = read_port_file(port_file, 15s);
  if (port == 0) {
    ::kill(coord, SIGKILL);
    ::waitpid(coord, nullptr, 0);
    FAIL() << "coordinator never published its control port";
  }

  std::vector<pid_t> daemons;
  for (int i = 0; i < 4; ++i) {
    const pid_t pid = spawn(noded_args(port, /*pace=*/false), "");
    ASSERT_GT(pid, 0);
    daemons.push_back(pid);
  }

  const int coord_status = wait_with_timeout(coord, 120s);
  ASSERT_TRUE(WIFEXITED(coord_status));
  EXPECT_EQ(WEXITSTATUS(coord_status), 0);
  for (const pid_t pid : daemons) {
    const int status = wait_with_timeout(pid, 30s);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  const Report report = parse_report(coord_out);
  ASSERT_TRUE(report.found) << "no REPORT line in coordinator output";
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.nodes, 4u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.arrivals, 2000u);
  EXPECT_EQ(report.false_pairs, 0u);

  // The acceptance criterion: four real processes over loopback reproduce
  // the single-process transport exactly.
  EXPECT_EQ(report.exact, baseline.exact_pairs);
  EXPECT_EQ(report.reported, baseline.reported_pairs);
  EXPECT_NEAR(report.epsilon, baseline.epsilon, 1e-5);  // %.6f print precision
}

TEST(Multiprocess, SigkilledDaemonDegradesGracefully) {
  ScratchDir scratch;
  const std::string port_file = scratch.path("port");
  const std::string coord_out = scratch.path("coord.out");

  const pid_t coord = spawn(coord_args(port_file), coord_out);
  ASSERT_GT(coord, 0);
  const std::uint16_t port = read_port_file(port_file, 15s);
  if (port == 0) {
    ::kill(coord, SIGKILL);
    ::waitpid(coord, nullptr, 0);
    FAIL() << "coordinator never published its control port";
  }

  // --pace keeps the ingest phase open (~5s of virtual time) so the kill
  // lands mid-stream, not after the work is already done.
  std::vector<pid_t> daemons;
  for (int i = 0; i < 4; ++i) {
    const pid_t pid = spawn(noded_args(port, /*pace=*/true), "");
    ASSERT_GT(pid, 0);
    daemons.push_back(pid);
  }

  std::this_thread::sleep_for(1500ms);
  const pid_t victim = daemons[1];
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  const int coord_status = wait_with_timeout(coord, 120s);
  ASSERT_TRUE(WIFEXITED(coord_status));
  // Degraded, not failed: the coordinator still exits 0.
  EXPECT_EQ(WEXITSTATUS(coord_status), 0);

  for (const pid_t pid : daemons) {
    const int status = wait_with_timeout(pid, 30s);
    if (pid == victim) {
      ASSERT_TRUE(WIFSIGNALED(status));
      EXPECT_EQ(WTERMSIG(status), SIGKILL);
    } else {
      ASSERT_TRUE(WIFEXITED(status));
      EXPECT_EQ(WEXITSTATUS(status), 0) << "survivor " << pid;
    }
  }

  const Report report = parse_report(coord_out);
  ASSERT_TRUE(report.found) << "no REPORT line in coordinator output";
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.nodes, 4u);
  EXPECT_EQ(report.failed, 1u);
  // Graceful degradation: partial coverage is honest (epsilon > 0 — the
  // dead node's local pairs are unrecoverable), and nothing is invented.
  EXPECT_EQ(report.false_pairs, 0u);
  EXPECT_GT(report.epsilon, 0.0);
  EXPECT_LE(report.epsilon, 1.0);
  EXPECT_LT(report.reported, report.exact);
}

}  // namespace
}  // namespace dsjoin::runtime
