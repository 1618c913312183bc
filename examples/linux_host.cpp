// Real-Linux demo: spawn a mix of memory-streaming and compute-spinning
// worker processes, then run the actual Dike pipeline over them with
// sched_setaffinity enforcement and /proc + perf counters — the deployment
// mode the paper evaluated.
//
// Usage:
//   linux_host [--workers 4] [--seconds 10] [--quantum-ms 500] [--no-perf]
//
// Inside a container without perf access, Dike degrades to progress
// equalisation (see oslinux/dike_host.hpp); the demo still runs.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "oslinux/dike_host.hpp"
#include "util/cli.hpp"

namespace {

/// Memory-streaming worker: strides through a buffer far larger than LLC.
[[noreturn]] void memoryWorker() {
  const std::size_t bytes = 256u << 20;  // 256 MiB
  std::vector<char> buffer(bytes, 1);
  volatile long long sink = 0;
  for (;;) {
    for (std::size_t i = 0; i < bytes; i += 64) sink = sink + buffer[i];
  }
}

/// Compute worker: arithmetic in registers, touching almost no memory.
[[noreturn]] void computeWorker() {
  volatile double x = 1.0;
  for (;;) {
    for (int i = 0; i < 1 << 20; ++i) x = x * 1.0000001 + 1e-9;
  }
}

pid_t spawnWorker(bool memory) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (memory)
      memoryWorker();
    else
      computeWorker();
  }
  return pid;
}

}  // namespace

int main(int argc, char** argv) {
  const dike::util::CliArgs args{argc, argv};
  const int workers = args.getInt("workers", 4);
  const int seconds = args.getInt("seconds", 10);
  const int quantumMs = args.getInt("quantum-ms", 500);
  const bool usePerf = !args.getBool("no-perf", false);

  std::printf("Spawning %d workers (alternating memory/compute)...\n",
              workers);
  std::vector<pid_t> pids;
  for (int i = 0; i < workers; ++i) {
    const pid_t pid = spawnWorker(i % 2 == 0);
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    pids.push_back(pid);
  }

  dike::oslinux::HostConfig cfg;
  cfg.usePerf = usePerf;
  cfg.dike.params.quantaLengthMs = quantumMs;
  dike::oslinux::DikeHost host{cfg};
  for (const pid_t pid : pids) {
    if (const std::error_code ec = host.addProcess(pid)) {
      std::fprintf(stderr, "addProcess(%d): %s\n", pid, ec.message().c_str());
    }
  }
  if (const std::error_code ec = host.initialize()) {
    std::fprintf(stderr, "initialize: %s\n", ec.message().c_str());
    for (const pid_t pid : pids) ::kill(pid, SIGKILL);
    return 1;
  }

  std::printf(
      "Managing %d threads on %zu cpus (perf counters %s). Running %ds with "
      "%dms quanta...\n\n",
      host.managedThreadCount(), host.cpus().size(),
      host.perfActive() ? "active" : "unavailable; using /proc progress",
      seconds, quantumMs);

  const int quanta = seconds * 1000 / quantumMs;
  for (int q = 0; q < quanta; ++q) {
    ::usleep(static_cast<useconds_t>(quantumMs) * 1000);
    const dike::oslinux::HostQuantumReport report = host.runQuantum();
    std::printf("quantum %3d: threads=%d unfairness=%.3f swaps=%d\n", q,
                report.liveThreads, report.unfairness,
                report.swapsExecuted);
  }

  std::printf("\nTotal swaps: %lld\n",
              static_cast<long long>(host.scheduler().totalSwaps()));
  for (const pid_t pid : pids) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  return 0;
}
