// DikeHost: the real-Linux enforcement backend.
//
// A sched::Backend over live cpus and threads that runs the same
// core::DikeScheduler as the simulator: it samples /proc and perf counters
// into each quantum's QuantumSample and enforces the scheduler's swaps and
// migrations with sched_setaffinity -- the "easy wrapper" deployment the
// paper released for Linux/x86, with the whole algorithm (Optimizer,
// prediction tracking, retry backoff, watchdogs).
//
// Counter sourcing:
//  * With perf available, per-thread LLC misses/references give the access
//    rate and miss ratio directly (the paper's configuration).
//  * Without perf (containers), utime progress becomes the rate proxy and
//    every thread classifies as compute-intensive: Dike degrades to pure
//    progress equalisation, which is still meaningful on heterogeneous
//    cpus.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "core/dike_scheduler.hpp"
#include "oslinux/affinity.hpp"
#include "oslinux/host_topology.hpp"
#include "oslinux/perf.hpp"
#include "sched/scheduler.hpp"
#include "util/types.hpp"

namespace dike::oslinux {

struct HostConfig {
  core::DikeConfig dike{};  ///< one instance: cluster.clusters must be <= 1
  /// Try to open perf counters per thread (falls back silently if denied).
  bool usePerf = true;
  /// Consecutive failed counter reads before a thread's counters are
  /// dropped and it degrades permanently to the utime-proxy estimate.
  int perfReadFailureLimit = 3;
  /// Restrict scheduling to these cpus (empty = all online cpus).
  std::vector<int> cpus;
};

/// One managed thread's bookkeeping.
struct HostThread {
  pid_t pid = 0;
  pid_t tid = 0;
  int denseId = -1;  ///< thread id inside the scheduler
  int cpu = -1;      ///< index into DikeHost::cpus() it is pinned to
  unsigned long long lastUtime = 0;
  bool haveBaseline = false;
  int perfReadFailures = 0;  ///< consecutive failed counter reads
  std::optional<PerfCounter> llcMisses;
  std::optional<PerfCounter> llcRefs;
};

struct HostQuantumReport {
  double unfairness = 0.0;
  int liveThreads = 0;
  int swapsExecuted = 0;
  bool perfActive = false;
};

/// Pins a thread to one cpu; pinToCpu unless a test injects a recorder.
using PinFn = std::function<std::error_code(pid_t tid, int cpu)>;

/// The Backend view is dense: core id = index into cpus(), thread id =
/// HostThread::denseId. A cpu's occupant is the last thread pinned to it.
class DikeHost final : public sched::Backend {
 public:
  /// Throws std::invalid_argument for an invalid Dike configuration.
  explicit DikeHost(HostConfig config = {}, PinFn pin = pinToCpu);

  /// Register a process: all of its current threads become managed.
  [[nodiscard]] std::error_code addProcess(pid_t pid);

  /// Discover topology and pin every managed thread to its own cpu
  /// (round-robin when threads outnumber cpus).
  [[nodiscard]] std::error_code initialize();

  /// One scheduling quantum: prune dead threads, adopt threads spawned
  /// since the last quantum (e.g. late OpenMP workers), sample counters,
  /// and run one DikeScheduler quantum, which actuates through this
  /// backend.
  HostQuantumReport runQuantum();

  /// Convenience loop: sleep for the scheduler's current quantum (Dike-AF
  /// and Dike-AP adapt it) and run it, until the deadline passes or no
  /// managed thread remains.
  void runFor(std::chrono::milliseconds duration);

  [[nodiscard]] int managedThreadCount() const noexcept {
    return static_cast<int>(threads_.size());
  }
  [[nodiscard]] const core::DikeScheduler& scheduler() const noexcept {
    return scheduler_;
  }
  [[nodiscard]] const std::vector<int>& cpus() const noexcept { return cpus_; }
  [[nodiscard]] bool perfActive() const noexcept { return perfActive_; }

  // sched::Backend.
  int coreCount() const override { return util::isize(cpus_); }
  int socketOf(int c) const override { return cpuSocket_.at(idx(c)); }
  int coreOccupant(int c) const override { return occupant_.at(idx(c)); }
  /// Advances by the scheduler's quantumTicks() after every quantum.
  util::Tick now() const override { return now_; }
  /// Pins both threads; when the second pin fails the first is undone.
  bool swap(int threadA, int threadB) override;
  bool migrateTo(int threadId, int coreId) override;
  /// No host policy suspends threads.
  bool isSuspended(int) const override { return false; }
  void suspend(int) override { throw std::logic_error{"host never suspends"}; }
  void resume(int) override { throw std::logic_error{"host never suspends"}; }

 private:
  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }
  /// Register one thread; returns it (already managed: the existing entry).
  HostThread& manage(pid_t pid, pid_t tid);
  /// Pin a thread to cpus_[cpu] and record it as that cpu's occupant.
  [[nodiscard]] std::error_code place(HostThread& t, int cpu);
  /// Thread `denseId` has left `cpu`: if it was the occupant, hand the cpu
  /// to another thread still pinned there, or mark it free.
  void vacate(int cpu, int denseId);
  [[nodiscard]] HostThread* threadOf(int denseId);
  void pruneDeadThreads();
  void adoptNewThreads();
  [[nodiscard]] int leastLoadedCpuIndex() const;
  [[nodiscard]] sim::QuantumSample sampleCounters(double periodSeconds);

  HostConfig config_;
  PinFn pin_;
  core::DikeScheduler scheduler_;

  std::vector<int> cpus_;           // schedulable cpus, dense order
  std::vector<int> cpuSocket_;      // socket per cpus_ index
  std::vector<int> occupant_;       // dense thread id per cpus_ index, -1 free
  std::map<pid_t, HostThread> threads_;
  /// Managed thread by dense id (nullptr once pruned); map nodes are
  /// stable, so the pointers stay valid until their thread is erased.
  std::vector<HostThread*> byDenseId_;
  util::Tick now_ = 0;
  bool perfActive_ = false;
  bool initialized_ = false;
  std::chrono::steady_clock::time_point lastSample_{};
};

}  // namespace dike::oslinux
