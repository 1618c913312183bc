#include "oslinux/dike_host.hpp"

#include <unistd.h>

#include <algorithm>
#include <thread>
#include <utility>

#include "oslinux/procstat.hpp"
#include "telemetry/registry.hpp"
#include "util/log.hpp"
#include "util/types.hpp"

namespace dike::oslinux {

namespace {

double clockTicksPerSecond() {
  const long hz = ::sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(hz) : 100.0;
}

/// Open the LLC counter pair for one thread, logging an actionable message
/// (counter name, tid, paranoid-level hint) on the first failure.
void openThreadCounters(HostThread& t) {
  std::error_code ec;
  t.llcMisses = PerfCounter::open(PerfEventKind::LlcMisses, t.tid, ec);
  if (ec) {
    util::logDebug("dike-host: ",
                   describePerfError(PerfEventKind::LlcMisses, t.tid, -1, ec));
    return;
  }
  t.llcRefs = PerfCounter::open(PerfEventKind::LlcReferences, t.tid, ec);
  if (ec) {
    util::logDebug(
        "dike-host: ",
        describePerfError(PerfEventKind::LlcReferences, t.tid, -1, ec));
    t.llcMisses.reset();
  }
}

}  // namespace

DikeHost::DikeHost(HostConfig config, PinFn pin)
    : config_(std::move(config)),
      pin_(std::move(pin)),
      scheduler_(config_.dike) {
  if (config_.dike.cluster.clusters > 1)
    throw std::invalid_argument{
        "DikeHost runs one Dike instance: dike.cluster.clusters must be <= 1"};
}

HostThread& DikeHost::manage(pid_t pid, pid_t tid) {
  const auto [it, added] = threads_.try_emplace(tid);
  HostThread& t = it->second;
  if (!added) return t;
  t.pid = pid;
  t.tid = tid;
  t.denseId = util::isize(byDenseId_);
  byDenseId_.push_back(&t);
  if (config_.usePerf) {
    openThreadCounters(t);
    if (t.llcMisses && t.llcRefs) perfActive_ = true;
  }
  return t;
}

std::error_code DikeHost::addProcess(pid_t pid) {
  const std::vector<pid_t> tids = listThreads(pid);
  if (tids.empty())
    return std::make_error_code(std::errc::no_such_process);
  for (const pid_t tid : tids) (void)manage(pid, tid);
  return {};
}

std::error_code DikeHost::initialize() {
  if (threads_.empty())
    return std::make_error_code(std::errc::invalid_argument);

  // Discover schedulable cpus and their sockets.
  cpus_ = config_.cpus;
  cpuSocket_.clear();
  const auto topology = readHostTopology();
  if (cpus_.empty()) {
    if (topology) {
      for (const HostCpu& c : topology->cpus) cpus_.push_back(c.id);
    } else {
      const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
      for (int c = 0; c < std::max(1L, n); ++c) cpus_.push_back(c);
    }
  }
  for (const int cpu : cpus_) {
    int socket = 0;
    if (topology) {
      for (const HostCpu& c : topology->cpus)
        if (c.id == cpu) socket = std::max(0, c.package);
    }
    cpuSocket_.push_back(socket);
  }
  occupant_.assign(cpus_.size(), -1);

  // Initial placement: round-robin pinning (the CFS-agnostic starting
  // point; Dike corrects it from here).
  int next = 0;
  for (auto& [tid, thread] : threads_) {
    if (const std::error_code ec = place(thread, next % coreCount()))
      return ec;
    ++next;
  }
  lastSample_ = std::chrono::steady_clock::now();
  initialized_ = true;
  return {};
}

std::error_code DikeHost::place(HostThread& t, int cpu) {
  if (const std::error_code ec = pin_(t.tid, cpus_[idx(cpu)])) return ec;
  t.cpu = cpu;
  occupant_[idx(cpu)] = t.denseId;
  return {};
}

void DikeHost::vacate(int cpu, int denseId) {
  if (cpu < 0) return;
  int& occupant = occupant_[idx(cpu)];
  if (occupant != denseId) return;
  occupant = -1;
  for (const auto& [tid, t] : threads_)
    if (t.cpu == cpu) occupant = t.denseId;
}

HostThread* DikeHost::threadOf(int denseId) {
  if (denseId < 0 || denseId >= util::isize(byDenseId_)) return nullptr;
  return byDenseId_[idx(denseId)];
}

void DikeHost::adoptNewThreads() {
  // Processes may spawn workers after registration (OpenMP teams start at
  // the first parallel region). Adopt them and pin to the least-loaded cpu.
  std::vector<pid_t> pids;
  for (const auto& [tid, t] : threads_)
    if (std::find(pids.begin(), pids.end(), t.pid) == pids.end())
      pids.push_back(t.pid);
  for (const pid_t pid : pids) {
    for (const pid_t tid : listThreads(pid)) {
      if (threads_.count(tid) != 0) continue;
      const int cpu = leastLoadedCpuIndex();
      (void)place(manage(pid, tid), cpu);
    }
  }
}

int DikeHost::leastLoadedCpuIndex() const {
  std::vector<int> load(cpus_.size(), 0);
  for (const auto& [tid, t] : threads_)
    if (t.cpu >= 0) ++load[idx(t.cpu)];
  return static_cast<int>(std::min_element(load.begin(), load.end()) -
                          load.begin());
}

void DikeHost::pruneDeadThreads() {
  for (auto it = threads_.begin(); it != threads_.end();) {
    if (readProcStat(it->second.pid, it->first).has_value()) {
      ++it;
      continue;
    }
    const int cpu = it->second.cpu;
    const int denseId = it->second.denseId;
    byDenseId_[idx(denseId)] = nullptr;
    it = threads_.erase(it);
    vacate(cpu, denseId);
  }
}

sim::QuantumSample DikeHost::sampleCounters(double periodSeconds) {
  sim::QuantumSample sample;
  sample.periodTicks =
      std::max<util::Tick>(1, static_cast<util::Tick>(periodSeconds * 1e3));
  sample.coreAchievedBw.assign(cpus_.size(), 0.0);
  const double tickHz = clockTicksPerSecond();
  for (auto& [tid, t] : threads_) {
    const auto stat = readProcStat(t.pid, tid);
    if (!stat) continue;

    sim::ThreadSample s;
    s.threadId = t.denseId;
    s.processId = static_cast<int>(t.pid);
    s.coreId = t.cpu;

    const unsigned long long utime = stat->utimeTicks + stat->stimeTicks;
    const double utimeRate =
        t.haveBaseline && utime >= t.lastUtime
            ? static_cast<double>(utime - t.lastUtime) / tickHz / periodSeconds
            : 0.0;
    t.lastUtime = utime;

    bool perfOk = false;
    if (t.llcMisses && t.llcRefs) {
      const auto misses = t.llcMisses->readDelta();
      const auto refs = t.llcRefs->readDelta();
      if (misses && refs) {
        t.perfReadFailures = 0;
        if (t.haveBaseline) {
          s.accessRate = static_cast<double>(*misses) / periodSeconds;
          s.llcMissRatio =
              *refs > 0 ? std::clamp(static_cast<double>(*misses) /
                                         static_cast<double>(*refs),
                                     0.0, 1.0)
                        : 0.0;
          perfOk = true;
        }
      } else if (++t.perfReadFailures >= config_.perfReadFailureLimit) {
        // Estimate-only degradation: the counters are wedged (fd revoked,
        // PMU contention, thread in teardown) — drop them for good rather
        // than burning a failed read every quantum.
        t.llcMisses.reset();
        t.llcRefs.reset();
        DIKE_COUNTER("oslinux.perf.degraded");
        util::logDebug("dike-host: tid ", tid, " degraded to utime proxy after ",
                       t.perfReadFailures, " failed counter reads");
      }
    }
    if (!perfOk) {
      // Proxy mode: cpu-time progress as the rate signal; classify as
      // compute so Dike equalises progress rather than chasing bandwidth.
      s.accessRate = utimeRate * 1e9;
      s.llcMissRatio = 0.05;
    }
    s.accesses = s.accessRate * periodSeconds;
    t.haveBaseline = true;

    if (t.cpu >= 0)
      sample.coreAchievedBw[idx(t.cpu)] += s.accessRate;
    sample.threads.push_back(s);
  }
  return sample;
}

HostQuantumReport DikeHost::runQuantum() {
  HostQuantumReport report;
  report.perfActive = perfActive_;
  if (!initialized_) return report;

  pruneDeadThreads();
  adoptNewThreads();
  report.liveThreads = managedThreadCount();
  if (threads_.empty()) return report;

  const auto wallNow = std::chrono::steady_clock::now();
  const double periodSeconds = std::max(
      1e-3, std::chrono::duration<double>(wallNow - lastSample_).count());
  lastSample_ = wallNow;

  const sim::QuantumSample sample = sampleCounters(periodSeconds);
  sched::SchedulerView view{*this, sample};
  scheduler_.onQuantum(view);
  now_ += scheduler_.quantumTicks();

  const core::QuantumDecisionStats& stats = scheduler_.lastQuantumStats();
  report.unfairness = stats.unfairness;
  report.swapsExecuted = stats.swapsExecuted;
  return report;
}

void DikeHost::runFor(std::chrono::milliseconds duration) {
  const auto deadline = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < deadline && !threads_.empty()) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(scheduler_.params().quantaLengthMs));
    (void)runQuantum();
  }
}

bool DikeHost::swap(int threadA, int threadB) {
  HostThread* a = threadOf(threadA);
  HostThread* b = threadOf(threadB);
  if (a == nullptr || b == nullptr || a->cpu < 0 || b->cpu < 0) return false;
  const int cpuA = a->cpu;
  const int occupantB = occupant_[idx(b->cpu)];
  if (place(*a, b->cpu)) return false;
  if (place(*b, cpuA)) {
    // Roll the first pin back on partial failure.
    (void)pin_(a->tid, cpus_[idx(cpuA)]);
    occupant_[idx(a->cpu)] = occupantB;
    a->cpu = cpuA;
    return false;
  }
  util::logDebug("dike-host: swapped tid ", a->tid, " <-> ", b->tid);
  return true;
}

bool DikeHost::migrateTo(int threadId, int coreId) {
  HostThread* t = threadOf(threadId);
  if (t == nullptr) return false;
  const int from = t->cpu;
  if (place(*t, coreId)) return false;
  vacate(from, threadId);
  return true;
}

}  // namespace dike::oslinux
