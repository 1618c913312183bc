#include "oslinux/affinity.hpp"

#include <sched.h>

#include <cerrno>

#include "oslinux/retry.hpp"

namespace dike::oslinux {

namespace {

std::error_code lastError() {
  return std::error_code{errno, std::generic_category()};
}

}  // namespace

std::error_code setAffinity(pid_t tid, std::span<const int> cpus) {
  if (cpus.empty())
    return std::make_error_code(std::errc::invalid_argument);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    if (cpu < 0 || cpu >= CPU_SETSIZE)
      return std::make_error_code(std::errc::invalid_argument);
    CPU_SET(static_cast<unsigned>(cpu), &set);
  }
  const auto ret =
      retrySyscall([&] { return sched_setaffinity(tid, sizeof set, &set); });
  if (ret != 0) return lastError();
  return {};
}

std::error_code pinToCpu(pid_t tid, int cpu) {
  const int cpus[1] = {cpu};
  return setAffinity(tid, cpus);
}

std::error_code getAffinity(pid_t tid, std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const auto ret =
      retrySyscall([&] { return sched_getaffinity(tid, sizeof set, &set); });
  if (ret != 0) return lastError();
  cpus.clear();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(static_cast<unsigned>(cpu), &set)) cpus.push_back(cpu);
  return {};
}

}  // namespace dike::oslinux
