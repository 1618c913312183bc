// Thin RAII-free wrappers over sched_setaffinity / sched_getaffinity —
// the enforcement mechanism of the paper's Migrator on a live system
// ("the migrator simply manipulates thread-to-core affinity mappings").
// Errors are reported as std::error_code; no exceptions cross the syscall
// boundary.
#pragma once

#include <sys/types.h>

#include <span>
#include <system_error>
#include <vector>

namespace dike::oslinux {

/// Pin `tid` (0 = calling thread) to exactly the given CPUs.
[[nodiscard]] std::error_code setAffinity(pid_t tid, std::span<const int> cpus);

/// Pin `tid` to a single CPU.
[[nodiscard]] std::error_code pinToCpu(pid_t tid, int cpu);

/// Read the affinity mask of `tid` into `cpus` (sorted ascending).
[[nodiscard]] std::error_code getAffinity(pid_t tid, std::vector<int>& cpus);

}  // namespace dike::oslinux
