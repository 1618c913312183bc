// Parallel experiment execution on the process-wide util::TaskPool.
//
// Every RunSpec owns its Machine and RNG seed, so runs are share-nothing
// and the fan-out is embarrassingly parallel; results land at the index of
// their spec, so the output is deterministic and independent of the worker
// count (the pool-determinism test in tests/exp pins this down).
//
// The sweep no longer spins up a private pool: it fans out through
// util::TaskPool::shared(), the same pool the clustered scheduler's decide
// phase uses, so sweep-level and decide-level parallelism share one
// DIKE_JOBS budget and nesting the two cannot oversubscribe the machine.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "exp/runner.hpp"
#include "util/task_pool.hpp"

namespace dike::exp {

/// Run fn(0..count-1) across `jobs` workers (<= 0 picks util::defaultJobs();
/// 1 runs inline on the calling thread). Blocks until every index has run.
/// If any invocation throws, the first exception (by index order) is
/// rethrown after all workers drain. Each invocation is wrapped in the
/// exp-layer task telemetry (exp.pool.task_time / exp.pool.tasks and the
/// live SweepJobSeconds feed) before it reaches the shared pool.
void parallelFor(std::size_t count, const std::function<void(std::size_t)>& fn,
                 int jobs = 0);

/// Run every spec via runWorkload(), in parallel, returning results in spec
/// order regardless of completion order or worker count.
[[nodiscard]] std::vector<RunMetrics> runWorkloadsParallel(
    std::span<const RunSpec> specs, int jobs = 0);

/// Fingerprint of a spec list (FNV-1a over the canonical JSON encoding).
/// A sweep state file carries this so a resume against a different spec
/// list is rejected instead of silently mixing results.
[[nodiscard]] std::uint64_t sweepFingerprint(std::span<const RunSpec> specs);

/// Resumable variant: after every completed run the state file is
/// atomically rewritten with that run's metrics, so a killed sweep rerun
/// with the same arguments skips finished specs and recomputes only the
/// rest. The state file is deleted once every spec has completed. Throws
/// std::runtime_error if the state file exists but was written for a
/// different spec list (fingerprint mismatch) or cannot be parsed.
[[nodiscard]] std::vector<RunMetrics> runWorkloadsParallel(
    std::span<const RunSpec> specs, int jobs, const std::string& stateFile);

}  // namespace dike::exp
