// The lockstep harness (DESIGN.md §6): both runs of a contract are built
// through exp::RunSession and stepped together. After every quantum the
// checkpoint payloads are compared token by token, outside the contract's
// excluded paths, with the counter sample each scheduler saw; at the end,
// the report JSON, the NDJSON quantum stream and the events CSV. A failure
// names the quantum and the first diverging token path or field. The specs
// the contracts and other tests share live here too.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/archive.hpp"
#include "exp/runner.hpp"
#include "fault/fault_plan.hpp"
#include "sim/machine.hpp"

namespace dike::test {

/// Table-II workload 3 at scale 0.1 on the paper testbed.
[[nodiscard]] exp::RunSpec smallSpec(exp::SchedulerKind kind,
                                     std::uint64_t seed = 42);

/// Every fault class armed from tick 200 until the run ends.
[[nodiscard]] fault::FaultPlan noisyPlan(std::uint64_t seed = 99);

/// smallSpec(DikeAF) plus two arrivals and a socket throttle, mid-run.
[[nodiscard]] exp::RunSpec scriptedSpec();

/// `sockets` sockets of 4 cores (alternating fast and slow), filled by two
/// 8-thread apps (stream_omp, hotspot) at scale 0.4, under Dike with
/// `clusters` clusters (0 = flat).
[[nodiscard]] exp::RunSpec clusteredSpec(int clusters, int sockets = 4,
                                         std::uint64_t seed = 42);

/// The placed, unstepped machine RunSession builds for `spec`.
[[nodiscard]] sim::Machine machineFor(const exp::RunSpec& spec);

/// `sockets` sockets x 16 cores x 2 SMT (alternating fast and slow), 4
/// tenants of 8 threads per socket, under Dike with one cluster per socket.
/// With `scaledMemory` the controller has a socket's worth of bandwidth per
/// socket and Dike acts; with the default memory system every thread is
/// throttled and Dike never swaps.
[[nodiscard]] exp::RunSpec tenantsSpec(bool scaledMemory, int sockets = 8);

/// The checkpoint bytes `state.saveState` writes.
template <class T>
[[nodiscard]] std::string savedBytes(const T& state) {
  ckpt::BinWriter w;
  state.saveState(w);
  return w.take();
}

/// The bytes of the file at `path`; empty when it cannot be read.
[[nodiscard]] std::string slurp(const std::string& path);

inline constexpr int kGeneratedSpecs = 16;

/// Generated case `index` < kGeneratedSpecs. Kind, topology, cluster count,
/// faults and script follow the index, so the cases cover each; workload,
/// seeds, quantum, swap size and leap switch come from an RNG it seeds.
[[nodiscard]] exp::RunSpec generatedSpec(int index);

/// Checkpoint token paths a contract lets differ.
using Exclusions = std::vector<std::string>;

/// Tick leaping records its switch in the run config and counts how ticks
/// were advanced; nothing else may differ.
inline const Exclusions kLeapExclusions{"run/config",
                                        "run/machine/computedTicks",
                                        "run/machine/leapedTicks"};

/// The first token of payloads `a` and `b` that differs outside `excluded`,
/// as "path: valueA vs valueB"; nullopt when they agree.
[[nodiscard]] std::optional<std::string> payloadDivergence(
    std::string_view a, std::string_view b, const Exclusions& excluded = {});

/// The first field of two counter samples that differs (doubles compared
/// bit for bit); nullopt when they agree.
[[nodiscard]] std::optional<std::string> sampleDivergence(
    const sim::QuantumSample& a, const sim::QuantumSample& b);

/// What the two runs did, for a row's checks that it was not vacuous.
struct LockstepSummary {
  sim::StepStats statsA;
  sim::StepStats statsB;
  std::int64_t swaps = 0;  ///< run a's
  std::string eventsCsv;   ///< run a's
};

/// Run `a` and `b` in lockstep to the end and require every comparison to
/// agree. The harness replaces the specs' telemetry outputs with its own.
LockstepSummary expectLockstep(const exp::RunSpec& a, const exp::RunSpec& b,
                               const Exclusions& excluded = {});

/// Step `spec` k quanta, checkpoint it to a file and restore it, with the
/// plan phase's worker budget replaced by `restoreDecideJobs` when >= 0.
/// The restored run must match the uninterrupted one at the restore point
/// and in lockstep to the end, with the same resumed quantum-stream records
/// and report; and that report must match a run never checkpointed.
void expectResumeLockstep(const exp::RunSpec& spec, std::int64_t k,
                          int restoreDecideJobs = -1);

}  // namespace dike::test
