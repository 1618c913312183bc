// The benchmark's three workloads. Each one turns the benchmark seed into
// RunSpecs (the only thing the program receives) and runs "passes" over
// them: an untraced pass through the program's own entry points, or a
// traced pass through replicas built from the same public calls with
// timing probes around each layer boundary.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.hpp"

namespace perfbench {

/// One operation of a pass: a grid run, the tenant run, or one supervised
/// run including its resume.
struct OpResult {
  std::string digest;  ///< FNV-1a 64 (hex) of the op's deterministic output
  std::string error;   ///< empty = ok; else the exception or broken invariant
};

/// Samples a traced pass gathers besides its spans.
struct TraceCounts {
  std::int64_t swaps = 0;             ///< at the Scheduler boundary
  std::int64_t migrations = 0;
  std::int64_t dikeQuanta = 0;        ///< DecisionTotals, Dike runs only
  std::int64_t actedQuanta = 0;
  std::int64_t pairsConsidered = 0;
  std::int64_t swapsExecuted = 0;
  std::int64_t streamBytes = 0;       ///< quantum-stream bytes appended
  std::int64_t checkpointBytes = 0;   ///< checkpoint payload bytes written
  std::int64_t checkpointWrites = 0;
  std::int64_t restores = 0;
};

struct PassResult {
  bool traced = false;
  int threads = 1;          ///< busy threads the pass keeps running
  double setupS = 0.0;      ///< stack construction (machines, schedulers)
  double wallS = 0.0;       ///< the whole pass, host seconds
  std::int64_t ticks = 0;   ///< simulated ticks completed (re-steps excluded)
  /// Host ms per default-length quantum (500 simulated ms), one sample per
  /// timed unit: a stepQuantum call (tenants_4096) or a run (the others).
  std::vector<double> quantumMs;
  std::vector<OpResult> ops;
  // Traced passes only.
  std::vector<std::vector<Span>> spanLogs;  ///< [0] = the pass's own log
  TraceCounts counts;
  std::vector<double> runS;  ///< per-run wall (the pool's tasks)
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual PassResult run(bool traced) = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Build a workload from the benchmark seed. `workDir` is a scratch
/// directory for the files a workload writes. Throws std::invalid_argument
/// for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                                     std::uint64_t seed,
                                                     const std::string& workDir);

}  // namespace perfbench
