// Shared helpers for the benchmark harness binaries.
//
// Every bench binary prints the paper-shaped table/series for its figure or
// table on stdout, then runs its registered google-benchmark timings. The
// --scale flag shortens instruction budgets for quick runs (0.5 default
// keeps runs representative while finishing a full sweep in seconds);
// --seed controls placement and measurement noise.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/runner.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dike::bench {

struct BenchOptions {
  double scale = 0.5;
  std::uint64_t seed = 42;
  int reps = 0;  ///< independent seeds per data point; 0 = bench default
  bool runGoogleBenchmark = true;
  std::string csvPath;  ///< optional: also dump rows as CSV
  /// Worker threads for the sweep fan-out; <= 0 picks util::defaultJobs()
  /// (DIKE_JOBS env or hardware concurrency), 1 forces serial execution.
  int jobs = 0;
};

/// Resolve the reps count against a per-bench default.
inline int repsOr(const BenchOptions& opts, int fallback) {
  return opts.reps > 0 ? opts.reps : fallback;
}

/// Read the shared flags; a bench that reads more names them in
/// `extraFlags`. Before anything runs, --help prints the usage and exits 0,
/// and an unknown flag prints it to stderr and exits 2.
inline BenchOptions parseOptions(
    int argc, char** argv,
    std::initializer_list<std::string_view> extraFlags = {}) {
  const util::CliArgs args{argc, argv};
  std::vector<std::string_view> known{"scale", "seed", "reps", "gbench",
                                      "csv",   "jobs", "help"};
  std::string usage = "usage: ";
  usage += argv[0];
  usage += " [--scale=X] [--seed=N] [--reps=N] [--jobs=N]"
           " [--gbench=true|false] [--csv=PATH]";
  for (const std::string_view flag : extraFlags) {
    known.push_back(flag);
    usage.append(" [--").append(flag).append("=V]");
  }
  if (args.has("help")) {
    std::printf("%s\n", usage.c_str());
    std::exit(0);
  }
  if (const auto flag = args.firstUnknown(known)) {
    std::fprintf(stderr, "unknown flag --%s\n%s\n", flag->c_str(),
                 usage.c_str());
    std::exit(2);
  }
  BenchOptions opts;
  opts.scale = args.getDouble("scale", 0.5);
  opts.seed = static_cast<std::uint64_t>(args.getInt64("seed", 42));
  opts.reps = args.getInt("reps", 0);
  opts.runGoogleBenchmark = args.getBool("gbench", true);
  opts.csvPath = args.getOr("csv", "");
  opts.jobs = args.getInt("jobs", 0);
  return opts;
}

/// Results of one workload under every scheduler, CFS first.
struct WorkloadRuns {
  exp::RunMetrics cfs;
  std::map<exp::SchedulerKind, exp::RunMetrics> byKind;
};

/// Run one workload under the given schedulers (always includes CFS as the
/// baseline), fanning the independent runs across opts.jobs workers.
inline WorkloadRuns runWorkloadAllSchedulers(
    int workloadId, const BenchOptions& opts,
    const std::vector<exp::SchedulerKind>& kinds = exp::allSchedulerKinds()) {
  exp::RunSpec spec;
  spec.workloadId = workloadId;
  spec.scale = opts.scale;
  spec.seed = opts.seed;

  std::vector<exp::RunSpec> specs;
  spec.kind = exp::SchedulerKind::Cfs;
  specs.push_back(spec);
  for (const exp::SchedulerKind kind : kinds) {
    if (kind == exp::SchedulerKind::Cfs) continue;
    spec.kind = kind;
    specs.push_back(spec);
  }

  const std::vector<exp::RunMetrics> results =
      exp::runWorkloadsParallel(specs, opts.jobs);

  WorkloadRuns runs;
  runs.cfs = results.front();
  for (std::size_t i = 0; i < specs.size(); ++i)
    runs.byKind[specs[i].kind] = results[i];
  return runs;
}

/// Run google-benchmark with only the program name (our flags are already
/// consumed by parseOptions; they would confuse benchmark::Initialize).
inline void runRegisteredBenchmarks(const char* argv0) {
  int argc = 1;
  char* argv[] = {const_cast<char*>(argv0), nullptr};
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
}

/// Common micro-benchmark: one full simulated run of a workload under a
/// scheduler, so the harness also reports wall-clock cost per experiment.
inline void benchmarkWorkloadRun(benchmark::State& state,
                                 exp::SchedulerKind kind, int workloadId,
                                 double scale, std::uint64_t seed) {
  for (auto _ : state) {
    exp::RunSpec spec;
    spec.workloadId = workloadId;
    spec.kind = kind;
    spec.scale = scale;
    spec.seed = seed;
    const exp::RunMetrics m = exp::runWorkload(spec);
    benchmark::DoNotOptimize(m.fairness);
  }
}

}  // namespace dike::bench
