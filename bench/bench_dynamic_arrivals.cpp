// Extension experiment (beyond the paper's tables): an open system where
// applications arrive mid-run — the scenario Section II gives as the very
// motivation for adaptive parameters ("new applications enter the system,
// or old applications exit"). The base mix is wl8 (UC); two memory-hungry
// arrivals later flip the system towards UM, and adaptive Dike must
// re-learn placement each time.
#include "common.hpp"

#include "exp/runner.hpp"
#include "workload/workloads.hpp"

namespace {

using dike::bench::BenchOptions;
using dike::exp::Arrival;
using dike::exp::RunMetrics;
using dike::exp::SchedulerKind;

std::vector<Arrival> arrivalWave(double scale) {
  // Two waves: jacobi once the initial phases settle, stream_omp later.
  // Ticks assume scale ~0.5 runs (~20-40 s); the injector defers arrivals
  // gracefully if cores are still busy.
  return {
      Arrival{6'000, "jacobi", 8, scale},
      Arrival{14'000, "stream_omp", 8, scale},
  };
}

void runDynamicBench(const BenchOptions& opts) {
  std::printf(
      "=== Extension: open system with mid-run arrivals (base wl8 + jacobi "
      "@6s + stream @14s) ===\n");
  dike::util::TextTable table{{"scheduler", "fairness", "makespan(s)",
                               "swaps", "arrived-apps"}};
  double cfsMakespan = 0.0;
  for (const SchedulerKind kind :
       {SchedulerKind::Cfs, SchedulerKind::Dio, SchedulerKind::Dike,
        SchedulerKind::DikeAF, SchedulerKind::DikeAP}) {
    dike::exp::RunSpec spec;
    spec.workloadId = 8;
    spec.kind = kind;
    spec.scale = opts.scale;
    spec.seed = opts.seed;
    spec.arrivals = arrivalWave(opts.scale);
    const RunMetrics m = dike::exp::runWorkload(spec);
    if (kind == SchedulerKind::Cfs)
      cfsMakespan = dike::util::ticksToSeconds(m.makespan);
    int arrived = 0;
    for (const dike::exp::ProcessResult& p : m.processes)
      if (p.processId >= 5) ++arrived;
    table.newRow()
        .cell(m.scheduler)
        .cell(m.fairness, 3)
        .cell(dike::util::ticksToSeconds(m.makespan), 1)
        .cell(m.swaps)
        .cell(arrived);
  }
  table.print();
  std::printf(
      "\n(CFS makespan %.1fs.) Expected shape: the contention-aware\n"
      "policies keep their fairness lead through both arrival waves; the\n"
      "adaptive variants re-tune as the inferred workload class flips from\n"
      "UC towards UM.\n",
      cfsMakespan);
}

void BM_DynamicRun(benchmark::State& state) {
  for (auto _ : state) {
    dike::exp::RunSpec spec;
    spec.workloadId = 8;
    spec.kind = SchedulerKind::Dike;
    spec.scale = 0.25;
    spec.arrivals = arrivalWave(0.25);
    const RunMetrics m = dike::exp::runWorkload(spec);
    benchmark::DoNotOptimize(m.fairness);
  }
}
BENCHMARK(BM_DynamicRun)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = dike::bench::parseOptions(argc, argv);
  runDynamicBench(opts);
  if (opts.runGoogleBenchmark) dike::bench::runRegisteredBenchmarks(argv[0]);
  return 0;
}
