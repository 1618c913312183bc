// Extension experiment: heterogeneity appearing and moving at runtime.
// The machine starts homogeneous (both sockets at 2.33 GHz); at 8 s socket
// 1 is throttled to 1.21 GHz (the paper's testbed configuration appears
// mid-run), and at 20 s the throttle *swaps sockets*. A scheduler whose
// core-capability estimate is a live measurement (Dike's CoreBW) must
// follow; static placements and heterogeneity-unaware policies cannot.
#include "common.hpp"

#include "exp/runner.hpp"
#include "workload/workloads.hpp"

namespace {

using dike::bench::BenchOptions;
using dike::exp::FrequencyChange;
using dike::exp::RunMetrics;
using dike::exp::SchedulerKind;

std::vector<FrequencyChange> script() {
  return {
      FrequencyChange{5'000, 1, 1.21},   // socket 1 throttled
      FrequencyChange{13'000, 1, 2.33},  // ...restored
      FrequencyChange{13'000, 0, 1.21},  // ...and socket 0 throttled instead
  };
}

void runDvfsBench(const BenchOptions& opts) {
  std::printf(
      "=== Extension: DVFS-induced dynamic heterogeneity (wl2; throttle "
      "socket 1 @5s, swap throttle to socket 0 @13s) ===\n");
  dike::util::TextTable table{
      {"scheduler", "fairness", "makespan(s)", "swaps"}};
  for (const SchedulerKind kind :
       {SchedulerKind::Cfs, SchedulerKind::Dio, SchedulerKind::Dike,
        SchedulerKind::DikeAF}) {
    dike::exp::RunSpec spec;
    spec.workloadId = 2;
    spec.kind = kind;
    spec.scale = opts.scale;
    spec.seed = opts.seed;
    spec.heterogeneous = false;  // homogeneous until the script throttles
    spec.dvfs = script();
    const RunMetrics m = dike::exp::runWorkload(spec);
    table.newRow()
        .cell(m.scheduler)
        .cell(m.fairness, 3)
        .cell(dike::util::ticksToSeconds(m.makespan), 1)
        .cell(m.swaps);
  }
  table.print();
  std::printf(
      "\nExpected shape: Dike re-learns which cores are high-bandwidth\n"
      "after each frequency change (CoreBW is measured, not configured) and\n"
      "keeps its fairness lead; CFS has no recourse.\n");
}

void BM_DvfsRun(benchmark::State& state) {
  for (auto _ : state) {
    dike::exp::RunSpec spec;
    spec.workloadId = 2;
    spec.kind = SchedulerKind::Dike;
    spec.scale = 0.25;
    spec.heterogeneous = false;
    spec.dvfs = script();
    const RunMetrics m = dike::exp::runWorkload(spec);
    benchmark::DoNotOptimize(m.fairness);
  }
}
BENCHMARK(BM_DvfsRun)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = dike::bench::parseOptions(argc, argv);
  runDvfsBench(opts);
  if (opts.runGoogleBenchmark) dike::bench::runRegisteredBenchmarks(argv[0]);
  return 0;
}
