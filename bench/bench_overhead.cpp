// Scheduler-overhead microbenchmarks: per-quantum wall-clock cost of every
// Dike pipeline stage and of the simulation substrate. Supports the paper's
// "lightweight, closed-loop" claim — the whole decision pipeline for 40
// threads must be microseconds, negligible against a 100 ms quantum.
#include "common.hpp"

#include "core/decider.hpp"
#include "core/dike_scheduler.hpp"
#include "core/observer.hpp"
#include "core/optimizer.hpp"
#include "core/predictor.hpp"
#include "core/selector.hpp"
#include "sched/placement.hpp"
#include "sim/machine.hpp"
#include "workload/workloads.hpp"

namespace {

using dike::core::Observation;
using dike::core::Observer;

/// A machine mid-run with the full wl1 thread population, advanced far
/// enough that counters carry realistic values.
struct Fixture {
  Fixture() {
    dike::sim::MachineConfig cfg;
    cfg.seed = 42;
    machine = std::make_unique<dike::sim::Machine>(
        dike::sim::MachineTopology::paperTestbed(), cfg);
    dike::wl::addWorkloadProcesses(*machine, dike::wl::workload(1), 0.5);
    dike::sched::placeRandom(*machine, 42);
    for (int i = 0; i < 500; ++i) machine->step();
    sample = machine->sampleAndReset();
  }

  [[nodiscard]] Observation observation() const {
    dike::sched::MachineBackend backend{*machine};
    Observation obs;
    dike::core::makeObservationInto({backend, sample}, obs);
    return obs;
  }

  std::unique_ptr<dike::sim::Machine> machine;
  dike::sim::QuantumSample sample;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_MachineStep(benchmark::State& state) {
  Fixture local;
  for (auto _ : state) {
    local.machine->step();
    benchmark::DoNotOptimize(local.machine->now());
  }
}
BENCHMARK(BM_MachineStep)->Unit(benchmark::kMicrosecond);

void BM_Arbitrate(benchmark::State& state) {
  std::vector<dike::sim::MemoryDemand> demands;
  dike::util::Rng rng{7};
  for (int i = 0; i < 40; ++i)
    demands.push_back(dike::sim::MemoryDemand{
        static_cast<int>(rng.between(0, 1)), rng.uniform(0.0, 6e4)});
  const dike::sim::MemoryParams params;
  for (auto _ : state) {
    auto served = dike::sim::arbitrate(demands, params, 2, 1e-3);
    benchmark::DoNotOptimize(served.data());
  }
}
BENCHMARK(BM_Arbitrate)->Unit(benchmark::kMicrosecond);

void BM_ObserverObserve(benchmark::State& state) {
  const Observation obs = fixture().observation();
  Observer observer;
  for (auto _ : state) {
    observer.observe(obs);
    benchmark::DoNotOptimize(observer.systemUnfairness());
  }
}
BENCHMARK(BM_ObserverObserve)->Unit(benchmark::kMicrosecond);

void BM_SelectorFormPairs(benchmark::State& state) {
  const Observation obs = fixture().observation();
  Observer observer;
  observer.observe(obs);
  const dike::core::Selector selector{
      dike::core::SelectorConfig{.fairnessThreshold = 0.0}};
  dike::core::SelectorScratch scratch;
  std::vector<dike::core::ThreadPair> pairs;
  for (auto _ : state) {
    selector.formPairsInto(observer, 16, scratch, pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
}
BENCHMARK(BM_SelectorFormPairs)->Unit(benchmark::kMicrosecond);

void BM_PredictorPredict(benchmark::State& state) {
  const Observation obs = fixture().observation();
  Observer observer;
  observer.observe(obs);
  const dike::core::Selector selector{
      dike::core::SelectorConfig{.fairnessThreshold = 0.0}};
  dike::core::SelectorScratch scratch;
  std::vector<dike::core::ThreadPair> pairs;
  selector.formPairsInto(observer, 16, scratch, pairs);
  if (pairs.empty()) {
    state.SkipWithError("no pairs to predict");
    return;
  }
  const dike::core::Predictor predictor;
  for (auto _ : state) {
    for (const auto& pair : pairs) {
      auto p = predictor.predict(observer, pair, 500);
      benchmark::DoNotOptimize(p.totalProfit);
    }
  }
}
BENCHMARK(BM_PredictorPredict)->Unit(benchmark::kMicrosecond);

void BM_OptimizerStep(benchmark::State& state) {
  const dike::core::Optimizer optimizer;
  dike::core::DikeParams params = dike::core::defaultParams();
  for (auto _ : state) {
    params = optimizer.optimize(params,
                                dike::core::WorkloadType::UnbalancedCompute,
                                dike::core::AdaptationGoal::Fairness);
    benchmark::DoNotOptimize(params.swapSize);
  }
}
BENCHMARK(BM_OptimizerStep)->Unit(benchmark::kNanosecond);

void BM_FullQuantumDecision(benchmark::State& state) {
  // End-to-end cost of one DikeScheduler quantum on a live machine,
  // including counter sampling (the dominant syscall cost on real systems).
  Fixture local;
  dike::core::DikeScheduler scheduler;
  dike::sched::SchedulerAdapter adapter{scheduler};
  for (auto _ : state) {
    adapter.onQuantum(*local.machine);
    benchmark::DoNotOptimize(scheduler.lastQuantumStats().swapsExecuted);
    state.PauseTiming();
    for (int i = 0; i < 5 && !local.machine->allFinished(); ++i)
      local.machine->step();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_FullQuantumDecision)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(2000);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Scheduler overhead microbenchmarks ===\n"
      "The paper's claim: Dike's closed-loop pipeline is lightweight —\n"
      "decision cost must be negligible against a 100-1000 ms quantum.\n\n");
  const dike::bench::BenchOptions opts =
      dike::bench::parseOptions(argc, argv);
  (void)opts;
  dike::bench::runRegisteredBenchmarks(argv[0]);
  return 0;
}
