#include "exp/runner.hpp"

#include <memory>
#include <stdexcept>

#include "core/clustered_scheduler.hpp"
#include "core/dike_scheduler.hpp"
#include "exp/analysis.hpp"
#include "exp/replay.hpp"
#include "sched/cfs.hpp"
#include "sched/dio.hpp"
#include "sched/extra_baselines.hpp"
#include "sched/suspension.hpp"
#include "sched/placement.hpp"
#include "util/stats.hpp"

namespace dike::exp {

std::string_view toString(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::Cfs: return "cfs";
    case SchedulerKind::Dio: return "dio";
    case SchedulerKind::Dike: return "dike";
    case SchedulerKind::DikeAF: return "dike-af";
    case SchedulerKind::DikeAP: return "dike-ap";
    case SchedulerKind::Random: return "random";
    case SchedulerKind::StaticOracle: return "static-oracle";
    case SchedulerKind::Suspension: return "suspend";
  }
  return "?";
}

const std::vector<SchedulerKind>& allSchedulerKinds() {
  static const std::vector<SchedulerKind> kinds{
      SchedulerKind::Cfs, SchedulerKind::Dio, SchedulerKind::Dike,
      SchedulerKind::DikeAF, SchedulerKind::DikeAP};
  return kinds;
}

std::unique_ptr<sched::Scheduler> makeScheduler(const RunSpec& spec) {
  const util::Tick quantum = util::millisToTicks(spec.params.quantaLengthMs);
  switch (spec.kind) {
    case SchedulerKind::Cfs:
    case SchedulerKind::StaticOracle:
      return std::make_unique<sched::CfsScheduler>(quantum);
    case SchedulerKind::Random:
      return std::make_unique<sched::RandomScheduler>(quantum, 4, spec.seed);
    case SchedulerKind::Suspension:
      return std::make_unique<sched::SuspensionScheduler>(quantum);
    case SchedulerKind::Dio:
      return std::make_unique<sched::DioScheduler>(quantum);
    case SchedulerKind::Dike:
    case SchedulerKind::DikeAF:
    case SchedulerKind::DikeAP: {
      core::DikeConfig cfg = spec.dikeConfig.value_or(core::DikeConfig{});
      cfg.params = spec.params;
      cfg.goal = spec.kind == SchedulerKind::Dike
                     ? core::AdaptationGoal::None
                     : (spec.kind == SchedulerKind::DikeAF
                            ? core::AdaptationGoal::Fairness
                            : core::AdaptationGoal::Performance);
      // One cluster is the flat policy: same name, decisions and
      // checkpoint bytes as clusters = 0.
      if (cfg.cluster.clusters >= 2)
        return std::make_unique<core::ClusteredDikeScheduler>(cfg);
      return std::make_unique<core::DikeScheduler>(cfg);
    }
  }
  throw std::logic_error{"unknown scheduler kind"};
}

sim::MachineTopology topologyForSpec(const RunSpec& spec) {
  if (!spec.topology.empty()) return sim::MachineTopology{spec.topology};
  return spec.heterogeneous ? sim::MachineTopology::paperTestbed()
                            : sim::MachineTopology::homogeneousTestbed();
}

RunMetrics collectRunMetrics(sim::Machine& machine,
                             const sim::RunOutcome& outcome,
                             const sched::Scheduler& scheduler) {
  RunMetrics m;
  m.scheduler = std::string{scheduler.name()};
  m.makespan = outcome.finishTick;
  m.timedOut = outcome.timedOut;
  m.stopped = outcome.stopped;
  m.swaps = machine.swapCount();
  m.migrations = machine.migrationCount();
  m.energyJoules = machine.energyJoules();
  if (!m.timedOut && !m.stopped) {
    m.fairness = fairnessEq4(machine);
    m.processes = processResults(machine);
  }

  if (const core::DikePolicy* dike = core::asDikePolicy(scheduler)) {
    m.decisions = dike->decisionTotals();
    const std::vector<double> perThread = dike->perThreadMeanErrors();
    if (!perThread.empty()) {
      m.hasPredictions = true;
      m.predErrMean = util::mean(perThread);
      m.predErrMin = util::minOf(perThread);
      m.predErrMax = util::maxOf(perThread);
      m.predTrace = dike->predictionTrace();
    }
  }
  return m;
}

RunMetrics runWorkload(const RunSpec& spec) {
  return RunSession{spec}.finish();
}

RunMetrics runStandalone(const std::string& benchmark, double scale,
                         std::uint64_t seed, bool heterogeneous, int threads) {
  sim::MachineConfig machineCfg;
  machineCfg.seed = seed;
  sim::Machine machine{heterogeneous ? sim::MachineTopology::paperTestbed()
                                     : sim::MachineTopology::homogeneousTestbed(),
                       machineCfg};
  const wl::BenchmarkSpec bench = wl::makeBenchmark(benchmark, scale);
  machine.addProcess(bench.name, bench.program, threads,
                     bench.memoryIntensive);
  sched::placeSpread(machine);

  sched::CfsScheduler scheduler{500};
  sched::SchedulerAdapter adapter{scheduler};
  const sim::RunOutcome outcome = sim::runMachine(machine, adapter);

  RunMetrics metrics = collectRunMetrics(machine, outcome, scheduler);
  metrics.workload = benchmark + "-standalone";
  return metrics;
}

}  // namespace dike::exp
