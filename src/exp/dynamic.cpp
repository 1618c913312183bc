#include "exp/dynamic.hpp"

#include <algorithm>
#include <string>

#include "ckpt/archive.hpp"
#include "workload/benchmarks.hpp"

namespace dike::exp {

namespace {

/// Short-lived churn processes alternate a memory-bound and a compute-bound
/// model so arrivals perturb both halves of the machine.
constexpr const char* kChurnBenchmarks[2] = {"stream_omp", "srad"};

int addArrivalProcess(sim::Machine& machine, const Arrival& arrival) {
  const wl::BenchmarkSpec bench =
      wl::makeBenchmark(arrival.benchmark, arrival.scale);
  return machine.addProcess(bench.name, bench.program, arrival.threads,
                            bench.memoryIntensive);
}

}  // namespace

ArrivalInjector::ArrivalInjector(sim::QuantumPolicy& inner,
                                 std::vector<Arrival> schedule)
    : inner_(&inner), schedule_(std::move(schedule)) {
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.atTick < b.atTick;
                   });
}

util::Tick ArrivalInjector::quantumTicks() const {
  return inner_->quantumTicks();
}

void ArrivalInjector::onQuantum(sim::Machine& machine) {
  while (injected_ < static_cast<int>(schedule_.size())) {
    const Arrival& next = schedule_[static_cast<std::size_t>(injected_)];
    if (next.atTick > machine.now()) break;

    // First-fit onto free cores, like OS wakeup placement. If the arrival
    // does not fit, defer it (and everything behind it) to a later quantum.
    std::vector<int> freeCores;
    for (int c = 0; c < machine.topology().coreCount(); ++c)
      if (machine.coreOccupant(c) == -1) freeCores.push_back(c);
    if (static_cast<int>(freeCores.size()) < next.threads) break;

    const int processId = addArrivalProcess(machine, next);
    const auto& threadIds = machine.process(processId).threadIds;
    for (std::size_t i = 0; i < threadIds.size(); ++i)
      machine.placeThread(threadIds[i], freeCores[i]);
    ++injected_;
  }
  inner_->onQuantum(machine);
}

void ArrivalInjector::restoreInjected(sim::Machine& machine,
                                      std::int64_t count) {
  if (count < 0 || count > static_cast<std::int64_t>(schedule_.size()))
    throw ckpt::CheckpointError{
        "checkpoint claims " + std::to_string(count) +
        " injected arrivals but the run spec schedules " +
        std::to_string(schedule_.size())};
  for (std::int64_t i = 0; i < count; ++i)
    addArrivalProcess(machine, schedule_[static_cast<std::size_t>(i)]);
  injected_ = static_cast<int>(count);
}

DvfsScript::DvfsScript(sim::QuantumPolicy& inner,
                       std::vector<FrequencyChange> script)
    : inner_(&inner), script_(std::move(script)) {
  std::stable_sort(script_.begin(), script_.end(),
                   [](const FrequencyChange& a, const FrequencyChange& b) {
                     return a.atTick < b.atTick;
                   });
}

util::Tick DvfsScript::quantumTicks() const { return inner_->quantumTicks(); }

void DvfsScript::onQuantum(sim::Machine& machine) {
  while (applied_ < static_cast<int>(script_.size()) &&
         script_[static_cast<std::size_t>(applied_)].atTick <=
             machine.now()) {
    const FrequencyChange& change =
        script_[static_cast<std::size_t>(applied_)];
    machine.setSocketFrequency(change.socket, change.freqGhz);
    ++applied_;
  }
  inner_->onQuantum(machine);
}

void DvfsScript::restoreApplied(std::int64_t count) {
  if (count < 0 || count > static_cast<std::int64_t>(script_.size()))
    throw ckpt::CheckpointError{
        "checkpoint claims " + std::to_string(count) +
        " applied frequency changes but the run spec scripts " +
        std::to_string(script_.size())};
  applied_ = static_cast<int>(count);
}

std::vector<Arrival> churnSchedule(const fault::FaultPlan& plan,
                                   util::Rng rng, util::Tick quantumTicks) {
  std::vector<Arrival> schedule;
  if (plan.churn.arrivals <= 0) return schedule;
  const util::Tick start = plan.window.startTick;
  const util::Tick end = plan.window.endTick > 0
                             ? plan.window.endTick
                             : start + 200 * std::max<util::Tick>(
                                                 1, quantumTicks);
  for (int i = 0; i < plan.churn.arrivals; ++i) {
    Arrival a;
    a.atTick = start + static_cast<util::Tick>(
                           rng.uniform() *
                           static_cast<double>(std::max<util::Tick>(
                               1, end - start)));
    a.benchmark = kChurnBenchmarks[i % 2];
    a.threads = plan.churn.threadsPerArrival;
    a.scale = plan.churn.arrivalScale;
    schedule.push_back(std::move(a));
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.atTick < b.atTick;
            });
  return schedule;
}

}  // namespace dike::exp
