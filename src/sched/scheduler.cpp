#include "sched/scheduler.hpp"

#include <string>

#include "ckpt/fields.hpp"

namespace dike::sched {

namespace {

/// The envelope's field list: the policy name, then the policy's own state
/// (`extra`).
template <class Field, class Extra>
void envelopeFields(Field&& field, std::string& policy, Extra&& extra) {
  field.section("scheduler", [&] {
    field("policy", policy);
    extra();
  });
}

}  // namespace

void Scheduler::saveState(ckpt::BinWriter& w) const {
  std::string policy{name()};
  envelopeFields(ckpt::FieldWriter{w}, policy, [&] { saveExtraState(w); });
}

void Scheduler::loadState(ckpt::BinReader& r) {
  std::string policy;
  ckpt::FieldReader field{r};
  envelopeFields(field, policy, [&] {
    field.require(policy == name(), "policy",
                  "is '" + policy + "', not this run's '" +
                      std::string{name()} + "' — nothing was restored");
    loadExtraState(r);
  });
}

SchedulerView::SchedulerView(Backend& backend,
                             const sim::QuantumSample& sample,
                             ActuationHook* hook)
    : backend_(&backend), sample_(&sample), hook_(hook) {}

SchedulerView::SchedulerView(SchedulerView& parent,
                             const sim::QuantumSample& clusterSample,
                             const std::vector<int>& clusterOfCore,
                             int cluster, std::span<const int> clusterCores)
    : backend_(parent.backend_),
      sample_(&clusterSample),
      hook_(nullptr),  // the parent applies its hook when we delegate
      parent_(&parent),
      clusterOfCore_(&clusterOfCore),
      cluster_(cluster),
      clusterCores_(clusterCores) {}

int SchedulerView::coreOccupant(int coreId) const {
  if (clusterOfCore_ != nullptr &&
      (*clusterOfCore_)[static_cast<std::size_t>(coreId)] != cluster_)
    return kForeignCore;
  return backend_->coreOccupant(coreId);
}

bool SchedulerView::swap(int threadA, int threadB) {
  if (parent_ != nullptr) return parent_->swap(threadA, threadB);
  if ((hook_ != nullptr && !hook_->onSwapAttempt(threadA, threadB, now())) ||
      !backend_->swap(threadA, threadB)) {
    ++failedActuations_;
    return false;
  }
  ++swaps_;
  return true;
}

bool SchedulerView::migrateTo(int threadId, int coreId) {
  if (parent_ != nullptr) return parent_->migrateTo(threadId, coreId);
  if ((hook_ != nullptr &&
       !hook_->onMigrationAttempt(threadId, coreId, now())) ||
      !backend_->migrateTo(threadId, coreId)) {
    ++failedActuations_;
    return false;
  }
  ++migrations_;
  return true;
}

void SchedulerAdapter::onQuantum(sim::Machine& machine) {
  // The sample snapshot reuses one member buffer across quanta: per-thread
  // rows and per-core bandwidths keep their capacity, so steady-state quanta
  // allocate nothing here.
  machine.sampleAndResetInto(sampleScratch_);
  sim::QuantumSample& sample = sampleScratch_;
  if (filter_ != nullptr) filter_->filterSample(sample, machine.now());
  MachineBackend backend{machine};
  SchedulerView view{backend, sample, hook_};
  scheduler_->onQuantum(view);
  if (listener_ != nullptr)
    listener_->afterQuantum(machine, view, *scheduler_);
  swaps_ += view.swapsThisQuantum();
  ++quanta_;
}

}  // namespace dike::sched
