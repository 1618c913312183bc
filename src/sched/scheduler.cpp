#include "sched/scheduler.hpp"

#include <string>

#include "ckpt/archive.hpp"

namespace dike::sched {

void Scheduler::saveState(ckpt::BinWriter& w) const {
  w.beginSection("scheduler");
  w.str("policy", name());
  saveExtraState(w);
  w.endSection();
}

void Scheduler::loadState(ckpt::BinReader& r) {
  r.beginSection("scheduler");
  const std::string policy = r.str("policy");
  if (policy != name())
    throw ckpt::CheckpointError{
        "checkpoint was taken under scheduler '" + policy +
        "' but this run uses '" + std::string{name()} +
        "' — nothing was restored"};
  loadExtraState(r);
  r.endSection();
}

void Scheduler::saveExtraState(ckpt::BinWriter&) const {}

void Scheduler::loadExtraState(ckpt::BinReader&) {}

SchedulerView::SchedulerView(sim::Machine& machine,
                             const sim::QuantumSample& sample,
                             ActuationHook* hook)
    : machine_(&machine), sample_(&sample), hook_(hook) {}

SchedulerView::SchedulerView(SchedulerView& parent,
                             const sim::QuantumSample& clusterSample,
                             const std::vector<int>& clusterOfCore,
                             int cluster, std::span<const int> clusterCores)
    : machine_(parent.machine_),
      sample_(&clusterSample),
      hook_(nullptr),  // the parent applies its hook when we delegate
      parent_(&parent),
      clusterOfCore_(&clusterOfCore),
      cluster_(cluster),
      clusterCores_(clusterCores) {}

int SchedulerView::coreCount() const {
  return machine_->topology().coreCount();
}

int SchedulerView::socketCount() const {
  return machine_->topology().socketCount();
}

int SchedulerView::socketOf(int coreId) const {
  return machine_->topology().core(coreId).socket;
}

int SchedulerView::coreOccupant(int coreId) const {
  if (clusterOfCore_ != nullptr &&
      (*clusterOfCore_)[static_cast<std::size_t>(coreId)] != cluster_)
    return kForeignCore;
  return machine_->coreOccupant(coreId);
}

util::Tick SchedulerView::now() const { return machine_->now(); }

bool SchedulerView::swap(int threadA, int threadB) {
  if (parent_ != nullptr) return parent_->swap(threadA, threadB);
  if (hook_ != nullptr && !hook_->onSwapAttempt(threadA, threadB, now())) {
    ++failedActuations_;
    return false;
  }
  machine_->swapThreads(threadA, threadB);
  ++swaps_;
  return true;
}

bool SchedulerView::migrateTo(int threadId, int coreId) {
  if (parent_ != nullptr) return parent_->migrateTo(threadId, coreId);
  if (hook_ != nullptr && !hook_->onMigrationAttempt(threadId, coreId, now())) {
    ++failedActuations_;
    return false;
  }
  machine_->migrateThread(threadId, coreId);
  ++migrations_;
  return true;
}

void SchedulerView::suspend(int threadId) { machine_->suspendThread(threadId); }

void SchedulerView::resume(int threadId) { machine_->resumeThread(threadId); }

bool SchedulerView::isSuspended(int threadId) const {
  return machine_->isSuspended(threadId);
}

void SchedulerAdapter::onQuantum(sim::Machine& machine) {
  // The sample snapshot reuses one member buffer across quanta: per-thread
  // rows and per-core bandwidths keep their capacity, so steady-state quanta
  // allocate nothing here.
  machine.sampleAndResetInto(sampleScratch_);
  sim::QuantumSample& sample = sampleScratch_;
  if (filter_ != nullptr) filter_->filterSample(sample, machine.now());
  SchedulerView view{machine, sample, hook_};
  scheduler_->onQuantum(view);
  if (listener_ != nullptr)
    listener_->afterQuantum(machine, view, *scheduler_);
  swaps_ += view.swapsThisQuantum();
  ++quanta_;
}

}  // namespace dike::sched
