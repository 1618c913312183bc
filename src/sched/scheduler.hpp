// Contention-aware scheduler framework.
//
// A Scheduler is invoked once per quantum with a SchedulerView: the quantum's
// performance-counter sample plus the migration interface. The view is the
// *only* surface schedulers get — they cannot read simulator ground truth
// (core frequencies, phase programs, true memory intensities), mirroring
// what a software scheduler can observe on real hardware (Section III:
// Dike requires no a priori knowledge).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "sim/machine.hpp"
#include "util/types.hpp"

namespace dike::sched {

/// Transforms the per-quantum counter sample before any scheduler sees it.
/// The fault-injection layer implements this to model dropped, corrupt, and
/// stuck counter feeds; the default (no filter) passes samples through
/// untouched, so filter-free runs are bit-identical to historical ones.
class SampleFilter {
 public:
  virtual ~SampleFilter() = default;
  virtual void filterSample(sim::QuantumSample& sample, util::Tick now) = 0;
};

/// Intercepts actuation requests (swaps and free-core migrations) before
/// they reach the machine. Returning false fails the operation: the machine
/// is left untouched and the caller is told, mirroring a sched_setaffinity
/// error on a live host. The fault layer implements this; schedulers must
/// treat a failed actuation as retryable, never as silently applied.
class ActuationHook {
 public:
  virtual ~ActuationHook() = default;
  [[nodiscard]] virtual bool onSwapAttempt(int threadA, int threadB,
                                           util::Tick now) = 0;
  [[nodiscard]] virtual bool onMigrationAttempt(int threadId, int coreId,
                                                util::Tick now) = 0;
};

/// What a SchedulerView reads and actuates through: core topology,
/// occupancy, the clock, and the actuation calls. MachineBackend wraps the
/// simulator; oslinux::DikeHost implements it over live cpus and threads,
/// so both drive the same scheduler code. Core and thread ids are the
/// backend's dense ids. swap/migrateTo return false when the backend
/// refused the actuation; the placement is then unchanged.
class Backend {
 public:
  virtual ~Backend() = default;
  [[nodiscard]] virtual int coreCount() const = 0;
  [[nodiscard]] virtual int socketOf(int coreId) const = 0;
  /// Thread currently occupying a core, or -1 when free.
  [[nodiscard]] virtual int coreOccupant(int coreId) const = 0;
  [[nodiscard]] virtual util::Tick now() const = 0;
  [[nodiscard]] virtual bool swap(int threadA, int threadB) = 0;
  [[nodiscard]] virtual bool migrateTo(int threadId, int coreId) = 0;
  [[nodiscard]] virtual bool isSuspended(int threadId) const = 0;
  virtual void suspend(int threadId) = 0;
  virtual void resume(int threadId) = 0;
};

/// The simulator backend: every call forwards to the machine, and every
/// actuation succeeds.
class MachineBackend final : public Backend {
 public:
  explicit MachineBackend(sim::Machine& machine) : m_(&machine) {}
  int coreCount() const override { return m_->topology().coreCount(); }
  int socketOf(int c) const override { return m_->topology().core(c).socket; }
  int coreOccupant(int c) const override { return m_->coreOccupant(c); }
  util::Tick now() const override { return m_->now(); }
  bool swap(int a, int b) override {
    m_->swapThreads(a, b);
    return true;
  }
  bool migrateTo(int t, int c) override {
    m_->migrateThread(t, c);
    return true;
  }
  bool isSuspended(int t) const override { return m_->isSuspended(t); }
  void suspend(int t) override { m_->suspendThread(t); }
  void resume(int t) override { m_->resumeThread(t); }

 private:
  sim::Machine* m_;
};

/// The rows of a quantum sample that one scheduler instance reads: every
/// row, or — for a cluster-scoped view — the rows listed by their index into
/// the sample, in sample order. No row is copied; the sample and the list
/// must outlive this object.
class SampleRows {
 public:
  SampleRows() = default;
  /// Every row of `sample`. Implicit, so a whole sample passes wherever
  /// rows are read.
  SampleRows(const sim::QuantumSample& sample) noexcept : sample_(&sample) {}
  SampleRows(const sim::QuantumSample& sample,
             std::span<const int> rows) noexcept
      : sample_(&sample), rows_(rows), listed_(true) {}

  /// The whole sample: its period and the per-core bandwidths (indexed by
  /// machine core id) are read through this.
  [[nodiscard]] const sim::QuantumSample& sample() const noexcept {
    return *sample_;
  }

  /// The rows, in sample order: row i for i < size(). An indexed loop
  /// rather than a visitor, so the caller's loop body stays inline.
  [[nodiscard]] std::size_t size() const noexcept {
    return listed_ ? rows_.size() : sample_->threads.size();
  }
  [[nodiscard]] const sim::ThreadSample& operator[](
      std::size_t i) const noexcept {
    return sample_->threads[listed_ ? static_cast<std::size_t>(rows_[i]) : i];
  }

 private:
  const sim::QuantumSample* sample_ = nullptr;
  std::span<const int> rows_;
  bool listed_ = false;
};

/// Per-quantum window a scheduler operates through.
class SchedulerView {
 public:
  /// coreOccupant() result for a core outside a cluster-scoped view's
  /// domain. Distinct from -1 ("free"): foreign cores read as occupied (so
  /// free-core scans skip them) but the sentinel is negative (so occupant
  /// walks never mistake it for a thread id).
  static constexpr int kForeignCore = -2;

  /// `backend` must outlive this view.
  SchedulerView(Backend& backend, const sim::QuantumSample& sample,
                ActuationHook* hook = nullptr);

  /// Cluster-scoped child view over the contiguous cores [firstCore,
  /// endCore): presents the parent's sample restricted to `rows` (indices
  /// into it, in sample order) while delegating every actuation and
  /// topology query to `parent`, whose swap/migration counters keep the
  /// totals. Cores outside the range read as kForeignCore. Used by
  /// ClusteredDikeScheduler; `parent` and `rows` must outlive this view.
  SchedulerView(SchedulerView& parent, std::span<const int> rows,
                int firstCore, int endCore);

  /// Counter readings for the quantum that just ended: the whole machine's
  /// sample, also for a child view (whose own rows are rows()).
  [[nodiscard]] const sim::QuantumSample& sample() const noexcept {
    return *sample_;
  }
  /// The rows this view's scheduler reads: every row of a machine view,
  /// the cluster's rows of a child view.
  [[nodiscard]] SampleRows rows() const noexcept {
    return parent_ != nullptr ? SampleRows{*sample_, rows_}
                              : SampleRows{*sample_};
  }

  // Observable topology (an OS can always read this from sysfs).
  [[nodiscard]] int coreCount() const { return backend_->coreCount(); }
  [[nodiscard]] int socketOf(int coreId) const {
    return backend_->socketOf(coreId);
  }
  /// Thread currently occupying a core, -1 when free, or kForeignCore when
  /// the core lies outside this (cluster-scoped) view's domain.
  [[nodiscard]] int coreOccupant(int coreId) const;

  /// This view's own cores are [firstCore(), endCore()): every core of a
  /// machine view, the cluster's range of a child view.
  [[nodiscard]] int firstCore() const noexcept { return firstCore_; }
  [[nodiscard]] int endCore() const {
    return parent_ != nullptr ? endCore_ : coreCount();
  }

  /// Visit this view's own cores in ascending id order (foreign cores are
  /// never visited). O(cores in the domain), not O(machine cores).
  template <typename Visit>
  void forEachCore(Visit&& visit) const {
    const int end = endCore();
    for (int c = firstCore_; c < end; ++c) visit(c);
  }

  [[nodiscard]] util::Tick now() const { return backend_->now(); }

  /// Exchange the cores of two live threads (one swap = two migrations).
  /// Returns false when an attached ActuationHook or the backend failed the
  /// operation; the placement is then unchanged and the caller should retry
  /// later.
  [[nodiscard]] bool swap(int threadA, int threadB);

  /// Move a live thread to a currently free core (a single migration).
  /// Returns false when an attached ActuationHook or the backend failed it.
  [[nodiscard]] bool migrateTo(int threadId, int coreId);

  /// Suspension enforcement (for policies that pause instead of migrate).
  void suspend(int threadId) { backend_->suspend(threadId); }
  void resume(int threadId) { backend_->resume(threadId); }
  [[nodiscard]] bool isSuspended(int threadId) const {
    return backend_->isSuspended(threadId);
  }

  /// Swaps performed through this view during the current quantum. Child
  /// views report the parent's tally (actuations land on the parent).
  [[nodiscard]] std::int64_t swapsThisQuantum() const noexcept {
    return parent_ != nullptr ? parent_->swaps_ : swaps_;
  }
  /// Free-core migrations performed through this view this quantum.
  [[nodiscard]] std::int64_t migrationsThisQuantum() const noexcept {
    return parent_ != nullptr ? parent_->migrations_ : migrations_;
  }
  /// Actuations (swaps + migrations) an ActuationHook or the backend failed
  /// this quantum.
  [[nodiscard]] std::int64_t failedActuationsThisQuantum() const noexcept {
    return parent_ != nullptr ? parent_->failedActuations_ : failedActuations_;
  }

 private:
  Backend* backend_;
  const sim::QuantumSample* sample_;
  ActuationHook* hook_ = nullptr;
  /// Set on cluster-scoped child views; actuations and counters then live
  /// on the parent so adapter totals see every swap exactly once.
  SchedulerView* parent_ = nullptr;
  /// A child view's rows and core range (a machine view's are all).
  std::span<const int> rows_;
  int firstCore_ = 0;
  int endCore_ = 0;
  std::int64_t swaps_ = 0;
  std::int64_t migrations_ = 0;
  std::int64_t failedActuations_ = 0;
};

/// Interface all scheduling policies implement (CFS baseline, DIO, Dike).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Current scheduling quantum in ticks; adaptive policies may return a
  /// different value after each onQuantum call.
  [[nodiscard]] virtual util::Tick quantumTicks() const = 0;

  /// Make decisions for the quantum that just ended.
  virtual void onQuantum(SchedulerView& view) = 0;

  /// Serialize the policy's mutable state under a "scheduler" section that
  /// records the policy name, then delegates to saveExtraState. Stateless
  /// policies (CFS, DIO, the static oracle) need no override.
  void saveState(ckpt::BinWriter& w) const;

  /// Restore state captured by saveState. Verifies the recorded policy name
  /// against name() — restoring a checkpoint into a different policy throws
  /// ckpt::CheckpointError instead of silently misreading the stream.
  /// `threadCount` is the restored machine's thread count: thread ids are
  /// dense, so a restored id at or above it is refused with a
  /// CheckpointError before anything is sized by it.
  void loadState(ckpt::BinReader& r, int threadCount);

 protected:
  /// Hooks for stateful policies; the base implementations hold no state.
  virtual void saveExtraState(ckpt::BinWriter&) const {}
  virtual void loadExtraState(ckpt::BinReader&, int /*threadCount*/) {}
};

/// Observer of quantum boundaries, called after the scheduler has made its
/// decisions for the quantum. Telemetry sinks (the per-quantum metrics
/// stream) implement this; the sched layer stays ignorant of file formats.
class QuantumListener {
 public:
  virtual ~QuantumListener() = default;

  /// Invoked once per quantum, after Scheduler::onQuantum returned. The view
  /// still holds the quantum's counter sample plus the swap/migration tallies
  /// the scheduler just produced.
  virtual void afterQuantum(const sim::Machine& machine,
                            const SchedulerView& view,
                            Scheduler& scheduler) = 0;
};

/// Fans one listener slot out to several listeners, in attachment order.
/// SchedulerAdapter holds a single listener pointer; runs that want both
/// the quantum-metrics stream and the live publisher (or the soak
/// invariant checker) chain them through this.
class QuantumListenerChain final : public QuantumListener {
 public:
  void add(QuantumListener* listener) {
    if (listener != nullptr) listeners_.push_back(listener);
  }
  [[nodiscard]] std::size_t size() const noexcept { return listeners_.size(); }

  void afterQuantum(const sim::Machine& machine, const SchedulerView& view,
                    Scheduler& scheduler) override {
    for (QuantumListener* listener : listeners_) {
      listener->afterQuantum(machine, view, scheduler);
    }
  }

 private:
  std::vector<QuantumListener*> listeners_;
};

/// Adapts a Scheduler onto the engine's QuantumPolicy hook, sampling the
/// machine's counters once per quantum and tracking swap totals.
class SchedulerAdapter final : public sim::QuantumPolicy {
 public:
  explicit SchedulerAdapter(Scheduler& scheduler) : scheduler_(&scheduler) {}

  [[nodiscard]] util::Tick quantumTicks() const override {
    return scheduler_->quantumTicks();
  }

  void onQuantum(sim::Machine& machine) override;

  [[nodiscard]] std::int64_t totalSwaps() const noexcept { return swaps_; }
  [[nodiscard]] std::int64_t quantaElapsed() const noexcept { return quanta_; }

  /// Attach (or detach with nullptr) a per-quantum telemetry listener.
  void setListener(QuantumListener* listener) noexcept {
    listener_ = listener;
  }

  /// Attach (or detach with nullptr) a counter-path fault seam. Applied to
  /// every sample before the scheduler observes it.
  void setSampleFilter(SampleFilter* filter) noexcept { filter_ = filter; }

  /// Attach (or detach with nullptr) an actuation-path fault seam. Passed
  /// into every SchedulerView this adapter constructs.
  void setActuationHook(ActuationHook* hook) noexcept { hook_ = hook; }

 private:
  Scheduler* scheduler_;
  QuantumListener* listener_ = nullptr;
  SampleFilter* filter_ = nullptr;
  ActuationHook* hook_ = nullptr;
  std::int64_t swaps_ = 0;
  std::int64_t quanta_ = 0;
  /// Capacity-reusing snapshot buffer filled by Machine::sampleAndResetInto
  /// each quantum; valid only within onQuantum.
  sim::QuantumSample sampleScratch_;
};

}  // namespace dike::sched
