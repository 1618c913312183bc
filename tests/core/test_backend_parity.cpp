// One Dike pipeline for every backend. A DikeScheduler that sees nothing
// but tables must decide exactly as it did over the simulator: the
// recording pass runs Dike (and Dike-AF) on the paper testbed through
// SchedulerAdapter, keeping each quantum's sample, clock and core occupancy
// plus every actuation, with an ActuationHook vetoing every 7th call. The
// replay feeds those tables to a fresh scheduler through TableBackend, which
// holds no sim::Machine and refuses the same calls itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "../support/lockstep.hpp"
#include "ckpt/archive.hpp"
#include "core/dike_scheduler.hpp"
#include "sched/placement.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "util/types.hpp"
#include "workload/workloads.hpp"

namespace dike::core {
namespace {

constexpr std::size_t kVetoEvery = 7;

/// One swap or free-core migration request, as the backend saw it.
struct Actuation {
  bool swap = true;  ///< false = migration
  int thread = -1;
  int target = -1;  ///< partner thread (swap) or destination core
  util::Tick now = 0;
  bool operator==(const Actuation&) const = default;
};

/// Every kVetoEvery-th actuation call (0-based index) is refused.
bool refused(std::size_t callIndex) {
  return callIndex % kVetoEvery == kVetoEvery - 1;
}

struct RecordedQuantum {
  sim::QuantumSample sample;
  util::Tick now = 0;
  std::vector<int> occupant;  ///< per core, before the scheduler acted
  QuantumDecisionStats stats;
};

struct Recording {
  std::vector<int> socketOf;
  std::vector<RecordedQuantum> quanta;
  std::vector<Actuation> actuations;
  std::string finalState;
};

class RecordingHook final : public sched::ActuationHook {
 public:
  explicit RecordingHook(std::vector<Actuation>& log) : log_(&log) {}
  bool onSwapAttempt(int threadA, int threadB, util::Tick now) override {
    return admit({true, threadA, threadB, now});
  }
  bool onMigrationAttempt(int threadId, int coreId, util::Tick now) override {
    return admit({false, threadId, coreId, now});
  }

 private:
  bool admit(const Actuation& call) {
    log_->push_back(call);
    return !refused(log_->size() - 1);
  }
  std::vector<Actuation>* log_;
};

/// Runs `inner` and records what its view showed it, and its stats, each
/// quantum.
class RecordingScheduler final : public sched::Scheduler {
 public:
  RecordingScheduler(DikeScheduler& inner, Recording& recording)
      : inner_(&inner), recording_(&recording) {}

  std::string_view name() const override { return inner_->name(); }
  util::Tick quantumTicks() const override { return inner_->quantumTicks(); }

  void onQuantum(sched::SchedulerView& view) override {
    if (recording_->socketOf.empty())
      for (int c = 0; c < view.coreCount(); ++c)
        recording_->socketOf.push_back(view.socketOf(c));
    RecordedQuantum q;
    q.sample = view.sample();
    q.now = view.now();
    for (int c = 0; c < view.coreCount(); ++c)
      q.occupant.push_back(view.coreOccupant(c));
    inner_->onQuantum(view);
    q.stats = inner_->lastQuantumStats();
    recording_->quanta.push_back(std::move(q));
  }

 private:
  DikeScheduler* inner_;
  Recording* recording_;
};

/// A backend made of tables: the recorded clock and occupancy of the
/// current quantum, updated by the actuations it accepts.
class TableBackend final : public sched::Backend {
 public:
  explicit TableBackend(std::vector<int> socketOf)
      : socketOf_(std::move(socketOf)) {}

  void load(const RecordedQuantum& q) {
    now_ = q.now;
    occupant_ = q.occupant;
  }
  [[nodiscard]] const std::vector<Actuation>& calls() const { return calls_; }

  int coreCount() const override { return util::isize(socketOf_); }
  int socketOf(int coreId) const override { return socketOf_.at(idx(coreId)); }
  int coreOccupant(int coreId) const override {
    return occupant_.at(idx(coreId));
  }
  util::Tick now() const override { return now_; }
  bool swap(int threadA, int threadB) override {
    if (!admit({true, threadA, threadB, now_})) return false;
    std::swap(occupant_[coreOf(threadA)], occupant_[coreOf(threadB)]);
    return true;
  }
  bool migrateTo(int threadId, int coreId) override {
    if (!admit({false, threadId, coreId, now_})) return false;
    occupant_[coreOf(threadId)] = -1;
    occupant_.at(idx(coreId)) = threadId;
    return true;
  }
  bool isSuspended(int) const override { return false; }
  void suspend(int) override { ADD_FAILURE() << "Dike never suspends"; }
  void resume(int) override { ADD_FAILURE() << "Dike never suspends"; }

 private:
  static std::size_t idx(int coreId) { return static_cast<std::size_t>(coreId); }
  bool admit(const Actuation& call) {
    calls_.push_back(call);
    return !refused(calls_.size() - 1);
  }
  std::size_t coreOf(int threadId) const {
    const auto it = std::find(occupant_.begin(), occupant_.end(), threadId);
    EXPECT_NE(it, occupant_.end()) << "thread " << threadId << " has no core";
    return static_cast<std::size_t>(it - occupant_.begin());
  }

  std::vector<int> socketOf_;
  std::vector<int> occupant_;
  util::Tick now_ = 0;
  std::vector<Actuation> calls_;
};

DikeConfig configFor(AdaptationGoal goal) {
  DikeConfig cfg;
  cfg.goal = goal;
  return cfg;
}

Recording recordSimulatorRun(AdaptationGoal goal) {
  sim::MachineConfig machineCfg;
  machineCfg.seed = 42;
  sim::Machine machine{sim::MachineTopology::paperTestbed(), machineCfg};
  wl::addWorkloadProcesses(machine, wl::workload(2), /*scale=*/0.15);
  sched::placeRandom(machine, 42);

  Recording recording;
  DikeScheduler dike{configFor(goal)};
  RecordingScheduler recorder{dike, recording};
  RecordingHook hook{recording.actuations};
  sched::SchedulerAdapter adapter{recorder};
  adapter.setActuationHook(&hook);
  (void)sim::runMachine(machine, adapter);
  recording.finalState = test::savedBytes(dike);
  return recording;
}

void expectSameStats(const QuantumDecisionStats& want,
                     const QuantumDecisionStats& got, std::size_t q) {
  EXPECT_EQ(want.quantumIndex, got.quantumIndex) << "quantum " << q;
  EXPECT_EQ(want.unfairness, got.unfairness) << "quantum " << q;
  EXPECT_EQ(want.acted, got.acted) << "quantum " << q;
  EXPECT_EQ(want.pairsConsidered, got.pairsConsidered) << "quantum " << q;
  EXPECT_EQ(want.pairsRejectedCooldown, got.pairsRejectedCooldown)
      << "quantum " << q;
  EXPECT_EQ(want.pairsRejectedProfit, got.pairsRejectedProfit)
      << "quantum " << q;
  EXPECT_EQ(want.swapsExecuted, got.swapsExecuted) << "quantum " << q;
  EXPECT_EQ(want.swapsFailed, got.swapsFailed) << "quantum " << q;
  EXPECT_EQ(want.migrationsFailed, got.migrationsFailed) << "quantum " << q;
  EXPECT_EQ(want.fallbackActive, got.fallbackActive) << "quantum " << q;
  EXPECT_EQ(want.params.swapSize, got.params.swapSize) << "quantum " << q;
  EXPECT_EQ(want.params.quantaLengthMs, got.params.quantaLengthMs)
      << "quantum " << q;
  EXPECT_EQ(want.workloadType, got.workloadType) << "quantum " << q;
}

void expectReplayParity(AdaptationGoal goal) {
  const Recording recording = recordSimulatorRun(goal);
  // The run must exercise both outcomes of an actuation, and an adaptive
  // goal must actually adapt.
  ASSERT_GE(recording.actuations.size(), 2 * kVetoEvery);
  const bool adapted =
      std::any_of(recording.quanta.begin(), recording.quanta.end(),
                  [](const RecordedQuantum& q) {
                    return q.stats.params.quantaLengthMs !=
                           DikeParams{}.quantaLengthMs;
                  });
  ASSERT_EQ(adapted, goal != AdaptationGoal::None);

  DikeScheduler replayed{configFor(goal)};
  TableBackend backend{recording.socketOf};
  for (std::size_t q = 0; q < recording.quanta.size(); ++q) {
    const RecordedQuantum& quantum = recording.quanta[q];
    backend.load(quantum);
    sched::SchedulerView view{backend, quantum.sample};
    replayed.onQuantum(view);
    expectSameStats(quantum.stats, replayed.lastQuantumStats(), q);
  }
  EXPECT_EQ(backend.calls(), recording.actuations);
  EXPECT_EQ(test::savedBytes(replayed), recording.finalState);
}

TEST(BackendParity, DikeReplaysIdenticallyThroughATableBackend) {
  expectReplayParity(AdaptationGoal::None);
}

TEST(BackendParity, DikeAfReplaysIdenticallyThroughATableBackend) {
  expectReplayParity(AdaptationGoal::Fairness);
}

}  // namespace
}  // namespace dike::core
