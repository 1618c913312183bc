#include "exp/stream_listener.hpp"

#include <cstddef>
#include <limits>
#include <vector>

#include "ckpt/fields.hpp"
#include "core/dike_policy.hpp"
#include "sim/machine.hpp"

namespace dike::exp {

namespace {
constexpr double kQuietNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

void SlowdownCursor::afterQuantum(const sim::Machine& machine,
                                  const sched::SchedulerView& view,
                                  sched::Scheduler& /*scheduler*/) {
  const double dt = util::ticksToSeconds(machine.now() - lastTick_);
  lastTick_ = machine.now();
  slowdown_.beginQuantum(dt);
  for (const sim::ThreadSample& s : view.sample().threads) {
    if (s.finished || s.coreId < 0) continue;
    slowdown_.add(s.threadId, s.processId, s.accessRate);
  }
  slowdown_.finishQuantum();
  ++quanta_;
}

void QuantumMetricsListener::afterQuantum(const sim::Machine& machine,
                                          const sched::SchedulerView& view,
                                          sched::Scheduler& scheduler) {
  const telemetry::SlowdownEstimator& slowdown = cursor_->estimate();
  // The record and the scored-prediction index are member buffers: one
  // listener serves one run, so per-quantum churn reuses their capacity
  // (thread rows, strings, hash buckets) instead of reallocating.
  telemetry::QuantumRecord& rec = rec_;
  rec.threads.clear();
  rec.workloadClass.clear();
  rec.tick = machine.now();
  rec.quantumIndex = cursor_->quantum();
  rec.scheduler.assign(scheduler.name());
  rec.unfairness = kQuietNaN;
  rec.quantaLengthMs = -1;
  rec.swapSize = -1;
  rec.swapsExecuted = view.swapsThisQuantum();
  rec.migrationsExecuted = view.migrationsThisQuantum();
  rec.fairnessSpread = slowdown.fairnessSpread();

  const core::DikePolicy* dike = core::asDikePolicy(scheduler);
  // Resolved once per quantum: the row loop below indexes it per core
  // without a virtual call.
  core::CoreObservers observers;
  std::unordered_map<int, core::ScoredPrediction>& scored = scored_;
  scored.clear();
  if (dike != nullptr) {
    const core::QuantumDecisionStats stats = dike->lastQuantumStats();
    rec.unfairness = stats.unfairness;
    rec.workloadClass = toString(stats.workloadType);
    rec.quantaLengthMs = stats.params.quantaLengthMs;
    rec.swapSize = stats.params.swapSize;
    observers = dike->coreObservers();
    dike->lastScoredInto(scoredList_);
    for (const core::ScoredPrediction& p : scoredList_)
      scored.emplace(p.threadId, p);
  }

  const sim::QuantumSample& sample = view.sample();
  for (const sim::ThreadSample& s : sample.threads) {
    if (s.finished || s.coreId < 0) continue;
    telemetry::QuantumThreadRecord t;
    t.threadId = s.threadId;
    t.processId = s.processId;
    t.coreId = s.coreId;
    t.accessRate = s.accessRate;
    t.llcMissRatio = s.llcMissRatio;
    t.coreAchievedBw =
        sample.coreAchievedBw[static_cast<std::size_t>(s.coreId)];
    t.coreBwEstimate = kQuietNaN;
    t.predictedRate = kQuietNaN;
    t.realizedRate = kQuietNaN;
    t.predictionError = kQuietNaN;
    t.slowdown = slowdown.slowdownOf(s.threadId);
    if (const core::Observer* observer = observers.ofCore(s.coreId);
        observer != nullptr && observer->ready()) {
      t.coreBwEstimate = observer->coreBw(s.coreId);
      t.highBandwidthCore = observer->isHighBandwidthCore(s.coreId) ? 1 : 0;
    }
    if (const auto it = scored.find(s.threadId); it != scored.end()) {
      t.predictedRate = it->second.predicted;
      t.realizedRate = it->second.actual;
      t.predictionError = it->second.error;
    }
    rec.threads.push_back(std::move(t));
  }
  writer_->write(rec);
}

namespace {

using ThreadSnapshot = telemetry::SlowdownEstimator::ThreadSnapshot;

/// The slowdown cursor as checkpointed: the slowdown accumulators are a
/// snapshot in ascending thread-id order.
struct Cursor {
  std::int64_t quantumIndex = 0;
  util::Tick lastTick = 0;
  std::vector<ThreadSnapshot> threads;
};

constexpr auto kCursorFields = [](auto& c, auto&& field) {
  field.section("quantumStream", [&] {
    field("quantumIndex", c.quantumIndex);
    field("lastTick", c.lastTick);
    const std::size_t count = field.count("threadCount", c.threads.size());
    field.keyed("threadIds",
                ckpt::table<ThreadSnapshot>(
                    [&c](auto&& visit) {
                      for (const ThreadSnapshot& t : c.threads)
                        visit(t.threadId, t);
                    },
                    [&c](auto id) -> auto& {
                      return c.threads.emplace_back(id);
                    }),
                [](auto& t, auto&& column) {
                  column("processIds", t.processId);
                  column("cumWork", t.cum);
                });
    field.require(count == c.threads.size(), "threadCount",
                  "disagrees with the thread columns");
  });
};

}  // namespace

void SlowdownCursor::saveState(ckpt::BinWriter& w) const {
  ckpt::writeFields(w, Cursor{quanta_, lastTick_, slowdown_.snapshot()},
                    kCursorFields);
}

void SlowdownCursor::loadState(ckpt::BinReader& r) {
  Cursor cursor;
  ckpt::readFields(r, cursor, kCursorFields);
  quanta_ = cursor.quantumIndex;
  lastTick_ = cursor.lastTick;
  slowdown_.restore(cursor.threads);
}

}  // namespace dike::exp
