#include "exp/stream_listener.hpp"

#include <limits>

#include "core/dike_policy.hpp"
#include "sim/machine.hpp"

namespace dike::exp {

namespace {
constexpr double kQuietNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

void QuantumMetricsListener::afterQuantum(const sim::Machine& machine,
                                          const sched::SchedulerView& view,
                                          sched::Scheduler& scheduler) {
  // Slowdown proxy: feed this quantum's access rates into the shared
  // estimator before building the record, so per-thread slowdown and the
  // quantum's fairness spread come from the same closed computation the
  // live publisher uses (the live-vs-file differential test relies on
  // the two paths agreeing exactly).
  const double dt = util::ticksToSeconds(machine.now() - lastTick_);
  lastTick_ = machine.now();
  slowdown_.beginQuantum(dt);
  for (const sim::ThreadSample& s : view.sample().threads) {
    if (s.finished || s.coreId < 0) continue;
    slowdown_.add(s.threadId, s.processId, s.accessRate);
  }
  slowdown_.finishQuantum();
  // The record and the scored-prediction index are member buffers: one
  // listener serves one run, so per-quantum churn reuses their capacity
  // (thread rows, strings, hash buckets) instead of reallocating.
  telemetry::QuantumRecord& rec = rec_;
  rec.threads.clear();
  rec.workloadClass.clear();
  rec.tick = machine.now();
  rec.quantumIndex = quantumIndex_++;
  rec.scheduler.assign(scheduler.name());
  rec.unfairness = kQuietNaN;
  rec.quantaLengthMs = -1;
  rec.swapSize = -1;
  rec.swapsExecuted = view.swapsThisQuantum();
  rec.migrationsExecuted = view.migrationsThisQuantum();
  rec.fairnessSpread = slowdown_.fairnessSpread();

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
    t.slowdown = slowdown_.slowdownOf(s.threadId);
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

void QuantumMetricsListener::saveState(ckpt::BinWriter& w) const {
  w.beginSection("quantumStream");
  w.i64("quantumIndex", quantumIndex_);
  w.i64("lastTick", lastTick_);
  const std::vector<telemetry::SlowdownEstimator::ThreadSnapshot> threads =
      slowdown_.snapshot();
  w.i64("threadCount", static_cast<std::int64_t>(threads.size()));
  std::vector<std::int64_t> ids, procs;
  std::vector<double> cums;
  ids.reserve(threads.size());
  procs.reserve(threads.size());
  cums.reserve(threads.size());
  for (const auto& t : threads) {
    ids.push_back(t.threadId);
    procs.push_back(t.processId);
    cums.push_back(t.cum);
  }
  w.vecI64("threadIds", ids);
  w.vecI64("processIds", procs);
  w.vecF64("cumWork", cums);
  w.endSection();
}

void QuantumMetricsListener::loadState(ckpt::BinReader& r) {
  r.beginSection("quantumStream");
  quantumIndex_ = r.i64("quantumIndex");
  lastTick_ = r.i64("lastTick");
  const std::int64_t count = r.i64("threadCount");
  const std::vector<std::int64_t> ids = r.vecI64("threadIds");
  const std::vector<std::int64_t> procs = r.vecI64("processIds");
  const std::vector<double> cums = r.vecF64("cumWork");
  if (static_cast<std::int64_t>(ids.size()) != count ||
      procs.size() != ids.size() || cums.size() != ids.size())
    throw ckpt::CheckpointError{
        "quantum-stream cursor arrays disagree with the declared thread "
        "count; the checkpoint is internally inconsistent"};
  std::vector<telemetry::SlowdownEstimator::ThreadSnapshot> threads;
  threads.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    threads.push_back({static_cast<int>(ids[i]), static_cast<int>(procs[i]),
                       cums[i]});
  slowdown_.restore(threads);
  r.endSection();
}

}  // namespace dike::exp
