#include "core/prediction_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckpt/state_io.hpp"

namespace dike::core {

int PredictionTracker::slotIndex(int threadId) const noexcept {
  if (threadId < 0 || threadId >= util::isize(slotOfThread_)) return -1;
  return slotOfThread_[static_cast<std::size_t>(threadId)];
}

int PredictionTracker::slotFor(int threadId) {
  if (threadId < 0)
    throw std::invalid_argument{"prediction tracker: negative thread id " +
                                std::to_string(threadId)};
  const std::size_t id = static_cast<std::size_t>(threadId);
  if (id >= slotOfThread_.size()) slotOfThread_.resize(id + 1, -1);
  int& index = slotOfThread_[id];
  if (index < 0) {
    index = util::isize(slots_);
    slots_.emplace_back();
    errors_.emplace_back();
  }
  return index;
}

void PredictionTracker::setPrediction(int threadId, double predictedRate) {
  Slot& slot = slots_[static_cast<std::size_t>(slotFor(threadId))];
  slot.pending = predictedRate;
  slot.pendingRound = round_;
}

void PredictionTracker::setPredictionIfAbsent(int threadId,
                                              double predictedRate) {
  Slot& slot = slots_[static_cast<std::size_t>(slotFor(threadId))];
  if (slot.pendingRound == round_) return;
  slot.pending = predictedRate;
  slot.pendingRound = round_;
}

void PredictionTracker::scoreQuantum(const sim::QuantumSample& sample,
                                     util::Tick now) {
  util::OnlineStats quantum;
  lastScored_.clear();
  for (const sim::ThreadSample& s : sample.threads) {
    const int k = slotIndex(s.threadId);
    if (k < 0) continue;
    Slot& slot = slots_[static_cast<std::size_t>(k)];
    if (slot.pendingRound != round_) continue;
    if (s.finished) continue;
    const double actual = s.accessRate;
    const double predicted = slot.pending;
    if (actual < kMinScoredRate || predicted < kMinScoredRate) {
      lastScored_.push_back(ScoredPrediction{
          s.threadId, predicted, actual,
          std::numeric_limits<double>::quiet_NaN()});
      continue;
    }
    const double error =
        (predicted - actual) / std::max(actual, kDenominatorFloor);
    lastScored_.push_back(ScoredPrediction{s.threadId, predicted, actual,
                                           error});
    quantum.add(error);
    overall_.add(error);
    if (!slot.scored) {
      slot.scored = true;
      threadOrder_.push_back(s.threadId);
    }
    errors_[static_cast<std::size_t>(k)].add(error);
  }
  // Every outstanding prediction is spent: the next round starts empty. On
  // the (once per 2^32 quanta) wrap, clear the stamps so none reads as
  // pending by accident.
  if (++round_ == 0) {
    for (Slot& slot : slots_) slot.pendingRound = 0;
    round_ = 1;
  }

  if (quantum.count() > 0) {
    trace_.push_back(PredictionErrorPoint{
        now, static_cast<int>(quantum.count()), quantum.mean(), quantum.min(),
        quantum.max()});
  }

  if (watchdogArmed_ && quantum.count() >= 2) {
    if (std::abs(quantum.mean()) >= watchdogThreshold_)
      ++divergenceStreak_;
    else
      divergenceStreak_ = 0;
    if (divergenceStreak_ >= watchdogQuanta_) diverged_ = true;
  }
}

void PredictionTracker::armDivergenceWatchdog(double errorThreshold,
                                              int quanta) {
  watchdogArmed_ = errorThreshold > 0.0 && quanta > 0;
  watchdogThreshold_ = errorThreshold;
  watchdogQuanta_ = quanta;
  divergenceStreak_ = 0;
  diverged_ = false;
}

std::vector<double> PredictionTracker::perThreadMeanErrors() const {
  std::vector<double> means;
  means.reserve(threadOrder_.size());
  for (int id : threadOrder_) {
    const int k = slotIndex(id);
    if (k < 0 || !slots_[static_cast<std::size_t>(k)].scored)
      throw std::out_of_range{"prediction tracker: no error aggregate for "
                              "thread " + std::to_string(id)};
    means.push_back(errors_[static_cast<std::size_t>(k)].mean());
  }
  return means;
}

void PredictionTracker::reset() {
  slots_.clear();
  errors_.clear();
  slotOfThread_.clear();
  round_ = 1;
  threadOrder_.clear();
  trace_.clear();
  lastScored_.clear();
  overall_.reset();
  divergenceStreak_ = 0;
  diverged_ = false;
}

void PredictionTracker::saveState(ckpt::BinWriter& w) const {
  w.beginSection("predictionTracker");
  // Slots in ascending thread-id order, not creation order: the bytes
  // depend only on the state, never on the order threads were first seen.
  std::vector<std::int64_t> pendingIds;
  std::vector<double> pendingRates;
  std::vector<std::pair<std::int64_t, const util::OnlineStats*>> scored;
  for (std::size_t id = 0; id < slotOfThread_.size(); ++id) {
    if (slotOfThread_[id] < 0) continue;
    const std::size_t k = static_cast<std::size_t>(slotOfThread_[id]);
    const Slot& slot = slots_[k];
    if (slot.pendingRound == round_) {
      pendingIds.push_back(static_cast<std::int64_t>(id));
      pendingRates.push_back(slot.pending);
    }
    if (slot.scored)
      scored.emplace_back(static_cast<std::int64_t>(id), &errors_[k]);
  }
  w.vecI64("pendingThreadIds", pendingIds);
  w.vecF64("pendingRates", pendingRates);
  // threadOrder_ is first-appearance order; a restored stream may name a
  // thread in only one of the two lists, so persist the aggregates keyed
  // explicitly.
  {
    std::vector<std::int64_t> order{threadOrder_.begin(), threadOrder_.end()};
    w.vecI64("threadOrder", order);
  }
  w.i64("perThreadCount", util::isize(scored));
  for (const auto& [id, errors] : scored) {
    w.beginSection("perThread");
    w.i64("threadId", id);
    ckpt::save(w, "stats", *errors);
    w.endSection();
  }
  w.i64("traceCount", util::isize(trace_));
  for (const PredictionErrorPoint& p : trace_) {
    w.beginSection("point");
    w.i64("tick", p.tick);
    w.i64("samples", p.samples);
    w.f64("mean", p.mean);
    w.f64("min", p.min);
    w.f64("max", p.max);
    w.endSection();
  }
  w.i64("lastScoredCount", util::isize(lastScored_));
  for (const ScoredPrediction& s : lastScored_) {
    w.beginSection("scored");
    w.i64("threadId", s.threadId);
    w.f64("predicted", s.predicted);
    w.f64("actual", s.actual);
    w.f64("error", s.error);
    w.endSection();
  }
  ckpt::save(w, "overall", overall_);
  w.i64("divergenceStreak", divergenceStreak_);
  w.boolean("diverged", diverged_);
  w.endSection();
}

void PredictionTracker::loadState(ckpt::BinReader& r) {
  // Thread ids index the slot table: a negative or non-int id in the
  // stream is refused rather than used.
  const auto threadIdOf = [](std::int64_t v) {
    return util::checkedIndex<ckpt::CheckpointError>(
        v, "prediction tracker checkpoint: threadId");
  };
  PredictionTracker fresh;
  fresh.watchdogArmed_ = watchdogArmed_;
  fresh.watchdogThreshold_ = watchdogThreshold_;
  fresh.watchdogQuanta_ = watchdogQuanta_;
  r.beginSection("predictionTracker");
  const std::vector<std::int64_t> pendingIds = r.vecI64("pendingThreadIds");
  const std::vector<double> pendingRates = r.vecF64("pendingRates");
  if (pendingIds.size() != pendingRates.size())
    throw ckpt::CheckpointError{
        "prediction tracker checkpoint: pending id/rate lists disagree in "
        "length"};
  for (std::size_t i = 0; i < pendingIds.size(); ++i)
    fresh.setPrediction(threadIdOf(pendingIds[i]), pendingRates[i]);
  const std::vector<std::int64_t> order = r.vecI64("threadOrder");
  fresh.threadOrder_.reserve(order.size());
  for (const std::int64_t id : order)
    fresh.threadOrder_.push_back(static_cast<int>(id));
  const std::int64_t perThreadCount = r.i64("perThreadCount");
  for (std::int64_t i = 0; i < perThreadCount; ++i) {
    r.beginSection("perThread");
    const int k = fresh.slotFor(threadIdOf(r.i64("threadId")));
    Slot& slot = fresh.slots_[static_cast<std::size_t>(k)];
    util::OnlineStats stats;
    ckpt::load(r, "stats", stats);
    r.endSection();
    if (!slot.scored) {
      slot.scored = true;
      fresh.errors_[static_cast<std::size_t>(k)] = stats;
    }
  }
  const std::int64_t traceCount = r.i64("traceCount");
  fresh.trace_.reserve(static_cast<std::size_t>(traceCount));
  for (std::int64_t i = 0; i < traceCount; ++i) {
    r.beginSection("point");
    PredictionErrorPoint p;
    p.tick = r.i64("tick");
    p.samples = static_cast<int>(r.i64("samples"));
    p.mean = r.f64("mean");
    p.min = r.f64("min");
    p.max = r.f64("max");
    r.endSection();
    fresh.trace_.push_back(p);
  }
  const std::int64_t scoredCount = r.i64("lastScoredCount");
  fresh.lastScored_.reserve(static_cast<std::size_t>(scoredCount));
  for (std::int64_t i = 0; i < scoredCount; ++i) {
    r.beginSection("scored");
    ScoredPrediction s;
    s.threadId = static_cast<int>(r.i64("threadId"));
    s.predicted = r.f64("predicted");
    s.actual = r.f64("actual");
    s.error = r.f64("error");
    r.endSection();
    fresh.lastScored_.push_back(s);
  }
  ckpt::load(r, "overall", fresh.overall_);
  fresh.divergenceStreak_ = static_cast<int>(r.i64("divergenceStreak"));
  fresh.diverged_ = r.boolean("diverged");
  r.endSection();
  *this = std::move(fresh);
}

}  // namespace dike::core
