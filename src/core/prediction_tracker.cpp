#include "core/prediction_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckpt/fields.hpp"

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

namespace {

constexpr auto kScoredFields = [](auto& s, auto&& field) {
  field("threadId", s.threadId);
  field("predicted", s.predicted);
  field("actual", s.actual);
  field("error", s.error);
};

}  // namespace

template <class Self, class Field>
void PredictionTracker::stateFields(Self& s, Field&& field) {
  // Slots in ascending thread-id order, not creation order: the bytes
  // depend only on the state, never on the order threads were first seen.
  const auto slots = [&s](auto has, auto mark) {
    return ckpt::slotTable(
        s.slots_, s.slotOfThread_, [&s](auto id) { return s.slotFor(id); },
        has, mark);
  };
  field.section("predictionTracker", [&] {
    field.keyed(
        "pendingThreadIds",
        slots([&s](const Slot& t) { return t.pendingRound == s.round_; },
              [&s](auto& t) { t.pendingRound = s.round_; }),
        [](auto& slot, auto&& column) {
          column("pendingRates", slot.pending);
        });
    // threadOrder_ is first-appearance order; a restored stream may name a
    // thread in only one of the two lists, so the aggregates are keyed
    // explicitly.
    field("threadOrder", s.threadOrder_);
    field.keyedRecords(
        "perThreadCount", "perThread", "threadId",
        slots([](const Slot& t) { return t.scored; },
              [](auto& t) { t.scored = true; }),
        [&s](int id, auto&, auto&& f) {
          f("stats", s.errors_[static_cast<std::size_t>(s.slotIndex(id))]);
        });
    field.records("traceCount", "point", s.trace_,
                  kPredictionErrorPointFields);
    field.records("lastScoredCount", "scored", s.lastScored_, kScoredFields);
    field("overall", s.overall_);
    field("divergenceStreak", s.divergenceStreak_);
    field("diverged", s.diverged_);
  });
}

void PredictionTracker::saveState(ckpt::BinWriter& w) const {
  stateFields(*this, ckpt::FieldWriter{w});
}

void PredictionTracker::loadState(ckpt::BinReader& r) {
  PredictionTracker fresh;
  fresh.watchdogArmed_ = watchdogArmed_;
  fresh.watchdogThreshold_ = watchdogThreshold_;
  fresh.watchdogQuanta_ = watchdogQuanta_;
  stateFields(fresh, ckpt::FieldReader{r});
  *this = std::move(fresh);
}

}  // namespace dike::core
