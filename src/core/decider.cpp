#include "core/decider.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ckpt/fields.hpp"
#include "util/types.hpp"

namespace dike::core {

Decider::Decider(DeciderConfig config) : config_(config) {
  if (config_.cooldownQuanta < 0)
    throw std::invalid_argument{"cooldownQuanta must be >= 0"};
  if (config_.minCooldownMs < 0)
    throw std::invalid_argument{"minCooldownMs must be >= 0"};
}

util::Tick Decider::cooldownWindow(util::Tick quantumTicks) const {
  if (config_.cooldownQuanta == 0 && config_.minCooldownMs == 0) return 0;
  const util::Tick quantaWindow =
      config_.cooldownQuanta * std::max<util::Tick>(1, quantumTicks) + 1;
  const util::Tick floorWindow = util::millisToTicks(config_.minCooldownMs);
  if (config_.cooldownQuanta == 0) return floorWindow;
  return std::max(quantaWindow, floorWindow);
}

bool Decider::shouldSwap(const SwapPrediction& prediction, util::Tick now,
                         util::Tick quantumTicks) const {
  if (inCooldown(prediction.pair.lowThread, now, quantumTicks) ||
      inCooldown(prediction.pair.highThread, now, quantumTicks))
    return false;
  if (config_.requirePositiveProfit && prediction.totalProfit < 0.0)
    return false;
  return true;
}

void Decider::recordSwap(const ThreadPair& pair, util::Tick now) {
  lastMigration_[pair.lowThread] = now;
  lastMigration_[pair.highThread] = now;
  failures_.erase(pair.lowThread);
  failures_.erase(pair.highThread);
}

void Decider::recordMigration(int threadId, util::Tick now) {
  lastMigration_[threadId] = now;
  failures_.erase(threadId);
}

void Decider::recordFailedActuation(int threadId, util::Tick now) {
  FailureState& f = failures_[threadId];
  f.at = now;
  f.consecutive = std::min(f.consecutive + 1, 8);
}

bool Decider::inRetryBackoff(int threadId, util::Tick now,
                             util::Tick quantumTicks) const {
  if (config_.failedActuationCooldownQuanta <= 0) return false;
  const auto it = failures_.find(threadId);
  if (it == failures_.end()) return false;
  const util::Tick window = config_.failedActuationCooldownQuanta *
                            it->second.consecutive *
                            std::max<util::Tick>(1, quantumTicks);
  return now - it->second.at <= window;
}

bool Decider::inCooldown(int threadId, util::Tick now,
                         util::Tick quantumTicks) const {
  const auto it = lastMigration_.find(threadId);
  if (it == lastMigration_.end()) return false;
  return now - it->second < cooldownWindow(quantumTicks);
}

template <class Self, class Field>
void Decider::stateFields(Self& s, Field&& field) {
  field.section("decider", [&] {
    field.keyed("migrationThreadIds", s.lastMigration_,
                [](auto& tick, auto&& column) {
                  column("migrationTicks", tick);
                });
    field.keyed("failureThreadIds", s.failures_,
                [](auto& failure, auto&& column) {
                  column("failureTicks", failure.at);
                  column("failureCounts", failure.consecutive);
                });
  });
}

void Decider::saveState(ckpt::BinWriter& w) const {
  stateFields(*this, ckpt::FieldWriter{w});
}

void Decider::loadState(ckpt::BinReader& r) {
  Decider fresh{config_};
  stateFields(fresh, ckpt::FieldReader{r});
  *this = std::move(fresh);
}

}  // namespace dike::core
