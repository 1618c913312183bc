#include "sched/extra_baselines.hpp"

#include <stdexcept>
#include <vector>

#include "ckpt/fields.hpp"

namespace dike::sched {

RandomScheduler::RandomScheduler(util::Tick quantumTicks, int pairsPerQuantum,
                                 std::uint64_t seed)
    : quantum_(quantumTicks), pairs_(pairsPerQuantum), rng_(seed) {
  if (quantum_ < 1) throw std::invalid_argument{"quantum must be >= 1 tick"};
  if (pairs_ < 1) throw std::invalid_argument{"pairs must be >= 1"};
}

void RandomScheduler::onQuantum(SchedulerView& view) {
  std::vector<int> live;
  for (const sim::ThreadSample& s : view.sample().threads)
    if (!s.finished && s.coreId >= 0) live.push_back(s.threadId);
  if (live.size() < 2) return;

  for (int p = 0; p < pairs_; ++p) {
    const auto a = static_cast<std::size_t>(rng_.below(live.size()));
    auto b = static_cast<std::size_t>(rng_.below(live.size() - 1));
    if (b >= a) ++b;
    (void)view.swap(live[a], live[b]);
  }
}

template <class Self, class Field>
void RandomScheduler::stateFields(Self& s, Field&& field) {
  field("rng", s.rng_);
}

void RandomScheduler::saveExtraState(ckpt::BinWriter& w) const {
  stateFields(*this, ckpt::FieldWriter{w});
}

void RandomScheduler::loadExtraState(ckpt::BinReader& r,
                                     int /*threadCount*/) {
  stateFields(*this, ckpt::FieldReader{r});  // the Rng commits whole
}

}  // namespace dike::sched
