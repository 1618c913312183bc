#include "sched/suspension.hpp"

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/fields.hpp"
#include "util/stats.hpp"

namespace dike::sched {

SuspensionScheduler::SuspensionScheduler(util::Tick quantumTicks,
                                         double margin)
    : quantum_(quantumTicks), margin_(margin) {
  if (quantum_ < 1) throw std::invalid_argument{"quantum must be >= 1 tick"};
  if (margin_ <= 0.0) throw std::invalid_argument{"margin must be > 0"};
}

void SuspensionScheduler::onQuantum(SchedulerView& view) {
  // Accumulate progress and group live threads by process. A dropped read
  // carries no numbers (its fields are zeroed), so the thread keeps its
  // last cumulative value.
  std::map<int, util::OnlineStats> progressByProcess;
  std::map<int, std::vector<const sim::ThreadSample*>> threadsByProcess;
  for (const sim::ThreadSample& s : view.sample().threads) {
    if (s.finished || s.coreId < 0) continue;
    if (!s.dropped) cumulativeInstructions_[s.threadId] += s.instructions;
    progressByProcess[s.processId].add(
        cumulativeInstructions_[s.threadId]);
    threadsByProcess[s.processId].push_back(&s);
  }

  for (const auto& [processId, threads] : threadsByProcess) {
    // A process advances only through its running threads. When none of
    // them retired an instruction this quantum, its suspended threads are
    // all it has left: a leader whose siblings have finished, or leaders
    // the others wait for at a barrier (a miscounting counter can make a
    // thread that is behind look ahead). Resume them, or the run stalls.
    // A dropped read shows nothing either way, so it does not count as a
    // stall: only reads that arrived and retired nothing do.
    bool advanced = false;
    for (const sim::ThreadSample* s : threads)
      advanced = advanced || (!view.isSuspended(s->threadId) &&
                              (s->dropped || s->instructions > 0.0));
    if (!advanced) {
      for (const sim::ThreadSample* s : threads)
        if (view.isSuspended(s->threadId)) view.resume(s->threadId);
      continue;
    }
    if (threads.size() < 2) continue;
    const double mean = progressByProcess[processId].mean();
    if (mean <= 0.0) continue;
    for (const sim::ThreadSample* s : threads) {
      const double lead =
          cumulativeInstructions_[s->threadId] / mean - 1.0;
      if (!view.isSuspended(s->threadId) && lead > margin_) {
        view.suspend(s->threadId);
        ++suspensions_;
      } else if (view.isSuspended(s->threadId) && lead < margin_ / 2.0) {
        view.resume(s->threadId);
      }
    }
  }
}

template <class Self, class Field>
void SuspensionScheduler::stateFields(Self& s, Field&& field) {
  field.keyed("cumulativeThreadIds", s.cumulativeInstructions_,
              [](auto& instructions, auto&& column) {
                column("cumulativeInstructions", instructions);
              });
  field("suspensions", s.suspensions_);
}

void SuspensionScheduler::saveExtraState(ckpt::BinWriter& w) const {
  stateFields(*this, ckpt::FieldWriter{w});
}

void SuspensionScheduler::loadExtraState(ckpt::BinReader& r,
                                          int /*threadCount*/) {
  SuspensionScheduler fresh = *this;
  stateFields(fresh, ckpt::FieldReader{r});
  *this = std::move(fresh);
}

}  // namespace dike::sched
