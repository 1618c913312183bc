// The run's slowdown cursor and the per-quantum metrics stream listener.
//
// One SlowdownCursor per run feeds every consumer of the per-thread
// slowdown proxy: the quantum stream's records, the live publisher and
// the soak's SLO feed all read the one estimate it closes each quantum, so
// the file and the live plane are one measurement, not two copies.
//
// The cursor carries path-dependent state — the SlowdownEstimator's
// cumulative attained-work accumulators, the 0-based quantum counter and
// the previous quantum's end tick — so a resumed run can only append
// byte-identical records if that state is checkpointed and restored
// exactly, not recomputed. saveState/loadState serialise it into the same
// named binary archive the rest of the run state uses.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ckpt/archive.hpp"
#include "core/prediction_tracker.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/quantum_stream.hpp"
#include "telemetry/slowdown.hpp"
#include "util/types.hpp"

namespace dike::exp {

/// The run's one per-quantum slowdown estimate. RunSession chains it ahead
/// of every other listener, so by the time a consumer's afterQuantum runs
/// the cursor already describes the quantum just closed.
class SlowdownCursor final : public sched::QuantumListener {
 public:
  /// Close one quantum: feed every placed live thread's access rate over
  /// the time since the previous quantum into the estimator.
  void afterQuantum(const sim::Machine& machine,
                    const sched::SchedulerView& view,
                    sched::Scheduler& scheduler) override;

  /// Index of the quantum the estimate describes (valid after the first
  /// afterQuantum).
  [[nodiscard]] std::int64_t quantum() const noexcept { return quanta_ - 1; }
  /// Quanta estimated so far == the index the next quantum will carry.
  [[nodiscard]] std::int64_t quanta() const noexcept { return quanta_; }
  [[nodiscard]] const telemetry::SlowdownEstimator& estimate() const noexcept {
    return slowdown_;
  }

  /// Serialise the cursor (counter, last tick, slowdown accumulators) as
  /// the "quantumStream" archive section.
  void saveState(ckpt::BinWriter& w) const;
  /// Restore a cursor saved by saveState. Throws ckpt::CheckpointError on
  /// schema mismatch; the estimator is replaced wholesale.
  void loadState(ckpt::BinReader& r);

 private:
  std::int64_t quanta_ = 0;
  util::Tick lastTick_ = 0;
  telemetry::SlowdownEstimator slowdown_;
};

/// Streams one QuantumRecord per quantum to the metrics writer. For Dike
/// variants the record carries the Observer's fairness signal, workload
/// class, CoreBW partition, optimizer parameters, and the predictor's value
/// against the realised rate; other policies leave those fields NaN/-1 so
/// the schema is scheduler-independent. The record's index and slowdowns
/// come from the run's cursor.
class QuantumMetricsListener final : public sched::QuantumListener {
 public:
  QuantumMetricsListener(telemetry::QuantumStreamWriter& writer,
                         const SlowdownCursor& cursor)
      : writer_(&writer), cursor_(&cursor) {}

  void afterQuantum(const sim::Machine& machine,
                    const sched::SchedulerView& view,
                    sched::Scheduler& scheduler) override;

 private:
  telemetry::QuantumStreamWriter* writer_;
  const SlowdownCursor* cursor_;
  telemetry::QuantumRecord rec_;
  std::vector<core::ScoredPrediction> scoredList_;
  std::unordered_map<int, core::ScoredPrediction> scored_;
};

}  // namespace dike::exp
