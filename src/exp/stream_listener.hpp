// The per-quantum metrics stream listener, shared by runWorkload and
// checkpointed/supervised runs (it used to live anonymously in runner.cpp).
//
// Extraction exists for one reason: crash-tolerant resume. The listener
// carries path-dependent state — the SlowdownEstimator's cumulative
// attained-work accumulators, the 0-based quantum counter, and the previous
// quantum's end tick — and a resumed run can only append byte-identical
// NDJSON records if that state is checkpointed and restored exactly, not
// recomputed. saveState/loadState serialise it into the same named binary
// archive the rest of the run state uses.
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

/// Streams one QuantumRecord per quantum to the metrics writer. For Dike
/// variants the record carries the Observer's fairness signal, workload
/// class, CoreBW partition, optimizer parameters, and the predictor's value
/// against the realised rate; other policies leave those fields NaN/-1 so
/// the schema is scheduler-independent.
class QuantumMetricsListener final : public sched::QuantumListener {
 public:
  explicit QuantumMetricsListener(telemetry::QuantumStreamWriter& writer)
      : writer_(&writer) {}

  void afterQuantum(const sim::Machine& machine,
                    const sched::SchedulerView& view,
                    sched::Scheduler& scheduler) override;

  /// Records emitted so far == the index the next record will carry.
  [[nodiscard]] std::int64_t quantumIndex() const noexcept {
    return quantumIndex_;
  }

  /// Serialise the stream cursor (counter, last tick, slowdown
  /// accumulators) as one archive section.
  void saveState(ckpt::BinWriter& w) const;
  /// Restore a cursor saved by saveState. Throws ckpt::CheckpointError on
  /// schema mismatch; the estimator is replaced wholesale.
  void loadState(ckpt::BinReader& r);

 private:
  telemetry::QuantumStreamWriter* writer_;
  std::int64_t quantumIndex_ = 0;
  util::Tick lastTick_ = 0;
  telemetry::SlowdownEstimator slowdown_;
  telemetry::QuantumRecord rec_;
  std::vector<core::ScoredPrediction> scoredList_;
  std::unordered_map<int, core::ScoredPrediction> scored_;
};

}  // namespace dike::exp
