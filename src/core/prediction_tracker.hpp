// Prediction-error accounting for the runtime-predictability evaluation
// (Section IV-C, Figures 7 and 8).
//
// Each quantum the scheduler registers a predicted next-quantum access rate
// for every live thread (its current rate if it stays put — "if a thread
// stays on the same core, we expect it to keep the same access rate" — or
// the predictor's post-swap estimate if it migrates). On the next sample
// the tracker computes signed relative errors against the measured rates.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace dike::core {

/// Per-quantum error aggregate (one point of the Figure 8 time series).
struct PredictionErrorPoint {
  util::Tick tick = 0;
  int samples = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};
/// Its field list, shared by the checkpoint and the run report.
constexpr auto kPredictionErrorPointFields = [](auto& p, auto&& field) {
  field("tick", p.tick);
  field("samples", p.samples);
  field("mean", p.mean);
  field("min", p.min);
  field("max", p.max);
};

/// One (predicted, realised) pair from the most recent scoring pass —
/// the telemetry quantum stream emits these so predictor error is directly
/// plottable per quantum.
struct ScoredPrediction {
  int threadId = -1;
  double predicted = 0.0;
  double actual = 0.0;
  /// Signed relative error; NaN when the pair fell below the scoring
  /// floors (near-idle rates) and was excluded from the error statistics.
  double error = 0.0;
};

class PredictionTracker {
 public:
  /// Access rates below this are not scored: relative error against a
  /// near-zero denominator is meaningless (idle or nearly idle threads).
  static constexpr double kMinScoredRate = 1e6;
  /// Relative errors are computed against max(actual, this floor) so a
  /// thread dropping to a near-idle rate does not register an unbounded
  /// error.
  static constexpr double kDenominatorFloor = 4e6;

  /// Register the predicted access rate for a thread's next quantum.
  /// Thread ids index the tracker's slot table: a negative id throws
  /// std::invalid_argument.
  void setPrediction(int threadId, double predictedRate);

  /// Register a prediction only if the thread has none outstanding.
  void setPredictionIfAbsent(int threadId, double predictedRate);

  /// Score outstanding predictions against the new sample's rows (read in
  /// place); records one trace point (stamped with `now`) and folds the
  /// errors into per-thread aggregates. Clears the outstanding predictions.
  void scoreQuantum(const sched::SampleRows& rows, util::Tick now);

  /// Time series of per-quantum error aggregates (Figure 8).
  [[nodiscard]] const std::vector<PredictionErrorPoint>& trace()
      const noexcept {
    return trace_;
  }

  /// Every (predicted, realised) pair from the most recent scoreQuantum
  /// call, including pairs below the scoring floors (their error is NaN).
  [[nodiscard]] const std::vector<ScoredPrediction>& lastScored()
      const noexcept {
    return lastScored_;
  }

  /// Mean signed relative error of each thread over the whole run, in
  /// thread-id order of first appearance (Figure 7 summarises these).
  [[nodiscard]] std::vector<double> perThreadMeanErrors() const;

  /// All scored errors folded together.
  [[nodiscard]] const util::OnlineStats& overall() const noexcept {
    return overall_;
  }

  /// Divergence watchdog (resilience layer): arm it with an error threshold
  /// and a consecutive-quantum count. After arming, scoreQuantum flags
  /// divergence when the quantum-mean signed error magnitude stays at or
  /// above `errorThreshold` for `quanta` consecutive scored quanta with at
  /// least two samples each — the signature of a poisoned closed loop, not
  /// of ordinary noise. Disarmed (the default) nothing is ever flagged.
  void armDivergenceWatchdog(double errorThreshold, int quanta);
  [[nodiscard]] bool divergenceDetected() const noexcept { return diverged_; }
  /// Consecutive saturated quanta seen so far (for tests/telemetry).
  [[nodiscard]] int divergenceStreak() const noexcept {
    return divergenceStreak_;
  }
  /// Clear the flag and streak after the caller has reset its state.
  void acknowledgeDivergence() noexcept {
    diverged_ = false;
    divergenceStreak_ = 0;
  }

  void reset();

  /// Serialize outstanding predictions, per-thread aggregates, the error
  /// trace, and the watchdog streak. Watchdog *configuration* (threshold,
  /// quanta) is not state — the owner re-arms it from its config on rebuild.
  void saveState(ckpt::BinWriter& w) const;
  /// Refuses, with a CheckpointError naming the field, a thread id at or
  /// above `threadCount` before any slot is sized by it.
  void loadState(ckpt::BinReader& r, int threadCount);

 private:
  /// One thread's outstanding prediction. Created on first use, never
  /// freed; errors_ holds the thread's whole-run error aggregate under the
  /// same index, apart from these 16 bytes that scoring and persistence
  /// touch for every thread every quantum.
  struct Slot {
    double pending = 0.0;
    /// The prediction is outstanding while this equals round_.
    std::uint32_t pendingRound = 0;
    bool scored = false;  ///< errors_ holds at least one scored quantum
  };
  /// Slot index of a thread, or -1 when it has none (or the id is negative).
  [[nodiscard]] int slotIndex(int threadId) const noexcept;
  /// Slot index of a thread, created on first use.
  int slotFor(int threadId);
  /// The checkpoint field list, run by saveState and loadState; restored
  /// thread ids must lie below `threadCount`.
  template <class Self, class Field>
  static void stateFields(Self& self, Field&& field, int threadCount);

  std::vector<Slot> slots_;
  std::vector<util::OnlineStats> errors_;  ///< per slot
  /// Thread id -> index into slots_ (-1 when absent), dense by thread id.
  std::vector<int> slotOfThread_;
  /// Stamp of the predictions registered for the next scoreQuantum, which
  /// spends them all by moving to the next round — no per-slot clearing.
  std::uint32_t round_ = 1;
  std::vector<int> threadOrder_;
  std::vector<PredictionErrorPoint> trace_;
  std::vector<ScoredPrediction> lastScored_;
  util::OnlineStats overall_;
  bool watchdogArmed_ = false;
  double watchdogThreshold_ = 0.0;
  int watchdogQuanta_ = 0;
  int divergenceStreak_ = 0;
  bool diverged_ = false;
};

}  // namespace dike::core
