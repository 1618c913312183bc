// Per-quantum slowdown proxy. Each run owns one estimator, inside its
// slowdown cursor (exp::SlowdownCursor, exp/stream_listener.hpp), which
// closes it once per quantum; the quantum stream, the live publisher
// and the soak's SLO feed all read that one estimate, so the file and the
// live plane report the same numbers by construction.
//
// The simulator has no cycle-accurate IPC, so slowdown is approximated from
// cumulative attained work: each quantum every live thread accumulates
// accessRate * dtSeconds; a thread's slowdown is its process's front-runner
// cumulative work divided by its own (>= 1 by construction, 1 for the
// front-runner itself). This mirrors the paper's "slowest thread holds the
// process back" fairness argument: within a process, all threads run the
// same code, so the spread in attained work between siblings is a direct
// proxy for the heterogeneity-induced slowdown.
//
// Only processes with >= 2 live threads contribute (a singleton thread has
// no sibling to compare against). fairnessSpread() is the max slowdown over
// contributing threads (the min is 1 by construction), NaN when no process
// qualifies.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

namespace dike::telemetry {

class SlowdownEstimator {
 public:
  /// Persistent per-thread state for checkpointing: the cumulative attained
  /// work is path-dependent (floating-point accumulation order matters), so
  /// a resumed stream is only byte-identical to the uninterrupted one if it
  /// restarts from the exact accumulators, not a recomputation.
  struct ThreadSnapshot {
    int threadId = -1;
    int processId = -1;
    double cum = 0.0;
  };

  /// Start a quantum; `dtSeconds` is the wall time the quantum covered.
  void beginQuantum(double dtSeconds) noexcept {
    dt_ = dtSeconds;
    seen_.clear();
  }

  /// Report one live thread's access rate this quantum.
  void add(int threadId, int processId, double accessRate) {
    auto& thread = threads_[threadId];
    thread.processId = processId;
    thread.cum += accessRate * dt_;
    seen_.push_back(threadId);
  }

  /// Close the quantum: computes per-thread slowdowns and the spread over
  /// the threads reported since beginQuantum().
  void finishQuantum() {
    // Front-runner cumulative work per process, over live threads only:
    // finished threads stop accumulating and would otherwise drag the
    // denominator down forever.
    frontRunner_.clear();
    counts_.clear();
    for (const int id : seen_) {
      const auto& thread = threads_[id];
      auto [it, fresh] = frontRunner_.try_emplace(thread.processId, thread.cum);
      if (!fresh && thread.cum > it->second) it->second = thread.cum;
      ++counts_[thread.processId];
    }
    // A thread not reported this quantum (finished or descheduled) has no
    // current slowdown — stale values must not leak out of slowdownOf().
    for (auto& [id, thread] : threads_)
      thread.slowdown = std::numeric_limits<double>::quiet_NaN();
    spread_ = std::numeric_limits<double>::quiet_NaN();
    for (const int id : seen_) {
      auto& thread = threads_[id];
      const bool eligible =
          counts_[thread.processId] >= 2 && thread.cum > 0.0;
      thread.slowdown = eligible
                            ? frontRunner_[thread.processId] / thread.cum
                            : std::numeric_limits<double>::quiet_NaN();
      if (eligible && !(thread.slowdown <= spread_)) spread_ = thread.slowdown;
    }
  }

  /// This quantum's slowdown for `threadId`; NaN when the thread was not
  /// reported, its process has < 2 live threads, or it has no work yet.
  [[nodiscard]] double slowdownOf(int threadId) const noexcept {
    const auto it = threads_.find(threadId);
    return it == threads_.end() ? std::numeric_limits<double>::quiet_NaN()
                                : it->second.slowdown;
  }

  /// Max slowdown across eligible threads this quantum (min is 1 by
  /// construction); NaN when nothing was eligible.
  [[nodiscard]] double fairnessSpread() const noexcept { return spread_; }

  /// The persistent state, sorted by threadId (deterministic archive
  /// order). Per-quantum transients (slowdowns, spread) are recomputed by
  /// the next finishQuantum() and are not part of the snapshot.
  [[nodiscard]] std::vector<ThreadSnapshot> snapshot() const {
    std::vector<ThreadSnapshot> out;
    out.reserve(threads_.size());
    for (const auto& [id, thread] : threads_)
      out.push_back({id, thread.processId, thread.cum});
    std::sort(out.begin(), out.end(),
              [](const ThreadSnapshot& a, const ThreadSnapshot& b) {
                return a.threadId < b.threadId;
              });
    return out;
  }

  /// Replace the persistent state with a snapshot (restore path).
  void restore(const std::vector<ThreadSnapshot>& state) {
    threads_.clear();
    for (const ThreadSnapshot& t : state) {
      ThreadState& thread = threads_[t.threadId];
      thread.processId = t.processId;
      thread.cum = t.cum;
    }
    seen_.clear();
    spread_ = std::numeric_limits<double>::quiet_NaN();
  }

 private:
  struct ThreadState {
    int processId = -1;
    double cum = 0.0;  ///< cumulative accessRate * dt across quanta
    double slowdown = std::numeric_limits<double>::quiet_NaN();
  };

  double dt_ = 0.0;
  std::unordered_map<int, ThreadState> threads_;
  std::vector<int> seen_;  ///< threads reported this quantum (reused)
  std::unordered_map<int, double> frontRunner_;  ///< per-process max cum
  std::unordered_map<int, int> counts_;  ///< per-process live-thread count
  double spread_ = std::numeric_limits<double>::quiet_NaN();
};

}  // namespace dike::telemetry
