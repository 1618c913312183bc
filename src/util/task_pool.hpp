// Shared worker pool for every parallel subsystem in the tree.
//
// Promoted from the sweep-only pool in exp/parallel: the experiment fan-out,
// the clustered scheduler's intra-quantum plan phase and a large machine's
// next-sample noise fill (drawn on a second job while sim::Machine::stepUntil
// steps) all draw from one process-wide jobs budget (TaskPool::shared(),
// sized by DIKE_JOBS), so nesting them never oversubscribes the machine.
//
// forEach() is the structured entry point and is safe to call from inside a
// pool task: the caller claims indices itself (caller-runs), so a sweep
// worker that fans out a nested decide phase always makes progress even
// when every other worker is busy — no thread ever blocks waiting for a
// queue slot it is itself occupying.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stop_token>
#include <thread>
#include <vector>

namespace dike::util {

/// Worker count used when a caller passes jobs <= 0: the DIKE_JOBS
/// environment variable when set to a positive integer (capped at 1024),
/// otherwise std::thread::hardware_concurrency() (at least 1). DIKE_JOBS is
/// the single parallelism knob: sweeps, the clustered decide phase, and the
/// shared pool below all derive their budget from it.
[[nodiscard]] int defaultJobs();

/// A fixed-size worker pool over a FIFO queue of forEach() helper tasks.
///
/// forEach() wraps user callables and captures their exceptions. Workers
/// are std::jthreads parked on a stop_token-aware wait: destruction
/// requests stop, wakes everyone, and drains the queue before joining, so
/// no queued helper is ever dropped.
class TaskPool {
 public:
  explicit TaskPool(int jobs = 0);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  [[nodiscard]] int jobs() const noexcept { return jobCount_; }

  /// Run fn(0..count-1), spreading indices across up to `parallelism`
  /// threads (<= 0 uses the pool width; 1 runs inline on the calling
  /// thread, propagating exceptions immediately). Blocks until every index
  /// has run. If any invocation throws, the first exception in index order
  /// is rethrown after the batch drains. Reentrant: fn may itself call
  /// forEach on the same pool.
  void forEach(std::size_t count, const std::function<void(std::size_t)>& fn,
               int parallelism = 0);

  /// The process-wide pool, created on first use with defaultJobs()
  /// workers. This is the instance every subsystem should share so one
  /// DIKE_JOBS budget bounds total parallelism.
  [[nodiscard]] static TaskPool& shared();

 private:
  /// One forEach invocation: helpers and the caller race on `next` to claim
  /// indices and count finished ones down on `remaining`; the last finisher
  /// signals `doneCv`. Heap-allocated and shared_ptr-held so a helper task
  /// that starts after the batch completed (queue backlog) can still
  /// observe next >= count and retire safely.
  struct Batch {
    explicit Batch(std::size_t n,
                   const std::function<void(std::size_t)>* f)
        : count(n), fn(f), remaining(n), errors(n) {}
    const std::size_t count;
    /// Owned by the forEach caller's frame; never dereferenced after the
    /// batch completes (no index can be claimed once next >= count).
    const std::function<void(std::size_t)>* fn;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining;  // indices not yet finished
    std::mutex mu;  // taken only around the final wake and the wait
    std::condition_variable doneCv;
    std::vector<std::exception_ptr> errors;
  };

  /// Enqueue one helper task. Must not throw (workers have no handler).
  void submit(std::function<void()> task);
  void workerLoop(const std::stop_token& stop);
  static void runBatch(Batch& batch);

  std::mutex mu_;
  std::condition_variable_any taskReady_;
  std::deque<std::function<void()>> queue_;
  int jobCount_ = 0;
  std::vector<std::jthread> workers_;
};

}  // namespace dike::util
