#include "util/task_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "util/log.hpp"

namespace dike::util {

int defaultJobs() {
  if (const char* env = std::getenv("DIKE_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0)
      return static_cast<int>(std::min<long>(v, 1024));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

TaskPool::TaskPool(int jobs) {
  jobCount_ = jobs > 0 ? jobs : defaultJobs();
  workers_.reserve(static_cast<std::size_t>(jobCount_));
  for (int i = 0; i < jobCount_; ++i)
    workers_.emplace_back([this, i](const std::stop_token& stop) {
      // Tag the worker's log lines so interleaved output is attributable.
      util::Log::setThreadTag("w" + std::to_string(i));
      workerLoop(stop);
    });
}

TaskPool::~TaskPool() {
  for (std::jthread& w : workers_) w.request_stop();
  // condition_variable_any's stop_token wait self-wakes on request_stop;
  // std::jthread joins on destruction and workers drain the queue first.
}

void TaskPool::submit(std::function<void()> task) {
  {
    const std::lock_guard lock{mu_};
    queue_.push_back(std::move(task));
    ++unfinished_;
  }
  taskReady_.notify_one();
}

void TaskPool::waitIdle() {
  std::unique_lock lock{mu_};
  idle_.wait(lock, [this] { return unfinished_ == 0; });
}

void TaskPool::workerLoop(const std::stop_token& stop) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock{mu_};
      // Returns false only when stop was requested AND the queue is empty:
      // a stopping pool still drains every task that was submitted.
      if (!taskReady_.wait(lock, stop, [this] { return !queue_.empty(); }))
        return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      const std::lock_guard lock{mu_};
      --unfinished_;
      if (unfinished_ == 0) idle_.notify_all();
    }
  }
}

void TaskPool::runBatch(Batch& batch) {
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.count) return;
    try {
      (*batch.fn)(i);
    } catch (...) {
      batch.errors[i] = std::current_exception();
    }
    // Each decrement releases this index's errors[i] write; the waiter's
    // acquire load of 0 reads the last of the decrements, which all belong
    // to one release sequence, so it sees every write. Only the final
    // decrement takes the mutex, so that its wake cannot slip between the
    // waiter's check and its sleep.
    if (batch.remaining.fetch_sub(1, std::memory_order_release) == 1) {
      { const std::lock_guard lock{batch.mu}; }
      batch.doneCv.notify_all();
    }
  }
}

void TaskPool::forEach(std::size_t count,
                       const std::function<void(std::size_t)>& fn,
                       int parallelism) {
  if (count == 0) return;
  int par = parallelism > 0 ? parallelism : jobCount_;
  par = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(par), count));
  if (par <= 1) {
    // Inline fast path: no queueing, and exceptions propagate from the
    // faulting index immediately (serial semantics).
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  const auto batch = std::make_shared<Batch>(count, &fn);
  // Caller-runs: the calling thread claims indices like any helper, so the
  // batch finishes even when every pool worker is busy (or when the caller
  // IS a pool worker — nested forEach). Helpers beyond the pool width would
  // only ever queue behind each other, so cap at jobs().
  const int helpers = std::min(par - 1, jobCount_);
  for (int h = 0; h < helpers; ++h)
    submit([batch] { runBatch(*batch); });
  runBatch(*batch);
  {
    std::unique_lock lock{batch->mu};
    batch->doneCv.wait(lock, [&] {
      return batch->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  // Take the exceptions onto this thread: a late helper may drop the last
  // reference to the batch, and its release of an exception the caller is
  // still handling is ordered only by libstdc++'s uninstrumented reference
  // count, which ThreadSanitizer reports as a race.
  const std::vector<std::exception_ptr> errors = std::move(batch->errors);
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

TaskPool& TaskPool::shared() {
  static TaskPool pool{defaultJobs()};
  return pool;
}

}  // namespace dike::util
