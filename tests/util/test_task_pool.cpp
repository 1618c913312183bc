// The shared worker pool's contract (util::TaskPool): every submitted task
// runs, forEach covers every index exactly once with the first exception
// (by index) propagated, nested forEach on the shared pool cannot
// deadlock, and destruction drains queued work via the stop token. The
// suite runs in the regular tier AND under the tsan preset (`ctest
// --preset tsan`), where the queue, the batch counters, and the shutdown
// path are exercised under race detection.
#include "util/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dike::util {
namespace {

TEST(TaskPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  TaskPool pool{4};
  EXPECT_EQ(pool.jobs(), 4);
  for (int i = 0; i < 200; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.waitIdle();
  EXPECT_EQ(count.load(), 200);
}

TEST(TaskPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  TaskPool pool{2};
  pool.waitIdle();  // must not deadlock
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.waitIdle();
  EXPECT_EQ(count.load(), 1);
}

TEST(TaskPool, SubmitFromManyThreadsLosesNothing) {
  TaskPool pool{4};
  std::atomic<int> count{0};
  {
    std::vector<std::jthread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&pool, &count] {
        for (int i = 0; i < 250; ++i)
          pool.submit([&count] {
            count.fetch_add(1, std::memory_order_relaxed);
          });
      });
    }
  }
  pool.waitIdle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(TaskPool, DestructionDrainsQueuedTasks) {
  // The stop token wakes idle workers, but a worker only exits once the
  // queue is empty — tasks accepted before destruction all run.
  std::atomic<int> count{0};
  {
    TaskPool pool{2};
    for (int i = 0; i < 500; ++i)
      pool.submit([&count] {
        count.fetch_add(1, std::memory_order_relaxed);
      });
  }  // ~TaskPool: request_stop + join
  EXPECT_EQ(count.load(), 500);
}

TEST(TaskPoolForEach, CoversEveryIndexExactlyOnce) {
  TaskPool pool{4};
  std::vector<std::atomic<int>> hits(512);
  const std::function<void(std::size_t)> bump = [&hits](std::size_t i) {
    ++hits[i];
  };
  pool.forEach(hits.size(), bump);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(TaskPoolForEach, RunsInlineAndInOrderWithOneJob) {
  TaskPool pool{4};
  std::vector<int> order;
  const std::function<void(std::size_t)> record = [&order](std::size_t i) {
    order.push_back(static_cast<int>(i));
  };
  pool.forEach(5, record, /*parallelism=*/1);
  const std::vector<int> expected{0, 1, 2, 3, 4};
  EXPECT_EQ(order, expected);
}

TEST(TaskPoolForEach, ZeroCountIsANoOp) {
  TaskPool pool{2};
  const std::function<void(std::size_t)> never = [](std::size_t) {
    FAIL() << "must not be called";
  };
  pool.forEach(0, never);
}

TEST(TaskPoolForEach, PropagatesTheFirstExceptionByIndex) {
  TaskPool pool{4};
  const std::function<void(std::size_t)> fn = [](std::size_t i) {
    if (i == 3) throw std::runtime_error{"boom-3"};
    if (i == 11) throw std::runtime_error{"boom-11"};
  };
  try {
    pool.forEach(16, fn);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom-3");
  }
  // The pool survives a throwing batch: later batches still run.
  std::atomic<int> count{0};
  const std::function<void(std::size_t)> bump = [&count](std::size_t) {
    ++count;
  };
  pool.forEach(8, bump);
  EXPECT_EQ(count.load(), 8);
}

TEST(TaskPoolForEach, NestedForEachOnTheSamePoolDoesNotDeadlock) {
  // Caller-runs design: the submitting thread works the batch itself, so
  // an inner forEach issued from a worker cannot wait on a queue no one
  // drains. This is exactly the clustered scheduler's shape when a plan
  // stage itself fans out on the shared pool.
  TaskPool pool{2};
  std::atomic<int> count{0};
  const std::function<void(std::size_t)> inner = [&count](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  };
  const std::function<void(std::size_t)> outer =
      [&pool, &inner](std::size_t) { pool.forEach(8, inner); };
  pool.forEach(8, outer);
  EXPECT_EQ(count.load(), 64);
}

TEST(TaskPoolForEach, ParallelismCapsHelperFanout) {
  // parallelism=2 on an 8-worker pool must still cover everything.
  TaskPool pool{8};
  std::atomic<int> count{0};
  const std::function<void(std::size_t)> bump = [&count](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  };
  pool.forEach(100, bump, /*parallelism=*/2);
  EXPECT_EQ(count.load(), 100);
}

TEST(TaskPoolShared, IsASingletonSizedByDefaultJobs) {
  TaskPool& a = TaskPool::shared();
  TaskPool& b = TaskPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.jobs(), 1);
  std::atomic<int> count{0};
  const std::function<void(std::size_t)> bump = [&count](std::size_t) {
    ++count;
  };
  a.forEach(16, bump);
  EXPECT_EQ(count.load(), 16);
}

TEST(TaskPoolDefaultJobs, HonoursCapsAndFallsBack) {
  ::setenv("DIKE_JOBS", "3", 1);
  EXPECT_EQ(defaultJobs(), 3);
  ::setenv("DIKE_JOBS", "0", 1);
  EXPECT_GE(defaultJobs(), 1);  // non-positive falls back to the host
  ::setenv("DIKE_JOBS", "not-a-number", 1);
  EXPECT_GE(defaultJobs(), 1);
  ::setenv("DIKE_JOBS", "99999", 1);
  EXPECT_EQ(defaultJobs(), 1024);  // capped
  ::unsetenv("DIKE_JOBS");
  EXPECT_GE(defaultJobs(), 1);
}

}  // namespace
}  // namespace dike::util
