// Checked integer restores: every int-typed counter on the checkpoint path
// narrows through util::checkedInt, so a corrupt or wildly-scaled stream
// fails the load with a typed, named error instead of silently wrapping.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <string>

#include "ckpt/archive.hpp"
#include "core/decider.hpp"
#include "core/dike_scheduler.hpp"
#include "core/observer.hpp"
#include "core/prediction_tracker.hpp"
#include "util/types.hpp"

namespace dike::core {
namespace {

TEST(CheckedInt, PassesRepresentableValues) {
  EXPECT_EQ(util::checkedInt<ckpt::CheckpointError>(std::int64_t{42}, "x"),
            42);
  EXPECT_EQ(util::checkedInt<ckpt::CheckpointError>(
                std::int64_t{std::numeric_limits<int>::max()}, "x"),
            std::numeric_limits<int>::max());
  EXPECT_EQ(util::checkedInt<ckpt::CheckpointError>(
                std::int64_t{std::numeric_limits<int>::min()}, "x"),
            std::numeric_limits<int>::min());
}

TEST(CheckedInt, ThrowsTypedErrorNamingTheField) {
  const std::int64_t big = std::int64_t{1} << 40;
  try {
    (void)util::checkedInt<ckpt::CheckpointError>(big, "some counter");
    FAIL() << "out-of-range value was accepted";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("some counter"), std::string::npos);
  }
  EXPECT_THROW((void)util::checkedInt<ckpt::CheckpointError>(
                   -(std::int64_t{1} << 40), "x"),
               ckpt::CheckpointError);
}

TEST(CheckedRestore, DeciderRejectsOutOfRangeThreadId) {
  // Hand-crafted stream in Decider::saveState's exact layout, with one
  // thread id beyond int range.
  ckpt::BinWriter w;
  w.beginSection("decider");
  const std::int64_t ids[] = {7, std::int64_t{1} << 40};
  const std::int64_t ticks[] = {100, 200};
  w.vecI64("migrationThreadIds", ids);
  w.vecI64("migrationTicks", ticks);
  w.vecI64("failureThreadIds", {});
  w.vecI64("failureTicks", {});
  w.vecI64("failureCounts", {});
  w.endSection();

  Decider decider;
  const std::string bytes = w.take();  // BinReader views, does not own
  ckpt::BinReader r{bytes};
  try {
    decider.loadState(r);
    FAIL() << "out-of-range migration thread id was accepted";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("decider/migrationThreadIds"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckedIndex, RejectsNegativeValues) {
  EXPECT_EQ(util::checkedIndex<ckpt::CheckpointError>(std::int64_t{0}, "x"),
            0);
  EXPECT_THROW((void)util::checkedIndex<ckpt::CheckpointError>(
                   std::int64_t{-1}, "x"),
               ckpt::CheckpointError);
}

TEST(CheckedRestore, PredictionTrackerRejectsNegativeThreadId) {
  // Hand-crafted head of PredictionTracker::saveState's layout: thread ids
  // key the tracker's slot table, so a negative one must not be used.
  ckpt::BinWriter w;
  w.beginSection("predictionTracker");
  const std::int64_t ids[] = {4, -2};
  const double rates[] = {1e7, 2e7};
  w.vecI64("pendingThreadIds", ids);
  w.vecF64("pendingRates", rates);
  w.endSection();

  PredictionTracker tracker;
  const std::string bytes = w.take();
  ckpt::BinReader r{bytes};
  try {
    tracker.loadState(r);
    FAIL() << "negative pending thread id was accepted";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("predictionTracker/pendingThreadIds"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckedRestore, ObserverRejectsNegativeThreadId) {
  // A valid observer stream with one thread; then the same stream with that
  // thread's id patched to -1 (ids key the observer's slot table).
  Observer observer;
  sim::QuantumSample sample;
  sample.periodTicks = 500;
  sample.coreAchievedBw = {1e7, 0.0};
  Observation obs;
  obs.sample = &sample;
  obs.coreOccupant = {5, -1};
  obs.coreSocket = {0, 0};
  sim::ThreadSample t;
  t.threadId = 5;
  t.processId = 1;
  t.coreId = 0;
  t.accessRate = 1e7;
  t.llcMissRatio = 0.1;
  sample.threads.push_back(t);
  observer.observe(obs);
  ckpt::BinWriter w;
  observer.saveState(w);
  std::string bytes = w.take();

  Observer restored;
  {
    ckpt::BinReader r{bytes};
    EXPECT_NO_THROW(restored.loadState(r));
  }
  // Patch the first "threadId" field (the thread-info record) to -1.
  const std::string key = "threadId";
  const std::size_t pos = bytes.find(key);
  ASSERT_NE(pos, std::string::npos);
  const std::uint64_t bad = static_cast<std::uint64_t>(std::int64_t{-1});
  for (int i = 0; i < 8; ++i)
    bytes[pos + key.size() + static_cast<std::size_t>(i)] =
        static_cast<char>((bad >> (8 * i)) & 0xFF);
  ckpt::BinReader r{bytes};
  EXPECT_THROW(restored.loadState(r), ckpt::CheckpointError);
}

/// An observer record with no threads and the given per-core vectors:
/// `windows` empty CoreBW windows and the `high` partition flags.
std::string observerCores(std::span<const double> raw,
                          std::span<const double> effective,
                          std::int64_t windows,
                          std::span<const std::int64_t> high) {
  ckpt::BinWriter w;
  w.beginSection("observer");
  w.i64("observedQuanta", 1);
  w.i64("heldSamples", 0);
  w.i64("discardedSamples", 0);
  w.f64("unfairness", 0.0);
  w.i64("workloadType", 0);
  w.i64("memCount", 0);
  w.i64("compCount", 0);
  w.i64("threadInfoCount", 0);
  w.i64("threadRateCount", 0);
  w.i64("holdCount", 0);
  w.vecI64("cumThreadIds", {});
  w.vecF64("cumAccesses", {});
  w.vecF64("cumSeconds", {});
  w.vecF64("coreBwRaw", raw);
  w.vecF64("coreBwEffective", effective);
  w.i64("coreBwWindowCount", windows);
  for (std::int64_t c = 0; c < windows; ++c) {
    w.beginSection("coreBwWindow");
    w.u64("window", ObserverConfig{}.movingMeanWindow);
    w.vecF64("samples", {});
    w.f64("sum", 0.0);
    w.endSection();
  }
  w.vecI64("highBandwidth", high);
  w.endSection();
  return w.take();
}

// The core-indexed estimates share one index space: resetClosedLoopState
// reads coreBwRaw for every CoreBW window, and coreBw() and the partition
// read the other two by the same core id. A restore refuses vectors that
// disagree in length, and partition flags other than 0 or 1.
TEST(CheckedRestore, ObserverCrossChecksTheCoreVectors) {
  const double two[] = {1e7, 2e7};
  const double one[] = {1e7};
  const std::int64_t flags[] = {1, 0};
  const std::int64_t threeFlags[] = {1, 0, 0};
  const std::int64_t badFlag[] = {2, 0};
  const auto restores = [](const ObserverConfig& config,
                           const std::string& bytes) {
    Observer observer{config};
    ckpt::BinReader r{bytes};
    observer.loadState(r);
    ckpt::BinWriter again;
    observer.saveState(again);
    EXPECT_EQ(again.take(), bytes);
  };
  ObserverConfig asymmetric;
  asymmetric.symmetricMovingMean = false;

  EXPECT_NO_THROW(restores({}, observerCores(two, two, 2, flags)));
  EXPECT_NO_THROW(restores(asymmetric, observerCores(two, two, 0, flags)));
  EXPECT_NO_THROW(restores(asymmetric, observerCores(two, two, 2, flags)));
  struct Case {
    const char* what;
    std::string bytes;
    const char* field;
  };
  const Case cases[] = {
      {"effective shorter than raw", observerCores(two, one, 2, flags),
       "observer/coreBwEffective"},
      {"more windows than raw", observerCores(one, one, 2, flags),
       "observer/coreBwWindowCount"},
      {"no windows under the symmetric filter",
       observerCores(two, two, 0, flags), "observer/coreBwWindowCount"},
      {"partition longer than raw", observerCores(two, two, 2, threeFlags),
       "observer/highBandwidth"},
      {"partition flag 2", observerCores(two, two, 2, badFlag),
       "observer/highBandwidth"},
      {"negative window count", observerCores(two, two, -1, flags),
       "observer/coreBwWindowCount"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    Observer observer;
    ckpt::BinReader r{c.bytes};
    try {
      observer.loadState(r);
      ADD_FAILURE() << "accepted";
    } catch (const ckpt::CheckpointError& e) {
      EXPECT_NE(std::string{e.what()}.find(c.field), std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckedRestore, DeciderRejectsOutOfRangeFailureCount) {
  ckpt::BinWriter w;
  w.beginSection("decider");
  w.vecI64("migrationThreadIds", {});
  w.vecI64("migrationTicks", {});
  const std::int64_t ids[] = {3};
  const std::int64_t ticks[] = {50};
  const std::int64_t counts[] = {std::int64_t{1} << 33};
  w.vecI64("failureThreadIds", ids);
  w.vecI64("failureTicks", ticks);
  w.vecI64("failureCounts", counts);
  w.endSection();

  Decider decider;
  const std::string bytes = w.take();
  ckpt::BinReader r{bytes};
  EXPECT_THROW(decider.loadState(r), ckpt::CheckpointError);
}

/// Overwrite the 8-byte payload of the first i64 field called `name` in a
/// serialized archive (tag, u32 name length, name bytes, little-endian
/// payload).
std::string patchI64(std::string bytes, std::string_view name,
                     std::int64_t value) {
  const std::size_t pos = bytes.find(name);
  EXPECT_NE(pos, std::string::npos) << "field " << name << " not found";
  std::size_t off = pos + name.size();
  for (int i = 0; i < 8; ++i)
    bytes[off + static_cast<std::size_t>(i)] = static_cast<char>(
        (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xFF);
  return bytes;
}

TEST(CheckedRestore, DikeSchedulerRejectsOutOfRangeSwapSize) {
  DikeScheduler source;
  ckpt::BinWriter w;
  source.saveState(w);
  const std::string corrupted =
      patchI64(w.take(), "swapSize", std::int64_t{1} << 40);

  DikeScheduler target;
  ckpt::BinReader r{corrupted};
  try {
    target.loadState(r);
    FAIL() << "out-of-range swapSize was accepted";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("swapSize"), std::string::npos);
  }
}

TEST(CheckedRestore, DikeSchedulerRoundTripsUncorrupted) {
  DikeScheduler source;
  ckpt::BinWriter w;
  source.saveState(w);

  DikeScheduler target;
  const std::string bytes = w.take();
  ckpt::BinReader r{bytes};
  EXPECT_NO_THROW(target.loadState(r));
}

}  // namespace
}  // namespace dike::core
