#include "core/observer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "ckpt/archive.hpp"
#include "ckpt/fields.hpp"

#include "observation_builder.hpp"

namespace dike::core {
namespace {

using testing::ObservationBuilder;

ObserverConfig quietConfig() {
  ObserverConfig cfg;
  cfg.processRateFloor = 0.0;
  return cfg;
}

TEST(Observer, NotReadyBeforeFirstObservation) {
  Observer obs;
  EXPECT_FALSE(obs.ready());
  EXPECT_EQ(obs.observedQuanta(), 0);
}

TEST(Observer, ClassifiesByMissRatioThreshold) {
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 2e7, 0.30);   // memory
  b.thread(1, 0, 1, 1e6, 0.05);   // compute
  b.thread(2, 1, 2, 5e6, 0.101);  // just above the 10% boundary
  b.thread(3, 1, 3, 5e6, 0.100);  // exactly at the boundary -> compute
  Observer obs{quietConfig()};
  obs.observe(b.get());

  EXPECT_TRUE(obs.ready());
  EXPECT_EQ(obs.memoryThreadCount(), 2);
  EXPECT_EQ(obs.computeThreadCount(), 2);
  for (const ThreadInfo& t : obs.threadsByAccessRate()) {
    if (t.threadId == 0 || t.threadId == 2)
      EXPECT_EQ(t.cls, ThreadClass::Memory) << t.threadId;
    else
      EXPECT_EQ(t.cls, ThreadClass::Compute) << t.threadId;
  }
}

TEST(Observer, IgnoresFinishedThreads) {
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 2e7, 0.3);
  b.finishedThread(1, 0);
  Observer obs{quietConfig()};
  obs.observe(b.get());
  EXPECT_EQ(obs.threadsByAccessRate().size(), 1u);
}

TEST(Observer, ThreadsSortedByAscendingRate) {
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 3e7, 0.3);
  b.thread(1, 0, 1, 1e6, 0.05);
  b.thread(2, 1, 2, 9e6, 0.2);
  Observer obs{quietConfig()};
  obs.observe(b.get());
  const auto& threads = obs.threadsByAccessRate();
  ASSERT_EQ(threads.size(), 3u);
  EXPECT_EQ(threads[0].threadId, 1);
  EXPECT_EQ(threads[1].threadId, 2);
  EXPECT_EQ(threads[2].threadId, 0);
}

TEST(Observer, WorkloadTypeClassification) {
  Observer obs{quietConfig()};
  {  // 2 memory vs 2 compute of 4 -> balanced
    ObservationBuilder b{4, 2};
    b.thread(0, 0, 0, 2e7, 0.3).thread(1, 0, 1, 2e7, 0.3);
    b.thread(2, 1, 2, 1e6, 0.05).thread(3, 1, 3, 1e6, 0.05);
    obs.observe(b.get());
    EXPECT_EQ(obs.workloadType(), WorkloadType::Balanced);
  }
  {  // 1 memory vs 7 compute -> unbalanced compute
    ObservationBuilder b{8, 2};
    b.thread(0, 0, 0, 2e7, 0.3);
    for (int i = 1; i < 8; ++i) b.thread(i, 1, i, 1e6, 0.02);
    obs.observe(b.get());
    EXPECT_EQ(obs.workloadType(), WorkloadType::UnbalancedCompute);
  }
  {  // 7 memory vs 1 compute -> unbalanced memory
    ObservationBuilder b{8, 2};
    for (int i = 0; i < 7; ++i) b.thread(i, 0, i, 2e7, 0.3);
    b.thread(7, 1, 7, 1e6, 0.02);
    obs.observe(b.get());
    EXPECT_EQ(obs.workloadType(), WorkloadType::UnbalancedMemory);
  }
}

TEST(Observer, EmptySystemIsBalancedAndFair) {
  ObservationBuilder b{4, 2};
  Observer obs{quietConfig()};
  obs.observe(b.get());
  EXPECT_EQ(obs.workloadType(), WorkloadType::Balanced);
  EXPECT_DOUBLE_EQ(obs.systemUnfairness(), 0.0);
}

TEST(Observer, SymmetricCoreBwIsMovingMean) {
  ObserverConfig cfg = quietConfig();
  cfg.symmetricMovingMean = true;
  cfg.movingMeanWindow = 2;
  cfg.socketShare = 0.0;  // isolate the per-core filter
  Observer obs{cfg};

  ObservationBuilder b1{2, 2};
  b1.thread(0, 0, 0, 1e7, 0.3);
  obs.observe(b1.get());
  EXPECT_DOUBLE_EQ(obs.coreBw(0), 1e7);

  ObservationBuilder b2{2, 2};
  b2.thread(0, 0, 0, 3e7, 0.3);
  obs.observe(b2.get());
  EXPECT_DOUBLE_EQ(obs.coreBw(0), 2e7);  // mean of {1e7, 3e7}
}

TEST(Observer, HighWaterCoreBwRisesFastFallsSlow) {
  ObserverConfig cfg = quietConfig();
  cfg.symmetricMovingMean = false;
  cfg.coreBwDecay = 0.5;
  cfg.socketShare = 0.0;
  Observer obs{cfg};

  ObservationBuilder b1{2, 2};
  b1.thread(0, 0, 0, 1e7, 0.3);
  obs.observe(b1.get());
  EXPECT_DOUBLE_EQ(obs.coreBw(0), 1e7);

  ObservationBuilder b2{2, 2};
  b2.thread(0, 0, 0, 4e7, 0.3);
  obs.observe(b2.get());
  EXPECT_DOUBLE_EQ(obs.coreBw(0), 4e7);  // rises immediately

  ObservationBuilder b3{2, 2};
  b3.thread(0, 0, 0, 1e7, 0.3);
  obs.observe(b3.get());
  EXPECT_DOUBLE_EQ(obs.coreBw(0), 0.5 * 4e7 + 0.5 * 1e7);  // decays
}

TEST(Observer, SocketBlendingLiftsSiblingEstimates) {
  ObserverConfig cfg = quietConfig();
  cfg.symmetricMovingMean = true;
  cfg.socketShare = 0.8;
  Observer obs{cfg};

  // Cores 0,1 on socket 0; cores 2,3 on socket 1.
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 5e7, 0.3);   // exercises core 0 heavily
  b.thread(1, 0, 1, 1e6, 0.05);  // core 1 barely exercised
  obs.observe(b.get());

  EXPECT_DOUBLE_EQ(obs.coreBw(0), 5e7);
  EXPECT_DOUBLE_EQ(obs.coreBw(1), 0.8 * 5e7);  // sibling silicon
  EXPECT_DOUBLE_EQ(obs.coreBw(2), 0.0);        // other socket untouched
}

TEST(Observer, IdleCoreKeepsLastEstimate) {
  ObserverConfig cfg = quietConfig();
  cfg.symmetricMovingMean = true;
  cfg.socketShare = 0.0;
  Observer obs{cfg};

  ObservationBuilder b1{2, 2};
  b1.thread(0, 0, 0, 2e7, 0.3);
  obs.observe(b1.get());

  ObservationBuilder b2{2, 2};  // core 0 now idle
  b2.thread(1, 0, 1, 1e6, 0.05);
  obs.observe(b2.get());
  EXPECT_DOUBLE_EQ(obs.coreBw(0), 2e7);
}

TEST(Observer, HighBandwidthPartitionIsTopHalf) {
  Observer obs{quietConfig()};
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 4e7, 0.3);
  b.thread(1, 0, 1, 3e7, 0.3);
  b.thread(2, 1, 2, 2e6, 0.05);
  b.thread(3, 1, 3, 1e6, 0.05);
  obs.observe(b.get());
  EXPECT_TRUE(obs.isHighBandwidthCore(0));
  EXPECT_TRUE(obs.isHighBandwidthCore(1));
  EXPECT_FALSE(obs.isHighBandwidthCore(2));
  EXPECT_FALSE(obs.isHighBandwidthCore(3));
}

TEST(Observer, UnfairnessIsWorstProcessCv) {
  Observer obs{quietConfig()};
  ObservationBuilder b{6, 2};
  // Process 0: uniform rates -> CV 0.
  b.thread(0, 0, 0, 2e7, 0.3).thread(1, 0, 1, 2e7, 0.3);
  // Process 1: dispersed rates -> CV = stddev/mean of {1e7, 3e7} = 0.5.
  b.thread(2, 1, 2, 1e7, 0.3).thread(3, 1, 3, 3e7, 0.3);
  // Process 2: single thread -> ignored.
  b.thread(4, 2, 4, 9e7, 0.3);
  obs.observe(b.get());
  EXPECT_NEAR(obs.systemUnfairness(), 0.5, 1e-9);
}

TEST(Observer, UnfairnessSkipsNoiseFloorProcesses) {
  ObserverConfig cfg = quietConfig();
  cfg.processRateFloor = 1e6;
  Observer obs{cfg};
  ObservationBuilder b{4, 2};
  // Dispersed but tiny rates: below the floor, must not register.
  b.thread(0, 0, 0, 1e3, 0.05).thread(1, 0, 1, 9e3, 0.05);
  obs.observe(b.get());
  EXPECT_DOUBLE_EQ(obs.systemUnfairness(), 0.0);
}

TEST(Observer, DeficitsMeasureStarvationWithinProcess) {
  Observer obs{quietConfig()};
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 1e7, 0.3).thread(1, 0, 1, 3e7, 0.3);
  obs.observe(b.get());
  const auto& threads = obs.threadsByAccessRate();
  ASSERT_EQ(threads.size(), 2u);
  // Mean 2e7: thread 0 starved (+0.5), thread 1 over-served (-0.5).
  EXPECT_NEAR(threads[0].deficit, 0.5, 1e-9);
  EXPECT_NEAR(threads[1].deficit, -0.5, 1e-9);
}

TEST(Observer, CumulativeRateAveragesAcrossQuanta) {
  Observer obs{quietConfig()};
  ObservationBuilder b1{2, 2};
  b1.thread(0, 0, 0, 1e7, 0.3);
  obs.observe(b1.get());
  ObservationBuilder b2{2, 2};
  b2.thread(0, 0, 0, 3e7, 0.3);
  obs.observe(b2.get());
  EXPECT_NEAR(obs.threadsByAccessRate()[0].cumAccessRate, 2e7, 1e-3);
  EXPECT_EQ(obs.observedQuanta(), 2);
}

TEST(Observer, MovingMeanRateUsesWindow) {
  ObserverConfig cfg = quietConfig();
  cfg.threadRateWindow = 2;
  Observer obs{cfg};
  for (const double rate : {1e7, 2e7, 6e7}) {
    ObservationBuilder b{2, 2};
    b.thread(0, 0, 0, rate, 0.3);
    obs.observe(b.get());
  }
  // Window 2: mean of the last two samples.
  EXPECT_NEAR(obs.threadsByAccessRate()[0].avgAccessRate, 4e7, 1e-3);
}

/// Host backend contract: DikeHost reports real PIDs as processId next to
/// its own thread ids, so no Observer index may be sized by a process id
/// (or by a negative one). A run under PID 4'000'000 (plus a negative id)
/// and sparse thread ids must match the same run relabelled to small ids
/// in every derived signal.
TEST(Observer, HostPidsAndSparseThreadIdsMatchTheSmallIdRun) {
  struct Label {
    int thread;
    int process;
  };
  using Labels = std::array<Label, 5>;
  const Labels small{{{0, 0}, {1, 0}, {2, 0}, {3, 1}, {4, 1}}};
  const Labels host{{{9000, 4'000'000},
                     {17, 4'000'000},
                     {2047, 4'000'000},
                     {5, -3},
                     {600, -3}}};
  const auto run = [](const Labels& ids, Observer& obs) {
    for (int q = 0; q < 6; ++q) {
      ObservationBuilder b{6, 2};
      for (int i = 0; i < 5; ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        const double rate = (1.0 + i) * 1e7 + 1e6 * ((q + i) % 3);
        b.thread(ids[k].thread, ids[k].process, i, rate,
                 i % 2 == 0 ? 0.3 : 0.02);
      }
      obs.observe(b.get());
    }
  };
  Observer a{quietConfig()};
  Observer b{quietConfig()};
  run(small, a);
  run(host, b);

  EXPECT_GT(a.systemUnfairness(), 0.0);
  EXPECT_EQ(a.systemUnfairness(), b.systemUnfairness());
  EXPECT_EQ(a.workloadType(), b.workloadType());
  const auto& ta = a.threadsByAccessRate();
  const auto& tb = b.threadsByAccessRate();
  ASSERT_EQ(ta.size(), small.size());
  ASSERT_EQ(tb.size(), ta.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    const Label& relabelled = host[static_cast<std::size_t>(ta[i].threadId)];
    EXPECT_EQ(tb[i].threadId, relabelled.thread) << "position " << i;
    EXPECT_EQ(tb[i].processId, relabelled.process) << "position " << i;
    EXPECT_EQ(tb[i].deficit, ta[i].deficit) << "position " << i;
    EXPECT_EQ(tb[i].cumAccessRate, ta[i].cumAccessRate) << "position " << i;
    EXPECT_EQ(tb[i].avgAccessRate, ta[i].avgAccessRate) << "position " << i;
    const ThreadInfo* found = b.findThread(relabelled.thread);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->deficit, ta[i].deficit);
  }
  EXPECT_EQ(b.findThread(-3), nullptr);
  EXPECT_EQ(b.findThread(4'000'000), nullptr);
}

TEST(Observer, NegativeThreadIdRowsAreUnobserved) {
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 2e7, 0.3).thread(-4, 0, 1, 1e7, 0.3);
  Observer obs{quietConfig()};
  obs.observe(b.get());
  ASSERT_EQ(obs.threadsByAccessRate().size(), 1u);
  EXPECT_EQ(obs.threadsByAccessRate()[0].threadId, 0);
  EXPECT_EQ(obs.findThread(-4), nullptr);
}

// Property: unfairness is scale-invariant in the rates.
class ObserverScaleProperty : public ::testing::TestWithParam<double> {};

TEST_P(ObserverScaleProperty, UnfairnessScaleInvariant) {
  const double k = GetParam();
  auto build = [&](double scale) {
    ObservationBuilder b{6, 2};
    b.thread(0, 0, 0, 1e7 * scale, 0.3).thread(1, 0, 1, 2e7 * scale, 0.3);
    b.thread(2, 1, 2, 4e6 * scale, 0.2).thread(3, 1, 3, 9e6 * scale, 0.2);
    return b;
  };
  Observer a{quietConfig()};
  a.observe(build(1.0).get());
  Observer scaled{quietConfig()};
  scaled.observe(build(k).get());
  EXPECT_NEAR(a.systemUnfairness(), scaled.systemUnfairness(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, ObserverScaleProperty,
                         ::testing::Values(0.5, 2.0, 10.0));

// --- production vs reference -----------------------------------------------

/// The Observer's contract written plainly, as the oracle for the
/// production pipeline (slot tables, one flat ring array, generation
/// stamps, bucketed ranking, per-core state over its own range only):
/// per-thread state in a std::map with one util::MovingMean each, fresh
/// per-process maps every quantum, a full std::sort of the thread list
/// every quantum, and per-core state for every machine core. saveState
/// writes the same records from that plain state.
class ReferenceObserver {
 public:
  ReferenceObserver(ObserverConfig config, int machineCores)
      : config_(config), machineCores_(machineCores) {}

  void observe(const Observation& obs) {
    const std::size_t cores = static_cast<std::size_t>(machineCores_);
    if (coreBwRaw_.size() < cores) coreBwRaw_.resize(cores, 0.0);
    if (coreBwEffective_.size() < cores) coreBwEffective_.resize(cores, 0.0);
    if (high_.size() < cores) high_.resize(cores, false);
    if (config_.symmetricMovingMean && coreBwWindow_.size() < cores)
      coreBwWindow_.resize(cores, util::MovingMean{config_.movingMeanWindow});
    std::vector<int> domain;
    for (int i = 0; i < static_cast<int>(obs.coreOccupant.size()); ++i)
      domain.push_back(obs.firstCore + i);
    const auto occupant = [&obs](std::size_t c) {
      return obs.coreOccupant[c - static_cast<std::size_t>(obs.firstCore)];
    };
    const auto socketOf = [&obs](std::size_t c) {
      return obs.coreSocket[c - static_cast<std::size_t>(obs.firstCore)];
    };

    const sim::QuantumSample& sample = obs.rows.sample();
    threads_.clear();
    memCount_ = 0;
    compCount_ = 0;
    const double periodSec =
        sample.periodTicks > 0
            ? static_cast<double>(sample.periodTicks) * util::kTickSeconds
            : 0.0;
    for (std::size_t row = 0; row < obs.rows.size(); ++row) {
      const sim::ThreadSample& s = obs.rows[row];
      if (s.finished || s.coreId < 0 || s.threadId < 0) continue;
      State& st = states_.try_emplace(s.threadId, config_).first->second;
      ThreadInfo info;
      info.threadId = s.threadId;
      info.processId = s.processId;
      info.coreId = s.coreId;
      if (!sanitize(s, st, info)) continue;
      st.rate.add(info.accessRate);
      info.avgAccessRate = st.rate.value();
      st.cumAccesses += info.accessRate * periodSec;
      st.cumSeconds += periodSec;
      st.hasCum = true;
      info.cumAccessRate =
          st.cumSeconds > 0.0 ? st.cumAccesses / st.cumSeconds : 0.0;
      info.cls = info.llcMissRatio > config_.llcMissThreshold
                     ? ThreadClass::Memory
                     : ThreadClass::Compute;
      (info.cls == ThreadClass::Memory ? memCount_ : compCount_) += 1;
      threads_.push_back(info);
    }
    // Deficits divide by the per-process mean over sample order.
    std::map<int, util::OnlineStats> bySample;
    for (const ThreadInfo& t : threads_)
      bySample[t.processId].add(t.cumAccessRate);
    for (ThreadInfo& t : threads_) {
      const double mean = bySample[t.processId].mean();
      t.deficit =
          mean > config_.processRateFloor ? 1.0 - t.cumAccessRate / mean : 0.0;
    }
    std::sort(threads_.begin(), threads_.end(),
              [](const ThreadInfo& a, const ThreadInfo& b) {
                if (a.avgAccessRate != b.avgAccessRate)
                  return a.avgAccessRate < b.avgAccessRate;
                return a.threadId < b.threadId;
              });

    for (const int core : domain) {
      const std::size_t c = static_cast<std::size_t>(core);
      const double achieved = sample.coreAchievedBw[c];
      if (occupant(c) < 0 && achieved <= 0.0) continue;
      if (config_.symmetricMovingMean) {
        coreBwWindow_[c].add(achieved);
        coreBwRaw_[c] = coreBwWindow_[c].value();
      } else if (achieved >= coreBwRaw_[c]) {
        coreBwRaw_[c] = achieved;
      } else {
        coreBwRaw_[c] = config_.coreBwDecay * coreBwRaw_[c] +
                        (1.0 - config_.coreBwDecay) * achieved;
      }
    }
    std::map<int, double> socketCap;
    for (const int c : domain) {
      double& cap = socketCap[socketOf(static_cast<std::size_t>(c))];
      cap = std::max(cap, coreBwRaw_[static_cast<std::size_t>(c)]);
    }
    std::vector<int> known;
    for (const int core : domain) {
      const std::size_t c = static_cast<std::size_t>(core);
      coreBwEffective_[c] =
          std::max(coreBwRaw_[c],
                   config_.socketShare * socketCap[socketOf(c)]);
      high_[c] = false;
      if (occupant(c) >= 0 || coreBwEffective_[c] > 0.0)
        known.push_back(core);
    }
    std::sort(known.begin(), known.end(), [this](int a, int b) {
      const double ea = coreBwEffective_[static_cast<std::size_t>(a)];
      const double eb = coreBwEffective_[static_cast<std::size_t>(b)];
      if (ea != eb) return ea > eb;
      return a < b;
    });
    for (std::size_t i = 0; i < (known.size() + 1) / 2; ++i)
      high_[static_cast<std::size_t>(known[i])] = true;

    // Unfairness: the worst per-process CV, accumulated in sorted order.
    std::map<int, util::OnlineStats> byRank;
    for (const ThreadInfo& t : threads_)
      byRank[t.processId].add(t.cumAccessRate);
    unfairness_ = 0.0;
    for (const auto& [pid, stats] : byRank)
      if (stats.count() >= 2 && stats.mean() >= config_.processRateFloor)
        unfairness_ = std::max(unfairness_, stats.coefficientOfVariation());

    const int total = memCount_ + compCount_;
    const int diff = memCount_ - compCount_;
    if (total == 0 || std::abs(diff) <= config_.balanceTolerance * total)
      type_ = WorkloadType::Balanced;
    else
      type_ = diff < 0 ? WorkloadType::UnbalancedCompute
                       : WorkloadType::UnbalancedMemory;
    ++observedQuanta_;
  }

  void resetClosedLoopState() {
    for (auto& [id, st] : states_) {
      st.rate.reset();
      st.hasHold = false;
    }
    if (config_.symmetricMovingMean)
      for (std::size_t c = 0; c < coreBwWindow_.size(); ++c) {
        coreBwWindow_[c].reset();
        if (coreBwRaw_[c] > 0.0) coreBwWindow_[c].add(coreBwRaw_[c]);
      }
  }

  [[nodiscard]] const std::vector<ThreadInfo>& threads() const {
    return threads_;
  }
  [[nodiscard]] const ThreadInfo* findThread(int id) const {
    for (const ThreadInfo& t : threads_)
      if (t.threadId == id) return &t;
    return nullptr;
  }
  [[nodiscard]] double unfairness() const { return unfairness_; }
  [[nodiscard]] WorkloadType type() const { return type_; }
  [[nodiscard]] bool isHigh(int c) const {
    return high_.at(static_cast<std::size_t>(c));
  }
  [[nodiscard]] double coreBw(int c) const {
    return coreBwEffective_.at(static_cast<std::size_t>(c));
  }

  [[nodiscard]] std::string saveState() const {
    ckpt::BinWriter w;
    w.beginSection("observer");
    w.i64("observedQuanta", observedQuanta_);
    w.i64("heldSamples", held_);
    w.i64("discardedSamples", discarded_);
    w.f64("unfairness", unfairness_);
    w.i64("workloadType", static_cast<std::int64_t>(type_));
    w.i64("memCount", memCount_);
    w.i64("compCount", compCount_);
    w.i64("threadInfoCount", static_cast<std::int64_t>(threads_.size()));
    for (const ThreadInfo& t : threads_) {
      w.beginSection("info");
      w.i64("threadId", t.threadId);
      w.i64("processId", t.processId);
      w.i64("coreId", t.coreId);
      w.f64("accessRate", t.accessRate);
      w.f64("avgAccessRate", t.avgAccessRate);
      w.f64("cumAccessRate", t.cumAccessRate);
      w.f64("deficit", t.deficit);
      w.f64("llcMissRatio", t.llcMissRatio);
      w.i64("class", static_cast<std::int64_t>(t.cls));
      w.i64("staleAge", t.staleAge);
      w.endSection();
    }
    std::int64_t rates = 0;
    std::int64_t holds = 0;
    for (const auto& [id, st] : states_) {
      rates += st.rate.empty() ? 0 : 1;
      holds += st.hasHold ? 1 : 0;
    }
    w.i64("threadRateCount", rates);
    for (const auto& [id, st] : states_) {
      if (st.rate.empty()) continue;
      w.beginSection("rate");
      w.i64("threadId", id);
      ckpt::FieldWriter{w}("window", st.rate);
      w.endSection();
    }
    w.i64("holdCount", holds);
    for (const auto& [id, st] : states_) {
      if (!st.hasHold) continue;
      w.beginSection("hold");
      w.i64("threadId", id);
      w.f64("accessRate", st.holdRate);
      w.f64("llcMissRatio", st.holdMiss);
      w.i64("age", st.holdAge);
      w.endSection();
    }
    std::vector<std::int64_t> ids;
    std::vector<double> accesses;
    std::vector<double> seconds;
    for (const auto& [id, st] : states_) {
      if (!st.hasCum) continue;
      ids.push_back(id);
      accesses.push_back(st.cumAccesses);
      seconds.push_back(st.cumSeconds);
    }
    w.vecI64("cumThreadIds", ids);
    w.vecF64("cumAccesses", accesses);
    w.vecF64("cumSeconds", seconds);
    w.vecF64("coreBwRaw", coreBwRaw_);
    w.vecF64("coreBwEffective", coreBwEffective_);
    w.i64("coreBwWindowCount", static_cast<std::int64_t>(coreBwWindow_.size()));
    for (const util::MovingMean& mm : coreBwWindow_)
      ckpt::FieldWriter{w}("coreBwWindow", mm);
    std::vector<std::int64_t> high;
    for (const bool h : high_) high.push_back(h ? 1 : 0);
    w.vecI64("highBandwidth", high);
    w.endSection();
    return w.take();
  }

 private:
  struct State {
    explicit State(const ObserverConfig& config)
        : rate{config.threadRateWindow} {}
    util::MovingMean rate;
    bool hasHold = false;
    double holdRate = 0.0;
    double holdMiss = 0.0;
    int holdAge = 0;
    bool hasCum = false;
    double cumAccesses = 0.0;
    double cumSeconds = 0.0;
  };

  bool sanitize(const sim::ThreadSample& raw, State& st, ThreadInfo& info) {
    const bool bad = raw.dropped || !std::isfinite(raw.accessRate) ||
                     raw.accessRate < 0.0 ||
                     raw.accessRate > config_.maxPlausibleRate ||
                     !std::isfinite(raw.llcMissRatio) ||
                     raw.llcMissRatio < 0.0;
    if (!bad) {
      info.accessRate = raw.accessRate;
      info.llcMissRatio = std::min(raw.llcMissRatio, 1.0);
      info.staleAge = 0;
      st.hasHold = true;
      st.holdRate = info.accessRate;
      st.holdMiss = info.llcMissRatio;
      st.holdAge = 0;
      return true;
    }
    if (!st.hasHold || st.holdAge >= config_.maxSampleHoldQuanta) {
      ++discarded_;
      return false;
    }
    ++st.holdAge;
    info.accessRate = st.holdRate;
    info.llcMissRatio = st.holdMiss;
    info.staleAge = st.holdAge;
    ++held_;
    return true;
  }

  ObserverConfig config_;
  int machineCores_;
  std::map<int, State> states_;
  std::vector<ThreadInfo> threads_;
  std::vector<double> coreBwRaw_;
  std::vector<double> coreBwEffective_;
  std::vector<util::MovingMean> coreBwWindow_;
  std::vector<bool> high_;
  double unfairness_ = 0.0;
  WorkloadType type_ = WorkloadType::Balanced;
  int memCount_ = 0;
  int compCount_ = 0;
  std::int64_t observedQuanta_ = 0;
  std::int64_t held_ = 0;
  std::int64_t discarded_ = 0;
};

std::string savedBytes(const Observer& observer) {
  ckpt::BinWriter w;
  observer.saveState(w);
  return w.take();
}

/// One seeded scenario for the reference comparison.
struct ReferenceCase {
  std::string name;
  std::uint64_t seed = 1;
  ObserverConfig config{};
  int cores = 48;
  int sockets = 4;
  /// Threads per process at start (all cores busy when threads == cores).
  int threads = 48;
  int threadsPerProcess = 8;
  /// Near-equal rates that reshuffle the order every quantum (the
  /// tenants_4096 regime), above processRateFloor so deficits and the
  /// fairness signal are live.
  double rateBase = 2e7;
  double rateNoise = 0.01;  ///< relative per-quantum noise
  double churn = 0.0;       ///< per-quantum chance a thread finishes / arrives
  double badSamples = 0.0;  ///< per-row chance of a dropped/corrupt reading
  /// Cover only cores [coverFrom, coverTo) like a cluster-scoped view: the
  /// production observer's range is fixed to them, and it reads only the
  /// covered rows, listed by index among every live thread's row.
  /// coverTo == 0 covers every core.
  int coverFrom = 0;
  int coverTo = 0;
  int quanta = 80;
  int resetAt = -1;    ///< quantum of a resetClosedLoopState, -1 = none
  int restoreAt = -1;  ///< quantum of a save/restore round trip, -1 = none
};

void PrintTo(const ReferenceCase& c, std::ostream* os) { *os << c.name; }

class ObserverReference : public ::testing::TestWithParam<ReferenceCase> {};

TEST_P(ObserverReference, MatchesThePlainReferenceEveryQuantum) {
  const ReferenceCase& rc = GetParam();
  std::mt19937_64 rng{rc.seed};
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  std::normal_distribution<double> noise{0.0, 1.0};

  struct Live {
    int id;
    int pid;
    int core;
    double base;
  };
  std::vector<Live> live;
  // Sparse, host-like ids: threads and processes are numbered with gaps.
  int nextId = 1000;
  int nextPid = 40000;
  const auto spawn = [&](int core, int pid) {
    nextId += 1 + static_cast<int>(rng() % 37);
    live.push_back(Live{nextId, pid, core,
                        rc.rateBase * (1.0 + 0.02 * noise(rng))});
  };
  for (int t = 0; t < rc.threads; ++t) {
    if (t % rc.threadsPerProcess == 0)
      nextPid += 1 + static_cast<int>(rng() % 500);
    spawn(t, nextPid);
  }
  const int coverTo = rc.coverTo > 0 ? rc.coverTo : rc.cores;
  const auto covered = [&](int core) {
    return core >= rc.coverFrom && core < coverTo;
  };

  const CoreRange range =
      rc.coverTo > 0 ? CoreRange{rc.coverFrom, coverTo - rc.coverFrom, rc.cores}
                     : CoreRange{};
  Observer production{rc.config, range};
  ReferenceObserver reference{rc.config, rc.cores};
  sim::QuantumSample sample;
  sample.periodTicks = 500;
  std::vector<int> rows;  ///< the covered rows of a cluster-scoped case
  Observation obs;
  obs.firstCore = rc.coverFrom;
  for (int c = rc.coverFrom; c < coverTo; ++c)
    obs.coreSocket.push_back(c / std::max(rc.cores / rc.sockets, 1));
  const auto local = [&rc](int core) {
    return static_cast<std::size_t>(core - rc.coverFrom);
  };

  std::vector<int> everSeen;
  for (int q = 0; q < rc.quanta; ++q) {
    SCOPED_TRACE("quantum " + std::to_string(q));
    sample.threads.clear();
    rows.clear();
    sample.coreAchievedBw.assign(static_cast<std::size_t>(rc.cores), 0.0);
    obs.coreOccupant.assign(static_cast<std::size_t>(coverTo - rc.coverFrom),
                            -1);

    // Churn: a finished thread reports one last row without a core and
    // leaves; an arrival takes the freed core under a fresh id.
    if (rc.churn > 0.0 && !live.empty() && unit(rng) < rc.churn) {
      const std::size_t k = rng() % live.size();
      sim::ThreadSample gone;
      gone.threadId = live[k].id;
      gone.processId = live[k].pid;
      gone.finished = true;
      sample.threads.push_back(gone);
      const int core = live[k].core;
      const int pid = live[k].pid;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      if (unit(rng) < 0.7) spawn(core, unit(rng) < 0.5 ? pid : ++nextPid);
    }
    // Migrations: a few swaps of cores between live threads.
    for (int m = 0; m < 2 && live.size() >= 2; ++m) {
      const std::size_t a = rng() % live.size();
      const std::size_t b = rng() % live.size();
      std::swap(live[a].core, live[b].core);
    }

    for (const Live& t : live) {
      sim::ThreadSample s;
      s.threadId = t.id;
      s.processId = t.pid;
      s.coreId = t.core;
      s.accessRate = std::max(0.0, t.base * (1.0 + rc.rateNoise * noise(rng)));
      s.llcMissRatio = 0.2 * unit(rng) + (unit(rng) < 0.02 ? 1.5 : 0.0);
      if (rc.badSamples > 0.0 && unit(rng) < rc.badSamples) {
        switch (rng() % 4) {
          case 0: s.dropped = true; break;
          case 1:
            s.accessRate = std::numeric_limits<double>::quiet_NaN();
            break;
          case 2: s.accessRate = -1.0; break;
          default: s.llcMissRatio = -0.5; break;
        }
      }
      sample.coreAchievedBw[static_cast<std::size_t>(t.core)] =
          std::isfinite(s.accessRate) ? std::max(s.accessRate, 0.0) : 0.0;
      sample.threads.push_back(s);
      if (!covered(t.core)) continue;
      rows.push_back(static_cast<int>(sample.threads.size()) - 1);
      obs.coreOccupant[local(t.core)] = t.id;
      everSeen.push_back(t.id);
    }

    if (q == rc.resetAt) {
      production.resetClosedLoopState();
      reference.resetClosedLoopState();
    }
    obs.rows = rc.coverTo > 0 ? sched::SampleRows{sample, rows}
                              : sched::SampleRows{sample};
    production.observe(obs);
    reference.observe(obs);
    if (q == rc.restoreAt) {
      Observer restored{rc.config, range};
      const std::string bytes = savedBytes(production);
      ckpt::BinReader r{bytes};
      restored.loadState(r, nextId + 1);
      production = std::move(restored);
    }

    const std::vector<ThreadInfo>& a = production.threadsByAccessRate();
    const std::vector<ThreadInfo>& b = reference.threads();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].threadId, b[i].threadId) << "rank " << i;
      EXPECT_EQ(a[i].processId, b[i].processId);
      EXPECT_EQ(a[i].coreId, b[i].coreId);
      EXPECT_EQ(a[i].accessRate, b[i].accessRate);
      EXPECT_EQ(a[i].avgAccessRate, b[i].avgAccessRate);
      EXPECT_EQ(a[i].cumAccessRate, b[i].cumAccessRate);
      EXPECT_EQ(a[i].deficit, b[i].deficit);
      EXPECT_EQ(a[i].llcMissRatio, b[i].llcMissRatio);
      EXPECT_EQ(a[i].cls, b[i].cls);
      EXPECT_EQ(a[i].staleAge, b[i].staleAge);
    }
    for (const int id : everSeen) {
      const ThreadInfo* fa = production.findThread(id);
      const ThreadInfo* fb = reference.findThread(id);
      ASSERT_EQ(fa == nullptr, fb == nullptr) << "thread " << id;
      if (fa != nullptr) {
        EXPECT_EQ(fa->threadId, id);
        EXPECT_EQ(fa->avgAccessRate, fb->avgAccessRate);
      }
    }
    EXPECT_EQ(production.findThread(-1), nullptr);
    EXPECT_EQ(production.findThread(nextId + 1), nullptr);
    EXPECT_EQ(production.systemUnfairness(), reference.unfairness());
    EXPECT_EQ(production.workloadType(), reference.type());
    for (int c = 0; c < rc.cores; ++c) {
      EXPECT_EQ(production.isHighBandwidthCore(c), reference.isHigh(c))
          << "core " << c;
      EXPECT_EQ(production.coreBw(c), reference.coreBw(c)) << "core " << c;
    }
    EXPECT_TRUE(savedBytes(production) == reference.saveState())
        << ckpt::firstDivergence(savedBytes(production), reference.saveState())
               .value_or("same bytes");
    if (::testing::Test::HasFailure()) return;  // one quantum's report
  }
  // The scenario exercised what it names.
  if (rc.badSamples > 0.0) {
    EXPECT_GT(production.heldSamples(), 0);
    EXPECT_GT(production.discardedSamples(), 0);
  }
}

std::vector<ReferenceCase> referenceCases() {
  std::vector<ReferenceCase> cases;
  {
    ReferenceCase c;
    c.name = "tenants_reshuffle";
    c.seed = 11;
    cases.push_back(c);
  }
  {
    ReferenceCase c;
    c.name = "tenants_wide_cluster_below_floor";
    c.seed = 12;
    c.rateBase = 7.8e4;  // tenants_4096's own rates: every process below
                         // processRateFloor
    c.cores = 128;
    c.threads = 128;
    c.sockets = 2;
    c.quanta = 40;
    cases.push_back(c);
  }
  {
    ReferenceCase c;
    c.name = "churn_sparse_ids";
    c.seed = 21;
    c.churn = 0.6;
    c.threads = 40;
    c.rateNoise = 0.2;
    cases.push_back(c);
  }
  {
    ReferenceCase c;
    c.name = "dropped_held_discarded";
    c.seed = 31;
    c.badSamples = 0.15;
    c.config.maxSampleHoldQuanta = 2;
    cases.push_back(c);
  }
  {
    ReferenceCase c;
    c.name = "reset_closed_loop";
    c.seed = 41;
    c.badSamples = 0.05;
    c.churn = 0.3;
    c.resetAt = 30;
    cases.push_back(c);
  }
  {
    ReferenceCase c;
    c.name = "save_restore_mid_run";
    c.seed = 51;
    c.churn = 0.3;
    c.badSamples = 0.05;
    c.restoreAt = 33;
    cases.push_back(c);
  }
  {
    ReferenceCase c;
    c.name = "cluster_scoped_asymmetric";
    c.seed = 61;
    c.coverFrom = 16;
    c.coverTo = 40;
    c.churn = 0.3;
    c.config.symmetricMovingMean = false;
    c.config.threadRateWindow = 3;
    c.restoreAt = 20;
    c.resetAt = 50;
    cases.push_back(c);
  }
  {
    ReferenceCase c;
    c.name = "spread_rates";
    c.seed = 71;
    c.rateNoise = 0.8;
    c.churn = 0.2;
    cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, ObserverReference, ::testing::ValuesIn(referenceCases()),
    [](const ::testing::TestParamInfo<ReferenceCase>& param) {
      return param.param.name;
    });

}  // namespace
}  // namespace dike::core
