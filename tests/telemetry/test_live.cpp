// Live publishing: publish() -> registry histograms / SLO monitor, on the
// calling thread. These tests double as the ThreadSanitizer suite (LABELS
// tsan): concurrent publishers, concurrent /metrics renders, SLO attach
// and detach, and racing enable-flag toggles must all be clean.
#include "telemetry/live.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "telemetry/promhttp.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"

namespace telemetry = dike::telemetry;

namespace {

class LivePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset();
    telemetry::setEnabled(true);
    telemetry::setLiveEnabled(true);
  }
  void TearDown() override {
    telemetry::setLiveEnabled(false);
    telemetry::setEnabled(false);
    reset();
  }
  static void reset() {
    telemetry::setSlo(nullptr);
    telemetry::updateLiveState(telemetry::LiveState{});
    telemetry::Registry::instance().resetAll();
  }
};

std::uint64_t histogramCount(const char* name) {
  return telemetry::Registry::instance().histogram(name).snapshot().count;
}

TEST_F(LivePipelineTest, PublishedRecordsLandInRegistryHistograms) {
  for (int i = 0; i < 100; ++i)
    telemetry::publish(telemetry::EventKind::ThreadSlowdown, 1.0 + 0.01 * i);
  telemetry::publish(telemetry::EventKind::DecideLatency, 1234.0);
  // Synchronous: the values are in the histograms the moment publish()
  // returns, with no flush in between.
  EXPECT_EQ(histogramCount("live.slowdown"), 100u);
  EXPECT_EQ(histogramCount("live.decide_latency_ns"), 1u);
  EXPECT_DOUBLE_EQ(telemetry::Registry::instance()
                       .histogram("live.decide_latency_ns")
                       .snapshot()
                       .sum,
                   1234.0);
}

TEST_F(LivePipelineTest, PublishingWhileLiveDisabledProducesNothing) {
  telemetry::setLiveEnabled(false);
  for (int i = 0; i < 50; ++i)
    telemetry::publish(telemetry::EventKind::ThreadSlowdown, 2.0);
  EXPECT_EQ(histogramCount("live.slowdown"), 0u);
}

TEST_F(LivePipelineTest, PublishFeedsTheAttachedSloMonitor) {
  telemetry::SloConfig config;
  config.enabled = true;
  config.maxFairnessSpread = 1.25;
  config.windowQuanta = 2;
  telemetry::SloMonitor slo{config};
  telemetry::setSlo(&slo);
  EXPECT_EQ(telemetry::slo(), &slo);

  telemetry::publish(telemetry::EventKind::FairnessSpread, 2.0, /*quantum=*/0);
  telemetry::publish(telemetry::EventKind::FairnessSpread, 2.0, /*quantum=*/1);
  EXPECT_EQ(slo.breaches(), 1);
  EXPECT_EQ(slo.firstBreachQuantum(), 1);
  EXPECT_EQ(
      telemetry::Registry::instance().counter("slo.breaches").value(), 1u);

  // Once detached, the monitor sees nothing more.
  telemetry::setSlo(nullptr);
  EXPECT_EQ(telemetry::slo(), nullptr);
  telemetry::publish(telemetry::EventKind::FairnessSpread, 1.0, 2);
  telemetry::publish(telemetry::EventKind::FairnessSpread, 1.0, 3);
  EXPECT_TRUE(slo.inBreach()) << "no recovery observed after detaching";
  EXPECT_EQ(histogramCount("live.fairness_spread"), 4u);
}

// Accounting under concurrency: four threads publish while a fifth renders
// /metrics over and over. Every published record is in the histogram
// count exactly; publish() has no path that drops one.
TEST_F(LivePipelineTest, ConcurrentProducersLoseNothingUnaccounted) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  std::atomic<bool> done{false};
  std::thread scraper{[&done] {
    do {
      (void)telemetry::renderPrometheusText();
    } while (!done.load(std::memory_order_acquire));
  }};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p] {
      for (int i = 0; i < kPerProducer; ++i)
        telemetry::publish(telemetry::EventKind::ThreadSlowdown, 1.0 + p);
    });
  }
  for (std::thread& t : producers) t.join();
  done.store(true, std::memory_order_release);
  scraper.join();

  const telemetry::HistogramSnapshot snap =
      telemetry::Registry::instance().histogram("live.slowdown").snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_DOUBLE_EQ(snap.sum, kPerProducer * (1.0 + 2.0 + 3.0 + 4.0));
}

// The pure race test for TSan: publishers feed the SLO monitor while one
// thread flips setLiveEnabled/setEnabled, another attaches and detaches
// the monitor, and a third renders /metrics. No counts asserted: the
// property under test is the absence of data races.
TEST_F(LivePipelineTest, EnableTogglingRacesAreClean) {
  telemetry::SloConfig config;
  config.enabled = true;
  config.windowQuanta = 4;
  telemetry::SloMonitor slo{config};

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int p = 0; p < 2; ++p) {
    workers.emplace_back([&stop] {
      std::int64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        telemetry::publish(telemetry::EventKind::FairnessSpread, 1.5, ++i);
        telemetry::publish(telemetry::EventKind::PredictionError, 0.1, i);
      }
    });
  }
  workers.emplace_back([&stop] {
    bool on = false;
    while (!stop.load(std::memory_order_acquire)) {
      telemetry::setLiveEnabled(on);
      telemetry::setEnabled(!on);
      on = !on;
    }
    telemetry::setLiveEnabled(true);
    telemetry::setEnabled(true);
  });
  workers.emplace_back([&stop, &slo] {
    bool attach = true;
    while (!stop.load(std::memory_order_acquire)) {
      telemetry::setSlo(attach ? &slo : nullptr);
      attach = !attach;
    }
    telemetry::setSlo(nullptr);
  });
  workers.emplace_back([&stop] {
    while (!stop.load(std::memory_order_acquire))
      (void)telemetry::renderPrometheusText();
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : workers) t.join();
  SUCCEED() << "no data race reported";
}

// Live placement snapshot: last write wins, reads never tear.
TEST_F(LivePipelineTest, LiveStateRoundTripsUnderConcurrentUpdates) {
  std::atomic<bool> stop{false};
  std::thread writer{[&] {
    std::int64_t q = 0;
    while (!stop.load(std::memory_order_acquire)) {
      telemetry::LiveState state;
      state.tick = q * 1000;
      state.quantum = q;
      state.scheduler = "dike";
      state.cores.resize(4);
      for (int c = 0; c < 4; ++c) {
        state.cores[c].core = c;
        state.cores[c].thread = c;
        state.cores[c].slowdown = 1.0;
      }
      telemetry::updateLiveState(std::move(state));
      ++q;
    }
  }};
  for (int i = 0; i < 2000; ++i) {
    const telemetry::LiveState got = telemetry::liveState();
    if (got.quantum > 0) {
      EXPECT_EQ(got.tick, got.quantum * 1000) << "torn snapshot";
      EXPECT_EQ(got.scheduler, "dike");
      EXPECT_EQ(got.cores.size(), 4u);
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

}  // namespace
