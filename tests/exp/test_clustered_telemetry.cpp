// Clustered Dike telemetry reports the cluster instances that decided. The
// quantum stream's unfairness, per-core observer columns and predictions,
// and the run report's prediction errors are each checked against the
// instances themselves, read through a listener chained after the stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/clustered_scheduler.hpp"
#include "exp/config_io.hpp"
#include "exp/replay.hpp"
#include "telemetry/quantum_stream.hpp"
#include "util/json.hpp"

namespace dike::exp {
namespace {

struct ExpectedRow {
  double coreBw = 0.0;
  bool highBw = false;
};

struct ExpectedQuantum {
  double unfairness = 0.0;    ///< lastQuantumStats().unfairness
  double worstCluster = 0.0;  ///< max over the instances' own unfairness
  bool allReady = true;       ///< every cluster observer has observed
  std::map<int, ExpectedRow> rows;  ///< by thread id, once allReady
};

/// Reads, after every quantum, what the stream must say — straight from
/// the cluster instances, not through the interface the stream uses.
class InstanceRecorder final : public sched::QuantumListener {
 public:
  void afterQuantum(const sim::Machine& /*machine*/,
                    const sched::SchedulerView& view,
                    sched::Scheduler& scheduler) override {
    const auto* clustered =
        dynamic_cast<const core::ClusteredDikeScheduler*>(&scheduler);
    ASSERT_NE(clustered, nullptr);
    clusterOfCore = clustered->clusterOfCore();
    ExpectedQuantum q;
    q.unfairness = clustered->lastQuantumStats().unfairness;
    for (int k = 0; k < clustered->resolvedClusters(); ++k) {
      const core::DikeScheduler& sub = clustered->clusterScheduler(k);
      q.worstCluster =
          std::max(q.worstCluster, sub.lastQuantumStats().unfairness);
      q.allReady = q.allReady && sub.observer().ready();
    }
    if (q.allReady) {
      for (const sim::ThreadSample& s : view.sample().threads) {
        if (s.finished || s.coreId < 0) continue;
        const core::Observer& own =
            clustered
                ->clusterScheduler(
                    clusterOfCore[static_cast<std::size_t>(s.coreId)])
                .observer();
        q.rows[s.threadId] =
            ExpectedRow{own.coreBw(s.coreId), own.isHighBandwidthCore(s.coreId)};
      }
    }
    quanta.push_back(std::move(q));
  }

  std::vector<ExpectedQuantum> quanta;
  std::vector<int> clusterOfCore;
};

std::vector<util::JsonValue> parseLines(const std::string& text) {
  std::vector<util::JsonValue> records;
  std::istringstream in{text};
  for (std::string line; std::getline(in, line);)
    records.push_back(util::parseJson(line));
  return records;
}

/// The thread rows of one stream record (a copy: JsonValue::get returns
/// one, so a reference into it would dangle).
util::JsonArray threadRows(const util::JsonValue& record) {
  return record.get("threads")->asArray();
}

/// Thread id -> core of every row of one stream record.
std::map<int, int> coresByThread(const util::JsonValue& record) {
  std::map<int, int> cores;
  for (const util::JsonValue& row : threadRows(record))
    cores[row.intOr("thread", -1)] = row.intOr("core", -1);
  return cores;
}

TEST(ClusteredTelemetry, StreamReportsTheInstancesThatDecided) {
  const RunSpec spec = firstCellRunSpec(parseExperimentConfig(
      util::parseJsonFile(std::string{DIKE_CONFIG_DIR} +
                          "/decide_jobs_equivalence.json")));
  ASSERT_TRUE(spec.dikeConfig.has_value());
  ASSERT_GE(spec.dikeConfig->cluster.clusters, 2);

  std::ostringstream text;
  telemetry::QuantumStreamWriter writer{text,
                                        telemetry::StreamFormat::JsonLines};
  RunSession session{spec};
  session.attachQuantumStream(writer);
  InstanceRecorder recorder;
  session.addQuantumListener(recorder);
  const RunMetrics metrics = session.finish();

  const std::vector<util::JsonValue> records = parseLines(text.str());
  ASSERT_EQ(records.size(), recorder.quanta.size());
  ASSERT_GT(records.size(), 2u);

  int swappedQuanta = 0;
  int rowsChecked = 0;
  int movedThreadsChecked = 0;
  // Scored rows per tick: the merged prediction trace must match these.
  std::map<util::Tick, int> scoredRowsAt;
  for (std::size_t q = 0; q < records.size(); ++q) {
    const util::JsonValue& record = records[q];
    const ExpectedQuantum& expected = recorder.quanta[q];
    EXPECT_EQ(record.numberOr("unfairness", -1.0), expected.unfairness)
        << "quantum " << q;
    EXPECT_EQ(expected.unfairness, expected.worstCluster) << "quantum " << q;
    if (record.intOr("swaps_executed", 0) > 0) {
      ++swappedQuanta;
      EXPECT_GT(expected.unfairness, 0.0)
          << "quantum " << q << " swapped while reporting a fair machine";
    }
    const util::JsonArray rows = threadRows(record);
    for (const util::JsonValue& row : rows) {
      if (!row.get("prediction_error")->isNull())
        ++scoredRowsAt[static_cast<util::Tick>(record.numberOr("tick", -1))];
      if (!expected.allReady) continue;
      const auto it = expected.rows.find(row.intOr("thread", -1));
      ASSERT_NE(it, expected.rows.end()) << "quantum " << q;
      EXPECT_EQ(row.numberOr("core_bw_estimate", -1.0), it->second.coreBw)
          << "quantum " << q << " thread " << it->first;
      EXPECT_EQ(row.get("high_bw_core")->dump(),
                it->second.highBw ? "true" : "false")
          << "quantum " << q << " thread " << it->first;
      ++rowsChecked;
    }

    // A thread Dike moved inside its cluster at the end of the previous
    // quantum carries that move's prediction and what it realised.
    if (q == 0 || records[q - 1].intOr("swaps_executed", 0) == 0) continue;
    const std::map<int, int> before = coresByThread(records[q - 1]);
    for (const util::JsonValue& row : rows) {
      const auto was = before.find(row.intOr("thread", -1));
      const int core = row.intOr("core", -1);
      if (was == before.end() || was->second == core) continue;
      if (recorder.clusterOfCore[static_cast<std::size_t>(was->second)] !=
          recorder.clusterOfCore[static_cast<std::size_t>(core)])
        continue;  // a rebalancer move: the new cluster holds no prediction
      EXPECT_FALSE(row.get("predicted_rate")->isNull())
          << "quantum " << q << " thread " << was->first;
      EXPECT_FALSE(row.get("realized_rate")->isNull())
          << "quantum " << q << " thread " << was->first;
      ++movedThreadsChecked;
    }
  }
  EXPECT_GT(swappedQuanta, 0);
  EXPECT_GT(rowsChecked, 0);
  EXPECT_GT(movedThreadsChecked, 0);

  EXPECT_TRUE(metrics.hasPredictions);
  ASSERT_EQ(metrics.predTrace.size(), scoredRowsAt.size());
  for (const core::PredictionErrorPoint& point : metrics.predTrace) {
    const auto it = scoredRowsAt.find(point.tick);
    ASSERT_NE(it, scoredRowsAt.end()) << "tick " << point.tick;
    EXPECT_EQ(point.samples, it->second) << "tick " << point.tick;
  }
}

}  // namespace
}  // namespace dike::exp
