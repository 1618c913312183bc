// Per-quantum metrics stream: CSV/NDJSON serialisation, schema stability,
// determinism across identical runs, and leap-equivalence of the stream.
#include "telemetry/quantum_stream.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "../support/lockstep.hpp"
#include "exp/runner.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace telemetry = dike::telemetry;

namespace {

telemetry::QuantumRecord sampleRecord() {
  telemetry::QuantumRecord record;
  record.tick = 500;
  record.quantumIndex = 0;
  record.scheduler = "dike";
  record.unfairness = 0.25;
  record.workloadClass = "balanced";
  record.quantaLengthMs = 500;
  record.swapSize = 8;
  record.swapsExecuted = 2;
  record.migrationsExecuted = 1;
  telemetry::QuantumThreadRecord t;
  t.threadId = 3;
  t.processId = 0;
  t.coreId = 17;
  t.accessRate = 1.5e6;
  t.llcMissRatio = 0.4;
  t.coreAchievedBw = 2.0e6;
  t.coreBwEstimate = std::numeric_limits<double>::quiet_NaN();
  t.highBandwidthCore = 1;
  t.predictedRate = 1.4e6;
  t.realizedRate = 1.5e6;
  t.predictionError = -0.0667;
  record.threads.push_back(t);
  return record;
}

using dike::test::slurp;

TEST(QuantumStream, FormatFollowsExtension) {
  EXPECT_EQ(telemetry::streamFormatForPath("out.csv"),
            telemetry::StreamFormat::Csv);
  EXPECT_EQ(telemetry::streamFormatForPath("out.jsonl"),
            telemetry::StreamFormat::JsonLines);
  EXPECT_EQ(telemetry::streamFormatForPath("dir.jsonl/out.ndjson"),
            telemetry::StreamFormat::JsonLines);
  EXPECT_EQ(telemetry::streamFormatForPath("out"),
            telemetry::StreamFormat::Csv);
}

TEST(QuantumStream, CsvHeaderMatchesColumnContract) {
  std::ostringstream out;
  telemetry::QuantumStreamWriter writer{out, telemetry::StreamFormat::Csv};
  writer.write(sampleRecord());

  std::istringstream lines{out.str()};
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(dike::util::parseCsvLine(header),
            telemetry::QuantumStreamWriter::csvColumns());

  std::string row;
  ASSERT_TRUE(std::getline(lines, row));
  const std::vector<std::string> cells = dike::util::parseCsvLine(row);
  ASSERT_EQ(cells.size(),
            telemetry::QuantumStreamWriter::csvColumns().size());
  EXPECT_EQ(cells[0], "500");   // tick
  EXPECT_EQ(cells[2], "dike");  // scheduler
  EXPECT_EQ(cells[3], "3");     // thread
}

TEST(QuantumStream, NanSerialisesAsEmptyCsvCellAndJsonNull) {
  const telemetry::QuantumRecord record = sampleRecord();

  std::ostringstream csv;
  telemetry::QuantumStreamWriter csvWriter{csv, telemetry::StreamFormat::Csv};
  csvWriter.write(record);
  std::istringstream lines{csv.str()};
  std::string header, row;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  const std::vector<std::string>& columns =
      telemetry::QuantumStreamWriter::csvColumns();
  const std::vector<std::string> cells = dike::util::parseCsvLine(row);
  const auto column = [&columns](const std::string& name) {
    for (std::size_t i = 0; i < columns.size(); ++i)
      if (columns[i] == name) return i;
    throw std::runtime_error{"missing column " + name};
  };
  EXPECT_TRUE(cells[column("core_bw_estimate")].empty())
      << "NaN must become an empty CSV cell";
  EXPECT_FALSE(cells[column("predicted_rate")].empty());

  std::ostringstream jsonl;
  telemetry::QuantumStreamWriter jsonWriter{jsonl,
                                            telemetry::StreamFormat::JsonLines};
  jsonWriter.write(record);
  const dike::util::JsonValue doc = dike::util::parseJson(jsonl.str());
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.intOr("tick", -1), 500);
  const auto threads = doc.get("threads");
  ASSERT_TRUE(threads.has_value() && threads->isArray());
  ASSERT_EQ(threads->asArray().size(), 1u);
  const dike::util::JsonValue& thread = threads->asArray().front();
  EXPECT_TRUE(thread.get("core_bw_estimate")->isNull())
      << "NaN must become a JSON null";
  EXPECT_NEAR(thread.numberOr("predicted_rate", 0.0), 1.4e6, 1.0);
}

TEST(QuantumStream, FileWriterRejectsUnwritablePath) {
  EXPECT_THROW(
      telemetry::QuantumStreamFile{"/nonexistent-dir/deep/qm.csv"},
      std::runtime_error);
}

// --- JSON Lines: direct emission against the JsonValue tree --------------

// The writer used to build each record as a util::JsonObject and dump() it.
// That construction lives on here as the reference: the direct emitter must
// reproduce its bytes (sorted keys, NaN as null, the integer rule) exactly.
dike::util::JsonValue jsonNumberOrNull(double v) {
  if (std::isnan(v)) return dike::util::JsonValue{nullptr};
  return dike::util::JsonValue{v};
}

std::string referenceJsonLine(const telemetry::QuantumRecord& record) {
  using dike::util::JsonValue;
  dike::util::JsonArray threads;
  for (const telemetry::QuantumThreadRecord& t : record.threads) {
    dike::util::JsonObject o;
    o.emplace("thread", t.threadId);
    o.emplace("process", t.processId);
    o.emplace("core", t.coreId);
    o.emplace("high_bw_core", t.highBandwidthCore < 0
                                  ? JsonValue{nullptr}
                                  : JsonValue{t.highBandwidthCore != 0});
    o.emplace("access_rate", jsonNumberOrNull(t.accessRate));
    o.emplace("llc_miss_ratio", jsonNumberOrNull(t.llcMissRatio));
    o.emplace("core_achieved_bw", jsonNumberOrNull(t.coreAchievedBw));
    o.emplace("core_bw_estimate", jsonNumberOrNull(t.coreBwEstimate));
    o.emplace("predicted_rate", jsonNumberOrNull(t.predictedRate));
    o.emplace("realized_rate", jsonNumberOrNull(t.realizedRate));
    o.emplace("prediction_error", jsonNumberOrNull(t.predictionError));
    o.emplace("slowdown", jsonNumberOrNull(t.slowdown));
    threads.emplace_back(std::move(o));
  }
  dike::util::JsonObject doc;
  doc.emplace("tick", static_cast<double>(record.tick));
  doc.emplace("quantum", static_cast<double>(record.quantumIndex));
  doc.emplace("scheduler", record.scheduler);
  doc.emplace("unfairness", jsonNumberOrNull(record.unfairness));
  doc.emplace("fairness_spread", jsonNumberOrNull(record.fairnessSpread));
  doc.emplace("workload_class", record.workloadClass.empty()
                                    ? JsonValue{nullptr}
                                    : JsonValue{record.workloadClass});
  doc.emplace("quanta_length_ms", record.quantaLengthMs);
  doc.emplace("swap_size", record.swapSize);
  doc.emplace("swaps_executed", static_cast<double>(record.swapsExecuted));
  doc.emplace("migrations_executed",
              static_cast<double>(record.migrationsExecuted));
  doc.emplace("threads", std::move(threads));
  return JsonValue{std::move(doc)}.dump() + "\n";
}

/// A double from the shapes that stress the number text: NaN, +-inf, -0.0,
/// integer-valued doubles on both sides of the 1e15 integer cutoff, raw bit
/// patterns, and ordinary rates and ratios.
double randomField(dike::util::Rng& rng) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  switch (rng.below(8)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return rng.below(2) == 0 ? inf : -inf;
    case 2: return -0.0;
    case 3: {
      const double near = 1e15 + static_cast<double>(rng.below(9)) - 4.0;
      return rng.below(2) == 0 ? near : -near;
    }
    case 4: {
      const double edge = rng.below(2) == 0 ? 1e15 : -1e15;
      return std::nextafter(edge, rng.below(2) == 0 ? 0.0 : edge * 2);
    }
    case 5: return std::bit_cast<double>(rng());
    case 6: return std::round(rng.uniform(-1e7, 1e7));
    default: return rng.uniform(-2.0, 2.0) * std::pow(10.0, rng.uniform(-9, 9));
  }
}

std::int64_t randomCount(dike::util::Rng& rng) {
  // Mostly small counters; sometimes past 1e15, where the integer rule
  // hands over to %.17g.
  if (rng.below(4) == 0)
    return static_cast<std::int64_t>(rng.below(std::uint64_t{1} << 62));
  return static_cast<std::int64_t>(rng.below(100000)) - 10;
}

telemetry::QuantumRecord randomRecord(dike::util::Rng& rng) {
  static const char* const kSchedulers[] = {"dike", "cfs", "",
                                            "a\"quote\\slash\x01ctl"};
  static const char* const kClasses[] = {"", "balanced", "memory-bound",
                                         "tab\tand \"quote\""};
  telemetry::QuantumRecord r;
  r.tick = randomCount(rng);
  r.quantumIndex = randomCount(rng);
  r.scheduler = kSchedulers[rng.below(4)];
  r.unfairness = randomField(rng);
  r.workloadClass = kClasses[rng.below(4)];
  r.quantaLengthMs = static_cast<int>(rng.below(2000)) - 1;
  r.swapSize = static_cast<int>(rng.below(64)) - 1;
  r.swapsExecuted = randomCount(rng);
  r.migrationsExecuted = randomCount(rng);
  r.fairnessSpread = randomField(rng);
  const std::uint64_t threads = rng.below(5);
  for (std::uint64_t i = 0; i < threads; ++i) {
    telemetry::QuantumThreadRecord t;
    t.threadId = static_cast<int>(rng.below(5000)) - 1;
    t.processId = static_cast<int>(rng.below(600)) - 1;
    t.coreId = static_cast<int>(rng.below(4096)) - 2;
    t.highBandwidthCore = static_cast<int>(rng.below(3)) - 1;
    t.accessRate = randomField(rng);
    t.llcMissRatio = randomField(rng);
    t.coreAchievedBw = randomField(rng);
    t.coreBwEstimate = randomField(rng);
    t.predictedRate = randomField(rng);
    t.realizedRate = randomField(rng);
    t.predictionError = randomField(rng);
    t.slowdown = randomField(rng);
    r.threads.push_back(t);
  }
  return r;
}

TEST(QuantumStream, JsonLineMatchesTreeDump) {
  std::ostringstream out;
  telemetry::QuantumStreamWriter writer{out,
                                        telemetry::StreamFormat::JsonLines};
  const auto check = [&](const telemetry::QuantumRecord& record,
                         const std::string& label) {
    out.str("");
    writer.write(record);
    EXPECT_EQ(out.str(), referenceJsonLine(record)) << label;
  };

  check(sampleRecord(), "sample record");
  telemetry::QuantumRecord empty;
  check(empty, "default record: no threads, no workload class");

  dike::util::Rng rng{0x0E5C'A9E5ULL};
  for (int i = 0; i < 5000; ++i) {
    check(randomRecord(rng), "random record " + std::to_string(i));
    if (HasFailure()) break;  // one readable diff, not thousands
  }
  EXPECT_EQ(writer.recordsWritten(), 5002);
}

// --- end-to-end: the stream a real run produces -------------------------

dike::exp::RunSpec streamSpec(const std::string& qmPath, bool leaping = true) {
  dike::exp::RunSpec spec;
  spec.workloadId = 2;
  spec.kind = dike::exp::SchedulerKind::Dike;
  spec.scale = 0.05;
  spec.seed = 42;
  spec.machine.tickLeaping = leaping;
  spec.telemetry.quantumMetricsPath = qmPath;
  return spec;
}

TEST(QuantumStream, RunProducesSchemaConformingRows) {
  const std::string path = ::testing::TempDir() + "qs_run.csv";
  (void)dike::exp::runWorkload(streamSpec(path));

  std::ifstream in{path};
  ASSERT_TRUE(in.is_open());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  const std::vector<std::string>& columns =
      telemetry::QuantumStreamWriter::csvColumns();
  ASSERT_EQ(dike::util::parseCsvLine(header), columns);
  const auto column = [&columns](const std::string& name) {
    for (std::size_t i = 0; i < columns.size(); ++i)
      if (columns[i] == name) return i;
    throw std::runtime_error{"missing column " + name};
  };

  int rows = 0;
  int rowsWithPrediction = 0;
  std::int64_t lastTick = -1;
  for (std::string line; std::getline(in, line);) {
    const std::vector<std::string> cells = dike::util::parseCsvLine(line);
    ASSERT_EQ(cells.size(), columns.size()) << "row " << rows;
    const std::int64_t tick = std::stoll(cells[column("tick")]);
    EXPECT_GE(tick, lastTick) << "ticks must be non-decreasing";
    lastTick = tick;
    EXPECT_EQ(cells[column("scheduler")], "dike");
    EXPECT_FALSE(cells[column("access_rate")].empty());
    if (!cells[column("predicted_rate")].empty()) {
      ++rowsWithPrediction;
      EXPECT_FALSE(cells[column("realized_rate")].empty())
          << "a scored prediction always carries its realised rate";
    }
    ++rows;
  }
  EXPECT_GT(rows, 0);
  EXPECT_GT(rowsWithPrediction, 0)
      << "Dike runs must stream predicted vs realised rates";
}

TEST(QuantumStream, RunPopulatesSlowdownAndFairnessSpreadColumns) {
  const std::string path = ::testing::TempDir() + "qs_slowdown.csv";
  (void)dike::exp::runWorkload(streamSpec(path));

  std::ifstream in{path};
  ASSERT_TRUE(in.is_open());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  const std::vector<std::string>& columns =
      telemetry::QuantumStreamWriter::csvColumns();
  const auto column = [&columns](const std::string& name) {
    for (std::size_t i = 0; i < columns.size(); ++i)
      if (columns[i] == name) return i;
    throw std::runtime_error{"missing column " + name};
  };
  int slowdownRows = 0;
  int spreadRows = 0;
  int rows = 0;
  for (std::string line; std::getline(in, line);) {
    const std::vector<std::string> cells = dike::util::parseCsvLine(line);
    ++rows;
    if (!cells[column("slowdown")].empty()) {
      const double sd = std::stod(cells[column("slowdown")]);
      EXPECT_GE(sd, 1.0) << "the front-runner defines slowdown 1";
      ++slowdownRows;
    }
    if (!cells[column("fairness_spread")].empty()) {
      EXPECT_GE(std::stod(cells[column("fairness_spread")]), 1.0);
      ++spreadRows;
    }
  }
  EXPECT_GT(rows, 0);
  EXPECT_GT(slowdownRows, 0)
      << "multi-thread processes must report per-thread slowdowns";
  EXPECT_GT(spreadRows, 0);
}

TEST(QuantumStream, IdenticalRunsProduceIdenticalStreams) {
  const std::string a = ::testing::TempDir() + "qs_det_a.csv";
  const std::string b = ::testing::TempDir() + "qs_det_b.csv";
  (void)dike::exp::runWorkload(streamSpec(a));
  (void)dike::exp::runWorkload(streamSpec(b));
  const std::string bytesA = slurp(a);
  ASSERT_FALSE(bytesA.empty());
  EXPECT_EQ(bytesA, slurp(b));
}

TEST(QuantumStream, TickLeapingDoesNotChangeTheStream) {
  const std::string leap = ::testing::TempDir() + "qs_leap.csv";
  const std::string step = ::testing::TempDir() + "qs_step.csv";
  (void)dike::exp::runWorkload(streamSpec(leap, /*leaping=*/true));
  (void)dike::exp::runWorkload(streamSpec(step, /*leaping=*/false));
  const std::string leapBytes = slurp(leap);
  ASSERT_FALSE(leapBytes.empty());
  EXPECT_EQ(leapBytes, slurp(step))
      << "event-batched stepping must be observationally equivalent";
}

}  // namespace
