#include "exp/config_io.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "../support/lockstep.hpp"
#include "exp/replay.hpp"
#include "exp/supervise.hpp"

namespace dike::exp {
namespace {

using util::parseJson;

TEST(ConfigIo, DefaultsWhenEmpty) {
  const ExperimentConfig config = parseExperimentConfig(parseJson("{}"));
  EXPECT_EQ(config.workloadIds.size(), 16u);
  EXPECT_EQ(config.kinds, allSchedulerKinds());
  EXPECT_DOUBLE_EQ(config.scale, 0.5);
  EXPECT_EQ(config.seed, 42u);
  EXPECT_EQ(config.reps, 1);
  EXPECT_TRUE(config.heterogeneous);
}

TEST(ConfigIo, WorkloadSelectors) {
  EXPECT_EQ(parseExperimentConfig(parseJson(R"({"workloads":"all"})"))
                .workloadIds.size(),
            16u);
  EXPECT_EQ(parseExperimentConfig(parseJson(R"({"workloads":"B"})"))
                .workloadIds.size(),
            6u);
  EXPECT_EQ(parseExperimentConfig(parseJson(R"({"workloads":"UC"})"))
                .workloadIds,
            (std::vector<int>{7, 8, 9, 10, 11}));
  EXPECT_EQ(parseExperimentConfig(parseJson(R"({"workloads":[3,12]})"))
                .workloadIds,
            (std::vector<int>{3, 12}));
}

TEST(ConfigIo, SchedulerNames) {
  const ExperimentConfig config = parseExperimentConfig(
      parseJson(R"({"schedulers":["dike-af","random","static-oracle"]})"));
  EXPECT_EQ(config.kinds,
            (std::vector<SchedulerKind>{SchedulerKind::DikeAF,
                                        SchedulerKind::Random,
                                        SchedulerKind::StaticOracle}));
  EXPECT_EQ(schedulerKindFromName("cfs"), SchedulerKind::Cfs);
  EXPECT_THROW({ [[maybe_unused]] auto k = schedulerKindFromName("bogus"); },
               std::runtime_error);
}

TEST(ConfigIo, MachineAndDikeOverrides) {
  const ExperimentConfig config = parseExperimentConfig(parseJson(R"({
    "machine": {"conflictSpread": 0.05, "llcPerSocketMB": 12,
                "controllerAccessesPerSec": 1e8},
    "dike": {"swapSize": 4, "quantaLengthMs": 200,
             "fairnessThreshold": 0.1, "useFreeCores": false}
  })"));
  EXPECT_DOUBLE_EQ(config.machine.conflictSpread, 0.05);
  EXPECT_DOUBLE_EQ(config.machine.llcPerSocketMB, 12.0);
  EXPECT_DOUBLE_EQ(config.machine.memory.controllerAccessesPerSec, 1e8);
  EXPECT_EQ(config.dike.params.swapSize, 4);
  EXPECT_EQ(config.dike.params.quantaLengthMs, 200);
  EXPECT_DOUBLE_EQ(config.dike.fairnessThreshold, 0.1);
  EXPECT_FALSE(config.dike.useFreeCores);
  // Untouched fields keep their defaults.
  EXPECT_DOUBLE_EQ(config.dike.swapOhMs, core::DikeConfig{}.swapOhMs);
}

TEST(ConfigIo, LivePublishAndSloSectionsParse) {
  const ExperimentConfig config = parseExperimentConfig(parseJson(
      R"({"telemetry": {"enabled": true, "livePublish": true},
          "slo": {"enabled": true, "maxFairnessSpread": 1.5,
                  "windowQuanta": 50, "warmupQuanta": 10}})"));
  EXPECT_TRUE(config.telemetry.enabled);
  EXPECT_TRUE(config.telemetry.run.livePublish);
  EXPECT_TRUE(config.telemetry.run.any())
      << "livePublish alone must attach run telemetry to a cell";
  EXPECT_TRUE(config.slo.enabled);
  EXPECT_DOUBLE_EQ(config.slo.maxFairnessSpread, 1.5);
  EXPECT_EQ(config.slo.windowQuanta, 50);
  EXPECT_EQ(config.slo.warmupQuanta, 10);
  // Both sections default to off/disabled when absent.
  const ExperimentConfig defaults = parseExperimentConfig(parseJson("{}"));
  EXPECT_FALSE(defaults.telemetry.run.livePublish);
  EXPECT_FALSE(defaults.slo.enabled);
}

TEST(ConfigIo, RejectsInvalidDocuments) {
  for (const char* bad : {
           "[]",
           R"({"workloads":"XX"})",
           R"({"workloads":[99]})",
           R"({"workloads":[]})",
           R"({"workloads":["wl1"]})",
           R"({"schedulers":["nope"]})",
           R"({"schedulers":[]})",
           R"({"schedulers":"dike"})",
           R"({"scale":0})",
           R"({"reps":0})",
           R"({"slo":{"enabled":"yes"}})",
           R"({"slo":{"maxFairnessSpread":0.5}})",
           R"({"slo":{"windowQuanta":0}})",
           R"({"slo":"tight"})",
       }) {
    EXPECT_THROW(
        { [[maybe_unused]] auto c = parseExperimentConfig(parseJson(bad)); },
        std::exception)
        << bad;
  }
}

// Every user field of MachineConfig and DikeConfig (observer, resilience
// and cluster included), each set to a non-default value.
constexpr const char* kEveryField = R"({
  "workloads": [3], "schedulers": ["dike-af"],
  "machine": {
    "controllerAccessesPerSec": 1.5e8, "socketLinkAccessesPerSec": 1.1e8,
    "smtSharedFactor": 0.5, "migrationStallTicks": 7, "cacheColdTicks": 30,
    "cacheColdFactor": 1.5, "cacheColdSlowdown": 0.8, "llcPerSocketMB": 12,
    "llcPressureFactor": 0.3, "conflictSpread": 0.05,
    "measurementNoiseSigma": 0.02, "idlePowerW": 3, "dynamicPowerW": 9,
    "refFreqGhz": 2.5, "tickLeaping": false, "utilizationSnapEpsilon": 1e-5
  },
  "dike": {
    "swapSize": 4, "quantaLengthMs": 200, "fairnessThreshold": 0.05,
    "swapOhMs": 30, "cooldownQuanta": 2, "minCooldownMs": 300,
    "requirePositiveProfit": false, "rotateWhenNoViolator": false,
    "pairRateMargin": 0.04, "useFreeCores": false,
    "observer": {
      "llcMissThreshold": 0.2, "coreBwDecay": 0.8,
      "symmetricMovingMean": false, "movingMeanWindow": 5,
      "socketShare": 0.7, "balanceTolerance": 0.2, "threadRateWindow": 4,
      "processRateFloor": 1e6, "sanitizeSamples": false,
      "maxSampleHoldQuanta": 3, "maxPlausibleRate": 1e12
    },
    "resilience": {
      "divergenceWatchdog": false, "divergenceErrorThreshold": 0.5,
      "divergenceQuanta": 4, "fairnessWatchdog": false,
      "fairnessStallQuanta": 12, "fallbackQuanta": 6,
      "failedActuationCooldownQuanta": 2
    },
    "cluster": {
      "clusters": 3, "rebalanceQuanta": 4, "rebalanceThreshold": 0.05,
      "rebalanceStreak": 2, "rebalanceBudget": 1, "decideJobs": 2
    }
  }
})";

/// kEveryField's values, except cluster.decideJobs (an execution knob the
/// run spec does not carry).
void expectEveryField(const sim::MachineConfig& m, const core::DikeConfig& d) {
  EXPECT_EQ(m.memory.controllerAccessesPerSec, 1.5e8);
  EXPECT_EQ(m.memory.socketLinkAccessesPerSec, 1.1e8);
  EXPECT_EQ(m.smtSharedFactor, 0.5);
  EXPECT_EQ(m.migrationStallTicks, 7);
  EXPECT_EQ(m.cacheColdTicks, 30);
  EXPECT_EQ(m.cacheColdFactor, 1.5);
  EXPECT_EQ(m.cacheColdSlowdown, 0.8);
  EXPECT_EQ(m.llcPerSocketMB, 12.0);
  EXPECT_EQ(m.llcPressureFactor, 0.3);
  EXPECT_EQ(m.conflictSpread, 0.05);
  EXPECT_EQ(m.measurementNoiseSigma, 0.02);
  EXPECT_EQ(m.idlePowerW, 3.0);
  EXPECT_EQ(m.dynamicPowerW, 9.0);
  EXPECT_EQ(m.refFreqGhz, 2.5);
  EXPECT_FALSE(m.tickLeaping);
  EXPECT_EQ(m.utilizationSnapEpsilon, 1e-5);

  EXPECT_EQ(d.params, (core::DikeParams{4, 200}));
  EXPECT_EQ(d.fairnessThreshold, 0.05);
  EXPECT_EQ(d.swapOhMs, 30.0);
  EXPECT_EQ(d.cooldownQuanta, 2);
  EXPECT_EQ(d.minCooldownMs, 300);
  EXPECT_FALSE(d.requirePositiveProfit);
  EXPECT_FALSE(d.rotateWhenNoViolator);
  EXPECT_EQ(d.pairRateMargin, 0.04);
  EXPECT_FALSE(d.useFreeCores);

  const core::ObserverConfig& o = d.observer;
  EXPECT_EQ(o.llcMissThreshold, 0.2);
  EXPECT_EQ(o.coreBwDecay, 0.8);
  EXPECT_FALSE(o.symmetricMovingMean);
  EXPECT_EQ(o.movingMeanWindow, 5u);
  EXPECT_EQ(o.socketShare, 0.7);
  EXPECT_EQ(o.balanceTolerance, 0.2);
  EXPECT_EQ(o.threadRateWindow, 4u);
  EXPECT_EQ(o.processRateFloor, 1e6);
  EXPECT_FALSE(o.sanitizeSamples);
  EXPECT_EQ(o.maxSampleHoldQuanta, 3);
  EXPECT_EQ(o.maxPlausibleRate, 1e12);

  const core::ResilienceConfig& r = d.resilience;
  EXPECT_FALSE(r.divergenceWatchdog);
  EXPECT_EQ(r.divergenceErrorThreshold, 0.5);
  EXPECT_EQ(r.divergenceQuanta, 4);
  EXPECT_FALSE(r.fairnessWatchdog);
  EXPECT_EQ(r.fairnessStallQuanta, 12);
  EXPECT_EQ(r.fallbackQuanta, 6);
  EXPECT_EQ(r.failedActuationCooldownQuanta, 2);

  EXPECT_EQ(d.cluster.clusters, 3);
  EXPECT_EQ(d.cluster.rebalanceQuanta, 4);
  EXPECT_EQ(d.cluster.rebalanceThreshold, 0.05);
  EXPECT_EQ(d.cluster.rebalanceStreak, 2);
  EXPECT_EQ(d.cluster.rebalanceBudget, 1);
}

/// Every key of `defaults` has a different value in `set` (recursing into
/// sections): kEveryField leaves no encoded field at its default.
void expectNoDefaultLeft(const util::JsonObject& defaults,
                         const util::JsonObject& set,
                         const std::string& path) {
  for (const auto& [key, value] : defaults) {
    const auto it = set.find(key);
    ASSERT_NE(it, set.end()) << path << key;
    if (value.isObject())
      expectNoDefaultLeft(value.asObject(), it->second.asObject(),
                          path + key + ".");
    else
      EXPECT_NE(it->second, value) << path << key << " is left at default";
  }
}

TEST(ConfigIo, EveryFieldReachesTheRunSpecAndSurvivesTheRoundTrip) {
  const ExperimentConfig config =
      parseExperimentConfig(parseJson(kEveryField));
  expectNoDefaultLeft(toJson(sim::MachineConfig{}), toJson(config.machine),
                      "machine.");
  expectNoDefaultLeft(
      toJson(core::DikeConfig{}, ConfigDocument::Experiment),
      toJson(config.dike, ConfigDocument::Experiment), "dike.");

  const RunSpec spec = firstCellRunSpec(config);
  ASSERT_TRUE(spec.dikeConfig.has_value());
  expectEveryField(spec.machine, *spec.dikeConfig);
  EXPECT_EQ(spec.dikeConfig->cluster.decideJobs, 2);
  EXPECT_EQ(spec.params, (core::DikeParams{4, 200}));

  const util::JsonValue encoded = runSpecToJson(spec);
  const RunSpec decoded = runSpecFromJson(parseJson(encoded.dump()));
  ASSERT_TRUE(decoded.dikeConfig.has_value());
  expectEveryField(decoded.machine, *decoded.dikeConfig);
  EXPECT_EQ(decoded.dikeConfig->goal, spec.dikeConfig->goal);
  EXPECT_EQ(decoded.params, spec.params);
  EXPECT_EQ(decoded.machine.seed, spec.machine.seed);
  EXPECT_EQ(runSpecToJson(decoded).dump(), encoded.dump());
}

/// The config --print-default-config describes: an empty document's, with
/// its (disabled) fault plan shown.
ExperimentConfig printedDefaults() {
  ExperimentConfig config = parseExperimentConfig(parseJson("{}"));
  config.faults = fault::FaultPlan{};
  return config;
}

TEST(ConfigIo, PrintedDefaultConfigParsesBackToTheDefaults) {
  const ExperimentConfig defaults = printedDefaults();
  const std::string printed = experimentConfigToJson(defaults).dump(2);
  const ExperimentConfig back = parseExperimentConfig(parseJson(printed));
  EXPECT_EQ(experimentConfigToJson(back).dump(2), printed);
  EXPECT_EQ(back.workloadIds, defaults.workloadIds);
  EXPECT_EQ(back.kinds, defaults.kinds);
  EXPECT_EQ(back.dike.params, defaults.dike.params);
  EXPECT_EQ(back.dike.cluster, defaults.dike.cluster);
  EXPECT_EQ(back.dike.cluster.decideJobs, defaults.dike.cluster.decideJobs);
  EXPECT_EQ(back.machine.refFreqGhz, defaults.machine.refFreqGhz);
  EXPECT_EQ(back.dike.observer.processRateFloor,
            defaults.dike.observer.processRateFloor);
  EXPECT_EQ(back.telemetry.run.traceCapacity,
            defaults.telemetry.run.traceCapacity);
  ASSERT_TRUE(back.faults.has_value());
  EXPECT_FALSE(back.faults->enabled());
}

// Each setting is applied or refused: a mistyped, fractional, out-of-range
// or unknown key throws ConfigError naming its path, in the experiment
// config and in the run spec alike.
TEST(ConfigIo, RejectsBadValuesNamingThePath) {
  struct Row {
    const char* json;
    const char* path;          ///< named by parseExperimentConfig
    const char* runSpecPath;   ///< named by runSpecFromJson
  };
  const Row rows[] = {
      {R"({"dike": {"swapSize": "2"}})", "dike.swapSize", "dike.swapSize"},
      {R"({"dike": {"swapSize": 2.9}})", "dike.swapSize", "dike.swapSize"},
      {R"({"dike": {"swapSize": 1e300}})", "dike.swapSize", "dike.swapSize"},
      {R"({"swapSize": "2"})", "swapSize", "swapSize"},
      {R"({"swapSize": 2.9})", "swapSize", "swapSize"},
      {R"({"swapSize": 1e300})", "swapSize", "swapSize"},
      {R"({"machine": {"tickLeaping": "false"}})", "machine.tickLeaping",
       "machine.tickLeaping"},
      {R"({"dike": {"fairnesThreshold": 0.1}})", "dike.fairnesThreshold",
       "dike.fairnesThreshold"},
      {R"({"dike": {"observer": {"movingMeanWindow": 0}}})",
       "dike.observer.movingMeanWindow", "dike.observer.movingMeanWindow"},
      {R"({"dike": {"observer": {"movingMeanWindow": -1}}})",
       "dike.observer.movingMeanWindow", "dike.observer.movingMeanWindow"},
      {R"({"dike": {"observer": {"processRateFloor": -1}}})",
       "dike.observer.processRateFloor", "dike.observer.processRateFloor"},
      {R"({"machine": {"migrationStallTicks": 1e300}})",
       "machine.migrationStallTicks", "machine.migrationStallTicks"},
      {R"({"seed": -1})", "seed", "seed"},
      {R"({"faults": {"enabled": true}})", "faults.enabled",
       "faults.enabled"},
      {R"({"slo": {"fairness": 0.08}})", "slo.fairness", "slo"},
  };
  const auto rejects = [](const auto& parse, const char* json,
                          const std::string& path) {
    try {
      (void)parse(parseJson(json));
      ADD_FAILURE() << "accepted: " << json;
    } catch (const util::ConfigError& e) {
      EXPECT_NE(std::string{e.what()}.find("'" + path + "'"),
                std::string::npos)
          << json << ": " << e.what();
    }
  };
  for (const Row& row : rows) {
    rejects(parseExperimentConfig, row.json, row.path);
    rejects(runSpecFromJson, row.json, row.runSpecPath);
  }
}

TEST(ConfigIo, RunExperimentProducesGrid) {
  ExperimentConfig config;
  config.workloadIds = {2};
  config.kinds = {SchedulerKind::Cfs, SchedulerKind::Dike};
  config.scale = 0.1;
  const std::vector<ExperimentCell> cells = runExperiment(config);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].kind, SchedulerKind::Cfs);
  EXPECT_DOUBLE_EQ(cells[0].speedupVsCfs, 1.0);
  EXPECT_EQ(cells[1].kind, SchedulerKind::Dike);
  EXPECT_GT(cells[1].fairness, 0.0);
  EXPECT_GT(cells[1].speedupVsCfs, 0.0);
}

TEST(ConfigIo, SpeedupsDefinedWithoutCfsListed) {
  ExperimentConfig config;
  config.workloadIds = {2};
  config.kinds = {SchedulerKind::Dike};
  config.scale = 0.1;
  const std::vector<ExperimentCell> cells = runExperiment(config);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_GT(cells[0].speedupVsCfs, 0.5);
  EXPECT_LT(cells[0].speedupVsCfs, 2.0);
}

// One ExperimentConfig -> RunSpec mapping for grids and single runs: every
// field a grid cell uses reaches the single-run spec too.
TEST(ConfigIo, CellRunSpecCarriesEveryRunField) {
  const ExperimentConfig config = parseExperimentConfig(parseJson(R"({
    "workloads": [4, 2], "schedulers": ["dike-af", "cfs"],
    "scale": 0.2, "seed": 9, "heterogeneous": false, "threadsPerApp": 3,
    "topology": [{"sockets": 3, "physicalCores": 4}],
    "machine": {"conflictSpread": 0.2},
    "dike": {"swapSize": 4, "cluster": {"clusters": 3}},
    "faults": {"samples": {"dropProbability": 0.1}}
  })"));
  const RunSpec first = firstCellRunSpec(config);
  EXPECT_EQ(first.workloadId, 4);
  EXPECT_EQ(first.kind, SchedulerKind::DikeAF);
  EXPECT_DOUBLE_EQ(first.scale, 0.2);
  EXPECT_EQ(first.seed, 9u);
  EXPECT_FALSE(first.heterogeneous);
  EXPECT_EQ(first.threadsPerApp, 3);
  EXPECT_EQ(first.topology.size(), 3u);
  EXPECT_DOUBLE_EQ(first.machine.conflictSpread, 0.2);
  EXPECT_EQ(first.params.swapSize, 4);
  ASSERT_TRUE(first.dikeConfig.has_value());
  EXPECT_EQ(first.dikeConfig->cluster.clusters, 3);
  ASSERT_TRUE(first.faults.has_value());
  EXPECT_FALSE(first.telemetry.any());
  EXPECT_EQ(cellRunSpec(config, 2, SchedulerKind::Cfs, 2).seed, 2009u);

  ExperimentConfig empty = config;
  empty.kinds.clear();
  EXPECT_THROW((void)firstCellRunSpec(empty), std::runtime_error);
}

#if defined(DIKE_RUN_BIN) && defined(DIKE_SUPERVISE_BIN) && \
    defined(DIKE_CONFIG_DIR)
using dike::test::slurp;

// The checkpointing tools run the grid's first cell exactly as the grid
// does — on the config's topology, with its threads per application —
// rather than the paper testbed with 8 threads per application.
TEST(ConfigIoTools, SingleRunToolsRunTheConfiguredCell) {
  const std::string config =
      std::string{DIKE_CONFIG_DIR} + "/decide_jobs_equivalence.json";
  const std::string expected =
      runMetricsToJson(runWorkload(firstCellRunSpec(
                           parseExperimentConfig(util::parseJsonFile(config)))))
          .dump(2) +
      "\n";
  const std::string dir = ::testing::TempDir() + "/config_io_tools";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const std::string run = std::string{DIKE_RUN_BIN} + " " + config +
                          " --checkpoint-out " + dir + "/run.ckpt" +
                          " --json " + dir + "/run.json > /dev/null";
  ASSERT_EQ(std::system(run.c_str()), 0) << run;
  EXPECT_EQ(slurp(dir + "/run.json"), expected) << "dike_run --checkpoint-out";

  const std::string supervise = std::string{DIKE_SUPERVISE_BIN} + " " +
                                config + " --dir " + dir + "/sup > /dev/null";
  ASSERT_EQ(std::system(supervise.c_str()), 0) << supervise;
  EXPECT_EQ(slurp(reportPath(dir + "/sup")), expected) << "dike_supervise";
}

TEST(ConfigIoTools, PrintDefaultConfigIsTheEncodersOutput) {
  const std::string path = ::testing::TempDir() + "/printed_default.json";
  const std::string cmd =
      std::string{DIKE_RUN_BIN} + " --print-default-config > " + path;
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  EXPECT_EQ(slurp(path), experimentConfigToJson(printedDefaults()).dump(2) +
                             "\n");
}
#endif

TEST(ConfigIo, ToJsonRoundTrips) {
  ExperimentConfig config;
  config.name = "t";
  config.workloadIds = {1};
  config.kinds = {SchedulerKind::Cfs};
  ExperimentCell cell;
  cell.workloadId = 1;
  cell.kind = SchedulerKind::Cfs;
  cell.fairness = 0.9;
  const util::JsonValue doc = toJson(config, {cell});
  const util::JsonValue reparsed = util::parseJson(doc.dump());
  EXPECT_EQ(reparsed.stringOr("experiment", ""), "t");
  const util::JsonArray results = reparsed.get("results")->asArray();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].stringOr("workload", ""), "wl1");
  EXPECT_DOUBLE_EQ(results[0].numberOr("fairness", 0.0), 0.9);
}

}  // namespace
}  // namespace dike::exp
