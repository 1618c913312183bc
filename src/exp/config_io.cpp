#include "exp/config_io.hpp"

#include <stdexcept>

#include "exp/parallel.hpp"
#include "util/stats.hpp"
#include "workload/workloads.hpp"

namespace dike::exp {

SchedulerKind schedulerKindFromName(std::string_view name) {
  for (const SchedulerKind kind :
       {SchedulerKind::Cfs, SchedulerKind::Dio, SchedulerKind::Dike,
        SchedulerKind::DikeAF, SchedulerKind::DikeAP, SchedulerKind::Random,
        SchedulerKind::StaticOracle, SchedulerKind::Suspension}) {
    if (toString(kind) == name) return kind;
  }
  throw std::runtime_error{"unknown scheduler: " + std::string{name}};
}

namespace {

constexpr auto kExperimentFields = [](auto& c, auto&& field) {
  field("experiment", c.name);
  field("scale", c.scale);
  field("seed", c.seed);
  field("reps", c.reps);
  field("heterogeneous", c.heterogeneous);
  field("threadsPerApp", c.threadsPerApp);
};

constexpr auto kMachineFields = [](auto& m, auto&& field) {
  field("controllerAccessesPerSec", m.memory.controllerAccessesPerSec);
  field("socketLinkAccessesPerSec", m.memory.socketLinkAccessesPerSec);
  field("smtSharedFactor", m.smtSharedFactor);
  field("migrationStallTicks", m.migrationStallTicks);
  field("cacheColdTicks", m.cacheColdTicks);
  field("cacheColdFactor", m.cacheColdFactor);
  field("cacheColdSlowdown", m.cacheColdSlowdown);
  field("llcPerSocketMB", m.llcPerSocketMB);
  field("llcPressureFactor", m.llcPressureFactor);
  field("conflictSpread", m.conflictSpread);
  field("measurementNoiseSigma", m.measurementNoiseSigma);
  field("idlePowerW", m.idlePowerW);
  field("dynamicPowerW", m.dynamicPowerW);
  field("refFreqGhz", m.refFreqGhz);
  field("tickLeaping", m.tickLeaping);
  field("utilizationSnapEpsilon", m.utilizationSnapEpsilon);
};

constexpr auto kDikeFields = [](auto& c, auto&& field) {
  field("swapSize", c.params.swapSize);
  field("quantaLengthMs", c.params.quantaLengthMs);
  field("fairnessThreshold", c.fairnessThreshold);
  field("swapOhMs", c.swapOhMs);
  field("cooldownQuanta", c.cooldownQuanta);
  field("minCooldownMs", c.minCooldownMs);
  field("requirePositiveProfit", c.requirePositiveProfit);
  field("rotateWhenNoViolator", c.rotateWhenNoViolator);
  field("pairRateMargin", c.pairRateMargin);
  field("useFreeCores", c.useFreeCores);
};

constexpr auto kObserverFields = [](auto& o, auto&& field) {
  field("llcMissThreshold", o.llcMissThreshold);
  field("coreBwDecay", o.coreBwDecay);
  field("symmetricMovingMean", o.symmetricMovingMean);
  field("movingMeanWindow", o.movingMeanWindow);
  field("socketShare", o.socketShare);
  field("balanceTolerance", o.balanceTolerance);
  field("threadRateWindow", o.threadRateWindow);
  field("processRateFloor", o.processRateFloor);
  field("sanitizeSamples", o.sanitizeSamples);
  field("maxSampleHoldQuanta", o.maxSampleHoldQuanta);
  field("maxPlausibleRate", o.maxPlausibleRate);
};

constexpr auto kResilienceFields = [](auto& r, auto&& field) {
  field("divergenceWatchdog", r.divergenceWatchdog);
  field("divergenceErrorThreshold", r.divergenceErrorThreshold);
  field("divergenceQuanta", r.divergenceQuanta);
  field("fairnessWatchdog", r.fairnessWatchdog);
  field("fairnessStallQuanta", r.fairnessStallQuanta);
  field("fallbackQuanta", r.fallbackQuanta);
  field("failedActuationCooldownQuanta", r.failedActuationCooldownQuanta);
};

/// The logical cluster keys: decideJobs is handled on its own (see
/// ConfigDocument).
constexpr auto kClusterFields = [](auto& c, auto&& field) {
  field("clusters", c.clusters);
  field("rebalanceQuanta", c.rebalanceQuanta);
  field("rebalanceThreshold", c.rebalanceThreshold);
  field("rebalanceStreak", c.rebalanceStreak);
  field("rebalanceBudget", c.rebalanceBudget);
};

constexpr auto kSocketFields = [](auto& s, auto&& field) {
  field("physicalCores", s.physicalCores);
  field("smtWays", s.smtWays);
  field("freqGhz", s.freqGhz);
};

constexpr auto kTelemetryFields = [](auto& t, auto&& field) {
  field("enabled", t.enabled);
  field("quantumMetrics", t.quantumMetrics);
  field("traceOut", t.traceOut);
  field("eventsCsv", t.eventsCsv);
  field("registryOut", t.registryOut);
  field("traceCapacity", t.traceCapacity);
  field("livePublish", t.livePublish);
};

std::vector<int> decodeWorkloads(util::JsonReader& r) {
  const util::JsonValue* field = r.take("workloads");
  std::vector<int> ids;
  if (field == nullptr || (field->isString() && field->asString() == "all")) {
    for (const wl::WorkloadSpec& w : wl::workloadTable()) ids.push_back(w.id);
    return ids;
  }
  if (field->isString()) {
    const std::string& cls = field->asString();
    for (const wl::WorkloadSpec& w : wl::workloadTable())
      if (toString(w.cls) == cls) ids.push_back(w.id);
    r.require(!ids.empty(), "workloads",
              "is an unknown workload selector: " + cls);
    return ids;
  }
  r.require(field->isArray(), "workloads",
            "must be an array or selector string");
  for (const util::JsonValue& v : field->asArray()) {
    int id = 0;
    util::decodeValue(
        v, r.pathOf("workloads") + "[" + std::to_string(ids.size()) + "]",
        id);
    (void)wl::workload(id);  // validates the range
    ids.push_back(id);
  }
  r.require(!ids.empty(), "workloads", "is empty");
  return ids;
}

std::vector<SchedulerKind> decodeSchedulers(util::JsonReader& r) {
  const util::JsonValue* field = r.take("schedulers");
  if (field == nullptr) return allSchedulerKinds();
  r.require(field->isArray(), "schedulers", "must be an array of names");
  std::vector<SchedulerKind> kinds;
  for (const util::JsonValue& v : field->asArray()) {
    std::string name;
    util::decodeValue(
        v, r.pathOf("schedulers") + "[" + std::to_string(kinds.size()) + "]",
        name);
    kinds.push_back(schedulerKindFromName(name));
  }
  r.require(!kinds.empty(), "schedulers", "is empty");
  return kinds;
}

}  // namespace

util::JsonObject toJson(const sim::MachineConfig& machine) {
  return util::encodeFields(machine, kMachineFields);
}

void readMachineConfig(util::JsonReader& section,
                       sim::MachineConfig& machine) {
  section.readFields(machine, kMachineFields);
}

util::JsonObject toJson(const core::DikeConfig& dike,
                        ConfigDocument document) {
  util::JsonObject out = util::encodeFields(dike, kDikeFields);
  out.emplace("observer", util::encodeFields(dike.observer, kObserverFields));
  out.emplace("resilience",
              util::encodeFields(dike.resilience, kResilienceFields));
  if (document == ConfigDocument::Experiment) {
    util::JsonObject cluster =
        util::encodeFields(dike.cluster, kClusterFields);
    cluster.emplace("decideJobs", dike.cluster.decideJobs);
    out.emplace("cluster", std::move(cluster));
  } else if (dike.cluster.clusters >= 2) {
    out.emplace("cluster", util::encodeFields(dike.cluster, kClusterFields));
  }
  return out;
}

void readDikeConfig(util::JsonReader& section, core::DikeConfig& dike) {
  section.readFields(dike, kDikeFields);
  section.readObject("observer", [&dike](util::JsonReader& o) {
    o.readFields(dike.observer, kObserverFields);
    o.require(dike.observer.movingMeanWindow >= 1, "movingMeanWindow",
              "must be >= 1");
    o.require(dike.observer.threadRateWindow >= 1, "threadRateWindow",
              "must be >= 1");
    o.require(dike.observer.processRateFloor >= 0.0, "processRateFloor",
              "must be >= 0");
  });
  section.readObject("resilience", [&dike](util::JsonReader& r) {
    r.readFields(dike.resilience, kResilienceFields);
  });
  section.readObject("cluster", [&dike](util::JsonReader& c) {
    c.readFields(dike.cluster, kClusterFields);
    c.require(dike.cluster.clusters >= 0, "clusters", "must be >= 0");
    c.read("decideJobs", dike.cluster.decideJobs);
    c.require(dike.cluster.decideJobs >= 0, "decideJobs",
              "must be >= 0 (0 = DIKE_JOBS/auto)");
  });
}

util::JsonArray topologyToJson(const std::vector<sim::SocketSpec>& sockets) {
  util::JsonArray out;
  for (const sim::SocketSpec& socket : sockets) {
    util::JsonObject entry = util::encodeFields(socket, kSocketFields);
    entry.emplace("type", std::string{sim::toString(socket.type)});
    out.emplace_back(std::move(entry));
  }
  return out;
}

std::vector<sim::SocketSpec> readTopology(util::JsonReader& parent) {
  std::vector<sim::SocketSpec> sockets;
  const bool present =
      parent.readObjects("topology", [&sockets](util::JsonReader& entry) {
        sim::SocketSpec spec;
        int repeat = 1;
        entry.read("sockets", repeat);
        entry.require(repeat >= 1, "sockets", "must be >= 1");
        entry.readFields(spec, kSocketFields);
        entry.require(spec.physicalCores >= 1, "physicalCores",
                      "must be >= 1");
        entry.require(spec.smtWays >= 1, "smtWays", "must be >= 1");
        entry.require(spec.freqGhz > 0.0, "freqGhz", "must be > 0");
        std::string type{sim::toString(spec.type)};
        entry.read("type", type);
        entry.require(type == "fast" || type == "slow", "type",
                      "must be 'fast' or 'slow'");
        spec.type = type == "fast" ? sim::CoreType::Fast : sim::CoreType::Slow;
        sockets.insert(sockets.end(), static_cast<std::size_t>(repeat), spec);
      });
  parent.require(!present || !sockets.empty(), "topology", "is empty");
  return sockets;
}

ExperimentConfig parseExperimentConfig(const util::JsonValue& document) {
  util::JsonReader r{document, ""};
  ExperimentConfig config;
  r.readFields(config, kExperimentFields);
  r.require(config.scale > 0.0, "scale", "must be > 0");
  r.require(config.reps >= 1, "reps", "must be >= 1");
  r.require(config.threadsPerApp >= 1, "threadsPerApp", "must be >= 1");
  config.workloadIds = decodeWorkloads(r);
  config.kinds = decodeSchedulers(r);
  config.topology = readTopology(r);
  r.readObject("machine", [&config](util::JsonReader& m) {
    readMachineConfig(m, config.machine);
  });
  r.readObject("dike", [&config](util::JsonReader& d) {
    readDikeConfig(d, config.dike);
  });
  r.readObject("telemetry", [&config](util::JsonReader& t) {
    t.readFields(config.telemetry, kTelemetryFields);
    t.require(config.telemetry.traceCapacity >= 1, "traceCapacity",
              "must be >= 1");
  });
  if (const util::JsonValue* slo = r.take("slo"))
    config.slo = telemetry::parseSloConfig(*slo);
  if (const util::JsonValue* faults = r.take("faults"))
    config.faults = fault::parseFaultPlan(*faults);
  r.finish();
  return config;
}

util::JsonValue experimentConfigToJson(const ExperimentConfig& config) {
  util::JsonObject out = util::encodeFields(config, kExperimentFields);
  out.emplace("workloads", util::JsonArray(config.workloadIds.begin(),
                                           config.workloadIds.end()));
  util::JsonArray schedulers;
  for (const SchedulerKind kind : config.kinds)
    schedulers.emplace_back(std::string{toString(kind)});
  out.emplace("schedulers", std::move(schedulers));
  if (!config.topology.empty())
    out.emplace("topology", topologyToJson(config.topology));
  out.emplace("machine", toJson(config.machine));
  out.emplace("dike", toJson(config.dike, ConfigDocument::Experiment));
  out.emplace("telemetry",
              util::encodeFields(config.telemetry, kTelemetryFields));
  out.emplace("slo", telemetry::toJson(config.slo));
  if (config.faults) out.emplace("faults", fault::toJson(*config.faults));
  return util::JsonValue{std::move(out)};
}

RunSpec cellRunSpec(const ExperimentConfig& config, int workloadId,
                    SchedulerKind kind, int rep) {
  RunSpec spec;
  spec.workloadId = workloadId;
  spec.kind = kind;
  spec.scale = config.scale;
  spec.seed = config.seed + static_cast<std::uint64_t>(rep) * 1000;
  spec.heterogeneous = config.heterogeneous;
  spec.topology = config.topology;
  spec.threadsPerApp = config.threadsPerApp;
  spec.machine = config.machine;
  spec.params = config.dike.params;
  spec.dikeConfig = config.dike;
  spec.faults = config.faults;
  return spec;
}

RunSpec firstCellRunSpec(const ExperimentConfig& config) {
  if (config.workloadIds.empty() || config.kinds.empty())
    throw std::runtime_error{"config selects no workloads or schedulers"};
  return cellRunSpec(config, config.workloadIds.front(),
                     config.kinds.front());
}

std::vector<ExperimentCell> runExperiment(const ExperimentConfig& config) {
  return runExperiment(config, std::string{}, 1);
}

std::vector<ExperimentCell> runExperiment(const ExperimentConfig& config,
                                          const std::string& sweepStateFile,
                                          int jobs) {
  // Flatten the grid into share-nothing specs: per (workload, rep) one
  // internal CFS baseline plus one spec per non-CFS scheduler. The pool
  // can then run them in any order — and a killed sweep can resume — with
  // aggregation deferred until every index has its metrics.
  struct CellRef {
    int workloadId;
    SchedulerKind kind;
    std::size_t specIndex;
    std::size_t baselineIndex;
  };
  std::vector<RunSpec> specs;
  std::vector<CellRef> refs;
  // Telemetry run outputs attach to exactly one run: the first listed
  // scheduler on the first listed workload, rep 0. When that scheduler is
  // CFS, the internally-run baseline is that run.
  bool telemetryPending = config.telemetry.anyRunOutput();
  const SchedulerKind telemetryKind =
      config.kinds.empty() ? SchedulerKind::Cfs : config.kinds.front();
  for (const int workloadId : config.workloadIds) {
    for (int rep = 0; rep < config.reps; ++rep) {
      RunSpec spec =
          cellRunSpec(config, workloadId, SchedulerKind::Cfs, rep);
      if (telemetryPending && telemetryKind == SchedulerKind::Cfs) {
        spec.telemetry = config.telemetry.runTelemetry();
        telemetryPending = false;
      }
      const std::size_t baselineIndex = specs.size();
      specs.push_back(spec);
      spec.telemetry = RunTelemetry{};

      for (const SchedulerKind kind : config.kinds) {
        if (kind == SchedulerKind::Cfs) {
          refs.push_back({workloadId, kind, baselineIndex, baselineIndex});
          continue;
        }
        spec.kind = kind;
        if (telemetryPending && kind == telemetryKind) {
          spec.telemetry = config.telemetry.runTelemetry();
          telemetryPending = false;
        }
        refs.push_back({workloadId, kind, specs.size(), baselineIndex});
        specs.push_back(spec);
        spec.telemetry = RunTelemetry{};
      }
    }
  }

  const std::vector<RunMetrics> metrics =
      runWorkloadsParallel(specs, jobs, sweepStateFile);

  std::vector<ExperimentCell> cells;
  for (const int workloadId : config.workloadIds) {
    std::map<SchedulerKind, util::OnlineStats> fairness;
    std::map<SchedulerKind, util::OnlineStats> speedups;
    std::map<SchedulerKind, util::OnlineStats> swaps;
    std::map<SchedulerKind, util::OnlineStats> makespans;
    for (const CellRef& ref : refs) {
      if (ref.workloadId != workloadId) continue;
      const RunMetrics& m = metrics[ref.specIndex];
      const RunMetrics& baseline = metrics[ref.baselineIndex];
      fairness[ref.kind].add(m.fairness);
      speedups[ref.kind].add(speedup(baseline.makespan, m.makespan));
      swaps[ref.kind].add(static_cast<double>(m.swaps));
      makespans[ref.kind].add(util::ticksToSeconds(m.makespan));
    }
    for (const SchedulerKind kind : config.kinds) {
      ExperimentCell cell;
      cell.workloadId = workloadId;
      cell.kind = kind;
      cell.fairness = fairness[kind].mean();
      cell.speedupVsCfs = speedups[kind].mean();
      cell.swaps = swaps[kind].mean();
      cell.makespanSeconds = makespans[kind].mean();
      cells.push_back(cell);
    }
  }
  return cells;
}

util::JsonValue toJson(const ExperimentConfig& config,
                       const std::vector<ExperimentCell>& cells) {
  util::JsonArray rows;
  for (const ExperimentCell& cell : cells) {
    util::JsonObject row;
    row.emplace("workload", wl::workload(cell.workloadId).name);
    row.emplace("scheduler", std::string{toString(cell.kind)});
    row.emplace("fairness", cell.fairness);
    row.emplace("speedup_vs_cfs", cell.speedupVsCfs);
    row.emplace("swaps", cell.swaps);
    row.emplace("makespan_s", cell.makespanSeconds);
    rows.emplace_back(std::move(row));
  }
  util::JsonObject doc;
  doc.emplace("experiment", config.name);
  doc.emplace("scale", config.scale);
  doc.emplace("seed", static_cast<double>(config.seed));
  doc.emplace("reps", config.reps);
  doc.emplace("results", std::move(rows));
  return util::JsonValue{std::move(doc)};
}

}  // namespace dike::exp
