#include "exp/replay.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/clustered_scheduler.hpp"
#include "core/dike_scheduler.hpp"
#include "exp/analysis.hpp"
#include "exp/chrome_trace.hpp"
#include "exp/stream_listener.hpp"
#include "sched/placement.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/health.hpp"
#include "telemetry/live.hpp"
#include "telemetry/slowdown.hpp"
#include "util/atomic_file.hpp"
#include "util/log.hpp"
#include "util/stop.hpp"
#include "workload/benchmarks.hpp"

namespace dike::exp {

namespace {

/// 64-bit seeds round-trip as decimal strings: JSON numbers are doubles and
/// silently lose integer precision above 2^53.
std::string u64ToString(std::uint64_t v) { return std::to_string(v); }

std::uint64_t u64FromString(const std::string& text, const char* field) {
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || text.empty())
    throw std::runtime_error{std::string{"run spec field '"} + field +
                             "' is not a valid unsigned integer: '" + text +
                             "'"};
  return v;
}

util::JsonValue machineConfigToJson(const sim::MachineConfig& m) {
  util::JsonObject o;
  o["controllerAccessesPerSec"] = m.memory.controllerAccessesPerSec;
  o["socketLinkAccessesPerSec"] = m.memory.socketLinkAccessesPerSec;
  o["smtSharedFactor"] = m.smtSharedFactor;
  o["migrationStallTicks"] = m.migrationStallTicks;
  o["cacheColdTicks"] = m.cacheColdTicks;
  o["cacheColdFactor"] = m.cacheColdFactor;
  o["cacheColdSlowdown"] = m.cacheColdSlowdown;
  o["llcPerSocketMB"] = m.llcPerSocketMB;
  o["llcPressureFactor"] = m.llcPressureFactor;
  o["conflictSpread"] = m.conflictSpread;
  o["measurementNoiseSigma"] = m.measurementNoiseSigma;
  o["idlePowerW"] = m.idlePowerW;
  o["dynamicPowerW"] = m.dynamicPowerW;
  o["refFreqGhz"] = m.refFreqGhz;
  o["tickLeaping"] = m.tickLeaping;
  o["utilizationSnapEpsilon"] = m.utilizationSnapEpsilon;
  o["seed"] = u64ToString(m.seed);
  return util::JsonValue{std::move(o)};
}

sim::MachineConfig machineConfigFromJson(const util::JsonValue& v) {
  sim::MachineConfig m;
  m.memory.controllerAccessesPerSec = v.numberOr(
      "controllerAccessesPerSec", m.memory.controllerAccessesPerSec);
  m.memory.socketLinkAccessesPerSec = v.numberOr(
      "socketLinkAccessesPerSec", m.memory.socketLinkAccessesPerSec);
  m.smtSharedFactor = v.numberOr("smtSharedFactor", m.smtSharedFactor);
  m.migrationStallTicks = static_cast<util::Tick>(v.numberOr(
      "migrationStallTicks", static_cast<double>(m.migrationStallTicks)));
  m.cacheColdTicks = static_cast<util::Tick>(
      v.numberOr("cacheColdTicks", static_cast<double>(m.cacheColdTicks)));
  m.cacheColdFactor = v.numberOr("cacheColdFactor", m.cacheColdFactor);
  m.cacheColdSlowdown = v.numberOr("cacheColdSlowdown", m.cacheColdSlowdown);
  m.llcPerSocketMB = v.numberOr("llcPerSocketMB", m.llcPerSocketMB);
  m.llcPressureFactor = v.numberOr("llcPressureFactor", m.llcPressureFactor);
  m.conflictSpread = v.numberOr("conflictSpread", m.conflictSpread);
  m.measurementNoiseSigma =
      v.numberOr("measurementNoiseSigma", m.measurementNoiseSigma);
  m.idlePowerW = v.numberOr("idlePowerW", m.idlePowerW);
  m.dynamicPowerW = v.numberOr("dynamicPowerW", m.dynamicPowerW);
  m.refFreqGhz = v.numberOr("refFreqGhz", m.refFreqGhz);
  m.tickLeaping = v.boolOr("tickLeaping", m.tickLeaping);
  m.utilizationSnapEpsilon =
      v.numberOr("utilizationSnapEpsilon", m.utilizationSnapEpsilon);
  if (const auto seed = v.get("seed"))
    m.seed = u64FromString(seed->asString(), "machine.seed");
  return m;
}

util::JsonValue dikeConfigToJson(const core::DikeConfig& c) {
  util::JsonObject o;
  o["swapSize"] = c.params.swapSize;
  o["quantaLengthMs"] = c.params.quantaLengthMs;
  o["fairnessThreshold"] = c.fairnessThreshold;
  o["goal"] = static_cast<int>(c.goal);
  o["swapOhMs"] = c.swapOhMs;
  o["cooldownQuanta"] = c.cooldownQuanta;
  o["minCooldownMs"] = c.minCooldownMs;
  o["requirePositiveProfit"] = c.requirePositiveProfit;
  o["rotateWhenNoViolator"] = c.rotateWhenNoViolator;
  o["pairRateMargin"] = c.pairRateMargin;
  o["useFreeCores"] = c.useFreeCores;
  util::JsonObject obs;
  obs["llcMissThreshold"] = c.observer.llcMissThreshold;
  obs["coreBwDecay"] = c.observer.coreBwDecay;
  obs["symmetricMovingMean"] = c.observer.symmetricMovingMean;
  obs["movingMeanWindow"] = static_cast<int>(c.observer.movingMeanWindow);
  obs["socketShare"] = c.observer.socketShare;
  obs["balanceTolerance"] = c.observer.balanceTolerance;
  obs["threadRateWindow"] = static_cast<int>(c.observer.threadRateWindow);
  obs["processRateFloor"] = c.observer.processRateFloor;
  obs["sanitizeSamples"] = c.observer.sanitizeSamples;
  obs["maxSampleHoldQuanta"] = c.observer.maxSampleHoldQuanta;
  obs["maxPlausibleRate"] = c.observer.maxPlausibleRate;
  o["observer"] = util::JsonValue{std::move(obs)};
  util::JsonObject res;
  res["divergenceWatchdog"] = c.resilience.divergenceWatchdog;
  res["divergenceErrorThreshold"] = c.resilience.divergenceErrorThreshold;
  res["divergenceQuanta"] = c.resilience.divergenceQuanta;
  res["fairnessWatchdog"] = c.resilience.fairnessWatchdog;
  res["fairnessStallQuanta"] = c.resilience.fairnessStallQuanta;
  res["fallbackQuanta"] = c.resilience.fallbackQuanta;
  res["failedActuationCooldownQuanta"] =
      c.resilience.failedActuationCooldownQuanta;
  o["resilience"] = util::JsonValue{std::move(res)};
  // The cluster section is written only when clustering actually changes
  // behaviour (>= 2 clusters): a 1-cluster run is byte-identical to flat by
  // contract, and dike_diff compares embedded specs verbatim — the
  // equivalence check depends on these specs matching too.
  if (c.cluster.clusters >= 2) {
    // decideJobs is deliberately NOT encoded: it is an execution knob
    // (plan-phase worker count), not logical configuration — a checkpoint
    // taken under decideJobs=N must byte-match one taken under decideJobs=1
    // (the decide-jobs equivalence test in the scale tier cmp's exactly
    // this), and a restore may freely pick a different jobs count.
    util::JsonObject cl;
    cl["clusters"] = c.cluster.clusters;
    cl["rebalanceQuanta"] = c.cluster.rebalanceQuanta;
    cl["rebalanceThreshold"] = c.cluster.rebalanceThreshold;
    cl["rebalanceStreak"] = c.cluster.rebalanceStreak;
    cl["rebalanceBudget"] = c.cluster.rebalanceBudget;
    o["cluster"] = util::JsonValue{std::move(cl)};
  }
  return util::JsonValue{std::move(o)};
}

core::DikeConfig dikeConfigFromJson(const util::JsonValue& v) {
  core::DikeConfig c;
  c.params.swapSize = v.intOr("swapSize", c.params.swapSize);
  c.params.quantaLengthMs = v.intOr("quantaLengthMs", c.params.quantaLengthMs);
  c.fairnessThreshold = v.numberOr("fairnessThreshold", c.fairnessThreshold);
  const int goal = v.intOr("goal", static_cast<int>(c.goal));
  if (goal < 0 || goal > static_cast<int>(core::AdaptationGoal::Performance))
    throw std::runtime_error{"run spec field 'dike.goal' is out of range: " +
                             std::to_string(goal)};
  c.goal = static_cast<core::AdaptationGoal>(goal);
  c.swapOhMs = v.numberOr("swapOhMs", c.swapOhMs);
  c.cooldownQuanta = v.intOr("cooldownQuanta", c.cooldownQuanta);
  c.minCooldownMs = v.intOr("minCooldownMs", c.minCooldownMs);
  c.requirePositiveProfit =
      v.boolOr("requirePositiveProfit", c.requirePositiveProfit);
  c.rotateWhenNoViolator =
      v.boolOr("rotateWhenNoViolator", c.rotateWhenNoViolator);
  c.pairRateMargin = v.numberOr("pairRateMargin", c.pairRateMargin);
  c.useFreeCores = v.boolOr("useFreeCores", c.useFreeCores);
  if (const auto obs = v.get("observer")) {
    core::ObserverConfig& ob = c.observer;
    ob.llcMissThreshold = obs->numberOr("llcMissThreshold",
                                        ob.llcMissThreshold);
    ob.coreBwDecay = obs->numberOr("coreBwDecay", ob.coreBwDecay);
    ob.symmetricMovingMean =
        obs->boolOr("symmetricMovingMean", ob.symmetricMovingMean);
    ob.movingMeanWindow = static_cast<std::size_t>(obs->intOr(
        "movingMeanWindow", static_cast<int>(ob.movingMeanWindow)));
    ob.socketShare = obs->numberOr("socketShare", ob.socketShare);
    ob.balanceTolerance = obs->numberOr("balanceTolerance",
                                        ob.balanceTolerance);
    ob.threadRateWindow = static_cast<std::size_t>(obs->intOr(
        "threadRateWindow", static_cast<int>(ob.threadRateWindow)));
    ob.processRateFloor = obs->numberOr("processRateFloor",
                                        ob.processRateFloor);
    ob.sanitizeSamples = obs->boolOr("sanitizeSamples", ob.sanitizeSamples);
    ob.maxSampleHoldQuanta =
        obs->intOr("maxSampleHoldQuanta", ob.maxSampleHoldQuanta);
    ob.maxPlausibleRate = obs->numberOr("maxPlausibleRate",
                                        ob.maxPlausibleRate);
  }
  if (const auto res = v.get("resilience")) {
    core::ResilienceConfig& rc = c.resilience;
    rc.divergenceWatchdog =
        res->boolOr("divergenceWatchdog", rc.divergenceWatchdog);
    rc.divergenceErrorThreshold = res->numberOr("divergenceErrorThreshold",
                                                rc.divergenceErrorThreshold);
    rc.divergenceQuanta = res->intOr("divergenceQuanta", rc.divergenceQuanta);
    rc.fairnessWatchdog =
        res->boolOr("fairnessWatchdog", rc.fairnessWatchdog);
    rc.fairnessStallQuanta =
        res->intOr("fairnessStallQuanta", rc.fairnessStallQuanta);
    rc.fallbackQuanta = res->intOr("fallbackQuanta", rc.fallbackQuanta);
    rc.failedActuationCooldownQuanta = res->intOr(
        "failedActuationCooldownQuanta", rc.failedActuationCooldownQuanta);
  }
  if (const auto cl = v.get("cluster")) {
    core::ClusterConfig& cc = c.cluster;
    cc.clusters = cl->intOr("clusters", cc.clusters);
    if (cc.clusters < 0)
      throw std::runtime_error{
          "run spec field 'dike.cluster.clusters' is out of range: " +
          std::to_string(cc.clusters)};
    cc.rebalanceQuanta = cl->intOr("rebalanceQuanta", cc.rebalanceQuanta);
    cc.rebalanceThreshold =
        cl->numberOr("rebalanceThreshold", cc.rebalanceThreshold);
    cc.rebalanceStreak = cl->intOr("rebalanceStreak", cc.rebalanceStreak);
    cc.rebalanceBudget = cl->intOr("rebalanceBudget", cc.rebalanceBudget);
  }
  return c;
}

util::JsonValue workloadSpecToJson(const wl::WorkloadSpec& w) {
  util::JsonObject o;
  o["id"] = w.id;
  o["name"] = w.name;
  o["class"] = static_cast<int>(w.cls);
  util::JsonArray apps;
  for (const std::string& app : w.apps) apps.emplace_back(app);
  o["apps"] = util::JsonValue{std::move(apps)};
  o["includeKmeans"] = w.includeKmeans;
  return util::JsonValue{std::move(o)};
}

wl::WorkloadSpec workloadSpecFromJson(const util::JsonValue& v) {
  wl::WorkloadSpec w;
  w.id = v.intOr("id", 0);
  w.name = v.stringOr("name", "");
  const int cls = v.intOr("class", 0);
  if (cls < 0 || cls > static_cast<int>(wl::WorkloadClass::UnbalancedMemory))
    throw std::runtime_error{
        "run spec field 'customWorkload.class' is out of range: " +
        std::to_string(cls)};
  w.cls = static_cast<wl::WorkloadClass>(cls);
  if (const auto apps = v.get("apps"))
    for (const util::JsonValue& app : apps->asArray())
      w.apps.push_back(app.asString());
  w.includeKmeans = v.boolOr("includeKmeans", true);
  return w;
}

SchedulerKind schedulerKindFromString(const std::string& name) {
  static constexpr SchedulerKind kAll[] = {
      SchedulerKind::Cfs,          SchedulerKind::Dio,
      SchedulerKind::Dike,         SchedulerKind::DikeAF,
      SchedulerKind::DikeAP,       SchedulerKind::Random,
      SchedulerKind::StaticOracle, SchedulerKind::Suspension};
  for (const SchedulerKind kind : kAll)
    if (name == toString(kind)) return kind;
  throw std::runtime_error{"run spec names an unknown scheduler: '" + name +
                           "'"};
}

util::JsonValue ticksToJson(util::Tick t) {
  return util::JsonValue{static_cast<double>(t)};
}

/// The typed run-spec error for `field`, unless `ok`.
void requireField(bool ok, const std::string& field, const std::string& what) {
  if (!ok) throw std::runtime_error{"run spec field '" + field + "' " + what};
}

/// Script ticks: whole, non-negative, and exactly representable.
util::Tick scriptTickFromJson(const util::JsonValue& v,
                              const std::string& prefix) {
  const double t = v.numberOr("atTick", 0.0);
  requireField(t >= 0.0 && t <= 9007199254740992.0 && t == std::floor(t),
               prefix + "atTick", "must be a non-negative whole tick");
  return static_cast<util::Tick>(t);
}

util::JsonValue arrivalsToJson(const std::vector<Arrival>& arrivals) {
  util::JsonArray out;
  for (const Arrival& a : arrivals) {
    util::JsonObject o;
    o["atTick"] = ticksToJson(a.atTick);
    o["benchmark"] = a.benchmark;
    o["threads"] = a.threads;
    o["scale"] = a.scale;
    out.emplace_back(std::move(o));
  }
  return util::JsonValue{std::move(out)};
}

std::vector<Arrival> arrivalsFromJson(const util::JsonValue& v) {
  requireField(v.isArray(), "arrivals", "must be an array");
  std::vector<Arrival> arrivals;
  for (const util::JsonValue& av : v.asArray()) {
    const std::string f = "arrivals[" + std::to_string(arrivals.size()) + "].";
    Arrival a;
    a.atTick = scriptTickFromJson(av, f);
    a.benchmark = av.stringOr("benchmark", "");
    requireField(wl::isKnownBenchmark(a.benchmark), f + "benchmark",
                 "names an unknown benchmark: '" + a.benchmark + "'");
    a.threads = av.intOr("threads", a.threads);
    requireField(a.threads >= 1, f + "threads", "must be positive");
    a.scale = av.numberOr("scale", a.scale);
    requireField(a.scale > 0.0 && std::isfinite(a.scale), f + "scale",
                 "must be positive");
    arrivals.push_back(std::move(a));
  }
  return arrivals;
}

util::JsonValue dvfsToJson(const std::vector<FrequencyChange>& script) {
  util::JsonArray out;
  for (const FrequencyChange& c : script) {
    util::JsonObject o;
    o["atTick"] = ticksToJson(c.atTick);
    o["socket"] = c.socket;
    o["freqGhz"] = c.freqGhz;
    out.emplace_back(std::move(o));
  }
  return util::JsonValue{std::move(out)};
}

std::vector<FrequencyChange> dvfsFromJson(const util::JsonValue& v,
                                          int socketCount) {
  requireField(v.isArray(), "dvfs", "must be an array");
  std::vector<FrequencyChange> script;
  for (const util::JsonValue& cv : v.asArray()) {
    const std::string f = "dvfs[" + std::to_string(script.size()) + "].";
    FrequencyChange c;
    c.atTick = scriptTickFromJson(cv, f);
    c.socket = cv.intOr("socket", c.socket);
    requireField(c.socket >= 0 && c.socket < socketCount, f + "socket",
                 "is " + std::to_string(c.socket) + " but the machine has " +
                     std::to_string(socketCount) + " sockets");
    c.freqGhz = cv.numberOr("freqGhz", c.freqGhz);
    requireField(c.freqGhz > 0.0 && std::isfinite(c.freqGhz), f + "freqGhz",
                 "must be positive");
    script.push_back(c);
  }
  return script;
}

}  // namespace

util::JsonValue runSpecToJson(const RunSpec& spec) {
  util::JsonObject o;
  o["workloadId"] = spec.workloadId;
  if (spec.customWorkload)
    o["customWorkload"] = workloadSpecToJson(*spec.customWorkload);
  o["scheduler"] = std::string{toString(spec.kind)};
  o["swapSize"] = spec.params.swapSize;
  o["quantaLengthMs"] = spec.params.quantaLengthMs;
  if (spec.dikeConfig) o["dike"] = dikeConfigToJson(*spec.dikeConfig);
  o["scale"] = spec.scale;
  o["seed"] = u64ToString(spec.seed);
  o["heterogeneous"] = spec.heterogeneous;
  if (!spec.topology.empty()) {
    util::JsonArray sockets;
    for (const sim::SocketSpec& s : spec.topology) {
      util::JsonObject so;
      so["physicalCores"] = s.physicalCores;
      so["smtWays"] = s.smtWays;
      so["freqGhz"] = s.freqGhz;
      so["type"] = std::string{sim::toString(s.type)};
      sockets.emplace_back(std::move(so));
    }
    o["topology"] = util::JsonValue{std::move(sockets)};
  }
  o["machine"] = machineConfigToJson(spec.machine);
  o["threadsPerApp"] = spec.threadsPerApp;
  if (spec.faults) o["faults"] = fault::toJson(*spec.faults);
  // Written only when scripted, so every other spec encodes as before.
  if (!spec.arrivals.empty()) o["arrivals"] = arrivalsToJson(spec.arrivals);
  if (!spec.dvfs.empty()) o["dvfs"] = dvfsToJson(spec.dvfs);
  return util::JsonValue{std::move(o)};
}

RunSpec runSpecFromJson(const util::JsonValue& doc) {
  if (!doc.isObject())
    throw std::runtime_error{"run spec document must be a JSON object"};
  RunSpec spec;
  spec.workloadId = doc.intOr("workloadId", spec.workloadId);
  if (const auto custom = doc.get("customWorkload"))
    spec.customWorkload = workloadSpecFromJson(*custom);
  spec.kind = schedulerKindFromString(
      doc.stringOr("scheduler", toString(spec.kind)));
  spec.params.swapSize = doc.intOr("swapSize", spec.params.swapSize);
  spec.params.quantaLengthMs =
      doc.intOr("quantaLengthMs", spec.params.quantaLengthMs);
  if (const auto dike = doc.get("dike"))
    spec.dikeConfig = dikeConfigFromJson(*dike);
  spec.scale = doc.numberOr("scale", spec.scale);
  if (const auto seed = doc.get("seed"))
    spec.seed = u64FromString(seed->asString(), "seed");
  spec.heterogeneous = doc.boolOr("heterogeneous", spec.heterogeneous);
  if (const auto topology = doc.get("topology")) {
    if (!topology->isArray())
      throw std::runtime_error{
          "run spec field 'topology' must be an array of socket specs"};
    for (const util::JsonValue& v : topology->asArray()) {
      sim::SocketSpec s;
      s.physicalCores = v.intOr("physicalCores", s.physicalCores);
      s.smtWays = v.intOr("smtWays", s.smtWays);
      if (s.physicalCores < 1 || s.smtWays < 1)
        throw std::runtime_error{
            "run spec field 'topology' has a non-positive core count"};
      s.freqGhz = v.numberOr("freqGhz", s.freqGhz);
      const std::string type = v.stringOr("type", "fast");
      if (type != "fast" && type != "slow")
        throw std::runtime_error{
            "run spec field 'topology[].type' must be 'fast' or 'slow'"};
      s.type = type == "fast" ? sim::CoreType::Fast : sim::CoreType::Slow;
      spec.topology.push_back(s);
    }
  }
  if (const auto machine = doc.get("machine"))
    spec.machine = machineConfigFromJson(*machine);
  spec.threadsPerApp = doc.intOr("threadsPerApp", spec.threadsPerApp);
  if (const auto faults = doc.get("faults"))
    spec.faults = fault::parseFaultPlan(*faults);
  if (const auto arrivals = doc.get("arrivals"))
    spec.arrivals = arrivalsFromJson(*arrivals);
  if (const auto dvfs = doc.get("dvfs"))
    spec.dvfs = dvfsFromJson(*dvfs, topologyForSpec(spec).socketCount());
  return spec;
}

util::JsonValue runMetricsToJson(const RunMetrics& m) {
  util::JsonObject o;
  o["scheduler"] = m.scheduler;
  o["workload"] = m.workload;
  o["makespan"] = ticksToJson(m.makespan);
  o["timedOut"] = m.timedOut;
  o["fairness"] = m.fairness;
  o["swaps"] = static_cast<double>(m.swaps);
  o["migrations"] = static_cast<double>(m.migrations);
  o["energyJoules"] = m.energyJoules;
  o["traceDropped"] = static_cast<double>(m.traceDropped);
  util::JsonArray processes;
  for (const ProcessResult& p : m.processes) {
    util::JsonObject po;
    po["processId"] = p.processId;
    po["name"] = p.name;
    po["memoryIntensive"] = p.memoryIntensive;
    po["finishTick"] = ticksToJson(p.finishTick);
    po["runtimeCv"] = p.runtimeCv;
    util::JsonArray finishes;
    for (const util::Tick t : p.threadFinishTicks)
      finishes.push_back(ticksToJson(t));
    po["threadFinishTicks"] = util::JsonValue{std::move(finishes)};
    processes.emplace_back(std::move(po));
  }
  o["processes"] = util::JsonValue{std::move(processes)};
  util::JsonObject d;
  d["quanta"] = static_cast<double>(m.decisions.quanta);
  d["actedQuanta"] = static_cast<double>(m.decisions.actedQuanta);
  d["pairsConsidered"] = static_cast<double>(m.decisions.pairsConsidered);
  d["rejectedCooldown"] = static_cast<double>(m.decisions.rejectedCooldown);
  d["rejectedProfit"] = static_cast<double>(m.decisions.rejectedProfit);
  d["swapsExecuted"] = static_cast<double>(m.decisions.swapsExecuted);
  d["swapsFailed"] = static_cast<double>(m.decisions.swapsFailed);
  d["migrationsFailed"] = static_cast<double>(m.decisions.migrationsFailed);
  d["fallbackQuanta"] = static_cast<double>(m.decisions.fallbackQuanta);
  d["fallbackEngagements"] =
      static_cast<double>(m.decisions.fallbackEngagements);
  d["divergenceResets"] = static_cast<double>(m.decisions.divergenceResets);
  o["decisions"] = util::JsonValue{std::move(d)};
  util::JsonObject f;
  f["droppedSamples"] = static_cast<double>(m.faults.droppedSamples);
  f["corruptedSamples"] = static_cast<double>(m.faults.corruptedSamples);
  f["stuckSamples"] = static_cast<double>(m.faults.stuckSamples);
  f["stuckEpisodes"] = static_cast<double>(m.faults.stuckEpisodes);
  f["saturatedMissRatios"] =
      static_cast<double>(m.faults.saturatedMissRatios);
  f["failedSwaps"] = static_cast<double>(m.faults.failedSwaps);
  f["failedMigrations"] = static_cast<double>(m.faults.failedMigrations);
  o["faults"] = util::JsonValue{std::move(f)};
  o["coreFreqDips"] = static_cast<double>(m.coreFreqDips);
  o["hasPredictions"] = m.hasPredictions;
  if (m.hasPredictions) {
    o["predErrMean"] = m.predErrMean;
    o["predErrMin"] = m.predErrMin;
    o["predErrMax"] = m.predErrMax;
    util::JsonArray trace;
    for (const core::PredictionErrorPoint& p : m.predTrace) {
      util::JsonObject po;
      po["tick"] = ticksToJson(p.tick);
      po["samples"] = p.samples;
      po["mean"] = p.mean;
      po["min"] = p.min;
      po["max"] = p.max;
      trace.emplace_back(std::move(po));
    }
    o["predTrace"] = util::JsonValue{std::move(trace)};
  }
  return util::JsonValue{std::move(o)};
}

RunMetrics runMetricsFromJson(const util::JsonValue& doc) {
  if (!doc.isObject())
    throw std::runtime_error{"run metrics document must be a JSON object"};
  RunMetrics m;
  m.scheduler = doc.stringOr("scheduler", "");
  m.workload = doc.stringOr("workload", "");
  m.makespan = static_cast<util::Tick>(doc.numberOr("makespan", 0.0));
  m.timedOut = doc.boolOr("timedOut", false);
  m.fairness = doc.numberOr("fairness", 0.0);
  m.swaps = static_cast<std::int64_t>(doc.numberOr("swaps", 0.0));
  m.migrations = static_cast<std::int64_t>(doc.numberOr("migrations", 0.0));
  m.energyJoules = doc.numberOr("energyJoules", 0.0);
  m.traceDropped = static_cast<std::size_t>(doc.numberOr("traceDropped", 0.0));
  if (const auto processes = doc.get("processes")) {
    for (const util::JsonValue& pv : processes->asArray()) {
      ProcessResult p;
      p.processId = pv.intOr("processId", 0);
      p.name = pv.stringOr("name", "");
      p.memoryIntensive = pv.boolOr("memoryIntensive", false);
      p.finishTick = static_cast<util::Tick>(pv.numberOr("finishTick", 0.0));
      p.runtimeCv = pv.numberOr("runtimeCv", 0.0);
      if (const auto finishes = pv.get("threadFinishTicks"))
        for (const util::JsonValue& t : finishes->asArray())
          p.threadFinishTicks.push_back(
              static_cast<util::Tick>(t.asNumber()));
      m.processes.push_back(std::move(p));
    }
  }
  if (const auto d = doc.get("decisions")) {
    const auto i64 = [&d](const char* key) {
      return static_cast<std::int64_t>(d->numberOr(key, 0.0));
    };
    m.decisions.quanta = i64("quanta");
    m.decisions.actedQuanta = i64("actedQuanta");
    m.decisions.pairsConsidered = i64("pairsConsidered");
    m.decisions.rejectedCooldown = i64("rejectedCooldown");
    m.decisions.rejectedProfit = i64("rejectedProfit");
    m.decisions.swapsExecuted = i64("swapsExecuted");
    m.decisions.swapsFailed = i64("swapsFailed");
    m.decisions.migrationsFailed = i64("migrationsFailed");
    m.decisions.fallbackQuanta = i64("fallbackQuanta");
    m.decisions.fallbackEngagements = i64("fallbackEngagements");
    m.decisions.divergenceResets = i64("divergenceResets");
  }
  if (const auto f = doc.get("faults")) {
    const auto i64 = [&f](const char* key) {
      return static_cast<std::int64_t>(f->numberOr(key, 0.0));
    };
    m.faults.droppedSamples = i64("droppedSamples");
    m.faults.corruptedSamples = i64("corruptedSamples");
    m.faults.stuckSamples = i64("stuckSamples");
    m.faults.stuckEpisodes = i64("stuckEpisodes");
    m.faults.saturatedMissRatios = i64("saturatedMissRatios");
    m.faults.failedSwaps = i64("failedSwaps");
    m.faults.failedMigrations = i64("failedMigrations");
  }
  m.coreFreqDips =
      static_cast<std::int64_t>(doc.numberOr("coreFreqDips", 0.0));
  m.hasPredictions = doc.boolOr("hasPredictions", false);
  if (m.hasPredictions) {
    m.predErrMean = doc.numberOr("predErrMean", 0.0);
    m.predErrMin = doc.numberOr("predErrMin", 0.0);
    m.predErrMax = doc.numberOr("predErrMax", 0.0);
    if (const auto trace = doc.get("predTrace")) {
      for (const util::JsonValue& pv : trace->asArray()) {
        core::PredictionErrorPoint p;
        p.tick = static_cast<util::Tick>(pv.numberOr("tick", 0.0));
        p.samples = pv.intOr("samples", 0);
        p.mean = pv.numberOr("mean", 0.0);
        p.min = pv.numberOr("min", 0.0);
        p.max = pv.numberOr("max", 0.0);
        m.predTrace.push_back(p);
      }
    }
  }
  return m;
}

/// Publishes the per-quantum live events (thread slowdowns, fairness
/// spread) into the ring transport and refreshes the aggregator's placement
/// snapshot for /state. Runs its own SlowdownEstimator over exactly the
/// inputs QuantumMetricsListener sees, so live aggregates and the NDJSON
/// stream agree sample-for-sample.
class LiveQuantumPublisher final : public sched::QuantumListener {
 public:
  void afterQuantum(const sim::Machine& machine,
                    const sched::SchedulerView& view,
                    sched::Scheduler& scheduler) override {
    const double dt = util::ticksToSeconds(machine.now() - lastTick_);
    lastTick_ = machine.now();
    slowdown_.beginQuantum(dt);
    const sim::QuantumSample& sample = view.sample();
    for (const sim::ThreadSample& s : sample.threads) {
      if (s.finished || s.coreId < 0) continue;
      slowdown_.add(s.threadId, s.processId, s.accessRate);
    }
    slowdown_.finishQuantum();

    const auto* dike = dynamic_cast<const core::DikeScheduler*>(&scheduler);
    const double unfairness =
        dike != nullptr ? dike->observer().systemUnfairness()
                        : std::numeric_limits<double>::quiet_NaN();
    const double spread = slowdown_.fairnessSpread();

    // Ring events flow every quantum (the live histograms must match the
    // NDJSON stream sample-for-sample), but the /state placement snapshot
    // only feeds a few-Hz dike_top poll — rebuilding and mutex-publishing
    // it per quantum is pure simulation-thread overhead. Refresh every
    // eighth quantum; sub-millisecond staleness at observed quantum rates.
    const bool refresh = (quantumIndex_ & 0x7) == 0;
    telemetry::LiveState state;
    if (refresh) {
      state.tick = machine.now();
      state.quantum = quantumIndex_;
      state.unfairness = unfairness;
      state.fairnessSpread = std::isnan(spread) ? 0.0 : spread;
      state.scheduler.assign(scheduler.name());
      state.cores.reserve(static_cast<std::size_t>(view.coreCount()));
      for (int core = 0; core < view.coreCount(); ++core) {
        telemetry::LiveCoreState c;
        c.core = core;
        c.thread = view.coreOccupant(core);
        if (dike != nullptr && dike->observer().ready())
          c.highBw = dike->observer().isHighBandwidthCore(core);
        state.cores.push_back(c);
      }
    }
    for (const sim::ThreadSample& s : sample.threads) {
      if (s.finished || s.coreId < 0) continue;
      const double sd = slowdown_.slowdownOf(s.threadId);
      telemetry::publish(telemetry::EventKind::ThreadSlowdown,
                         static_cast<std::uint32_t>(s.threadId),
                         machine.now(), sd);
      if (refresh) {
        auto& c = state.cores[static_cast<std::size_t>(s.coreId)];
        c.process = s.processId;
        c.slowdown = std::isnan(sd) ? 0.0 : sd;
      }
    }
    telemetry::publish(telemetry::EventKind::FairnessSpread,
                       static_cast<std::uint32_t>(quantumIndex_),
                       machine.now(), spread, unfairness);
    if (refresh)
      telemetry::Aggregator::instance().updateLiveState(std::move(state));
    // Liveness stamp for /healthz (two relaxed stores — negligible against
    // the live-plane overhead gate): this quantum just completed, now.
    telemetry::heartbeat(quantumIndex_);
    ++quantumIndex_;
  }

 private:
  std::int64_t quantumIndex_ = 0;
  util::Tick lastTick_ = 0;
  telemetry::SlowdownEstimator slowdown_;
};

namespace {

/// Fail fast (before the simulation runs) with a path-carrying error when a
/// telemetry output location is not writable. The artifact itself is
/// buffered and committed atomically at end of run — a kill mid-run leaves
/// the previous complete file (or nothing), never a torn one. Probing in
/// append mode never clobbers that previous file.
void probeTelemetryOutput(const std::string& path) {
  std::ofstream probe{path, std::ios::app};
  if (!probe)
    throw std::runtime_error{"cannot open telemetry output for writing: " +
                             path};
}

}  // namespace

RunSession::RunSession(RunSpec spec)
    : spec_(std::move(spec)),
      workload_(spec_.customWorkload ? *spec_.customWorkload
                                     : wl::workload(spec_.workloadId)),
      recorder_(spec_.telemetry.traceCapacity) {
  sim::MachineConfig machineCfg = spec_.machine;
  machineCfg.seed = spec_.seed;
  machine_.emplace(topologyForSpec(spec_), machineCfg);
  wl::addWorkloadProcesses(*machine_, workload_, spec_.scale,
                           spec_.threadsPerApp);
  if (spec_.kind == SchedulerKind::StaticOracle)
    sched::placeOracle(*machine_);
  else
    sched::placeRandom(*machine_, spec_.seed);

  scheduler_ = makeScheduler(spec_);
  adapter_.emplace(*scheduler_);
  policy_ = &*adapter_;

  // Policy decorators, innermost first: arrivals (the spec's plus the fault
  // plan's churn), the DVFS script, then the fault layer — counter and
  // actuation seams on the adapter, core faults (and the faults-active
  // hint the fairness watchdog keys on) in front of everything. An absent
  // or empty plan attaches nothing, and the churn stream is forked only
  // when there is churn, so fault runs without it keep their RNG draws.
  std::vector<Arrival> arrivals = spec_.arrivals;
  if (spec_.faults && spec_.faults->enabled()) {
    injector_.emplace(*spec_.faults);
    adapter_->setSampleFilter(&*injector_);
    adapter_->setActuationHook(&*injector_);
    if (spec_.faults->churn.arrivals > 0) {
      const std::vector<Arrival> churn =
          churnSchedule(*spec_.faults, injector_->forkStream(),
                        scheduler_->quantumTicks());
      arrivals.insert(arrivals.end(), churn.begin(), churn.end());
    }
  }
  if (!arrivals.empty()) {
    arrivals_.emplace(*policy_, std::move(arrivals));
    policy_ = &*arrivals_;
  }
  if (!spec_.dvfs.empty()) {
    dvfs_.emplace(*policy_, spec_.dvfs);
    policy_ = &*dvfs_;
  }
  if (injector_) {
    faultPolicy_.emplace(*policy_, *injector_);
    if (auto* dike = dynamic_cast<core::DikeScheduler*>(scheduler_.get()))
      faultPolicy_->setFaultsActiveListener(
          [dike](bool active) { dike->setFaultsActiveHint(active); });
    policy_ = &*faultPolicy_;
  }
  // Last: nothing may throw once the live SLO monitor points at this run.
  attachTelemetry();
}

RunSession::~RunSession() {
  // Drain before detaching so late SLO alerts still land in this run's
  // decision trace, whatever exit path ends the session.
  if (liveSlo_ != nullptr) {
    telemetry::Aggregator::instance().drainNow();
    liveSlo_->setDecisionTrace(nullptr);
  }
}

void RunSession::attachTelemetry() {
  // Outputs are opened before the simulation so an unwritable path fails in
  // milliseconds, not after a full run.
  const RunTelemetry& tel = spec_.telemetry;
  if (!tel.eventsCsvPath.empty()) probeTelemetryOutput(tel.eventsCsvPath);
  if (!tel.chromeTracePath.empty()) probeTelemetryOutput(tel.chromeTracePath);
  if (tel.wantsEvents()) machine_->setTraceRecorder(&recorder_);
  if (!tel.quantumMetricsPath.empty()) {
    metricsFile_.emplace(tel.quantumMetricsPath);
    attachQuantumStream(metricsFile_->writer());
  }
  if (tel.livePublish) {
    livePublisher_ = std::make_unique<LiveQuantumPublisher>();
    addQuantumListener(*livePublisher_);
  }
  if (tel.any())
    if (auto* dike = dynamic_cast<core::DikeScheduler*>(scheduler_.get()))
      dike->setDecisionTrace(&decisions_);
  // Route live-SLO alerts into this run's decision trace so breach records
  // line up with the scheduler decisions around them.
  if (tel.livePublish) liveSlo_ = telemetry::Aggregator::instance().slo();
  if (liveSlo_ != nullptr) liveSlo_->setDecisionTrace(&decisions_);
}

void RunSession::attachQuantumStream(telemetry::QuantumStreamWriter& writer) {
  if (streamListener_)
    throw std::logic_error{"run session already has a quantum stream"};
  streamListener_ = std::make_unique<QuantumMetricsListener>(writer);
  addQuantumListener(*streamListener_);
}

void RunSession::addQuantumListener(sched::QuantumListener& listener) {
  listeners_.add(&listener);
  adapter_->setListener(&listeners_);
}

void RunSession::setDecideJobs(int jobs) {
  if (auto* clustered =
          dynamic_cast<core::ClusteredDikeScheduler*>(scheduler_.get()))
    clustered->setDecideJobs(jobs);
}

int RunSession::arrivalsInjected() const noexcept {
  return arrivals_ ? arrivals_->injectedArrivals() : 0;
}

int RunSession::arrivalsPending() const noexcept {
  return arrivals_ ? arrivals_->pendingArrivals() : 0;
}

bool RunSession::done() const {
  return !sim::runOpen(*machine_, limits_, arrivalsPending() > 0);
}

bool RunSession::stepQuantum() {
  if (!sim::stepQuantum(*machine_, *policy_, limits_, nextQuantumAt_,
                        arrivalsPending() > 0))
    return false;
  ++quantumIndex_;
  return true;
}

RunMetrics RunSession::finish(const CheckpointOptions& opts) {
  // The stop flag is checked once per quantum, so a SIGINT unwinds through
  // the normal return path and every telemetry sink finalises cleanly.
  while (!util::stopRequested() && stepQuantum()) {
    sim::publishQuantumLength(*machine_, *policy_, quantumIndex_ - 1);
    if (opts.enabled() && quantumIndex_ % opts.everyQuanta == 0)
      writeCheckpoint(opts.path);
  }
  RunMetrics metrics = collectRunMetrics(
      *machine_, sim::runOutcome(*machine_, arrivalsPending() > 0),
      *scheduler_);
  metrics.workload = workload_.name;
  if (!spec_.arrivals.empty()) metrics.workload += "+dynamic";
  if (!spec_.dvfs.empty()) metrics.workload += "+dvfs";
  if (injector_) {
    metrics.faults = injector_->tally();
    metrics.coreFreqDips = faultPolicy_->freqDips();
  }
  const RunTelemetry& tel = spec_.telemetry;
  if (tel.wantsEvents()) {
    metrics.traceDropped = recorder_.dropped();
    if (recorder_.dropped() > 0)
      util::logWarn("trace recorder dropped ", recorder_.dropped(),
                    " events (capacity ", tel.traceCapacity,
                    "); raise telemetry.traceCapacity to keep the full run");
    if (!tel.eventsCsvPath.empty()) {
      std::ostringstream csv;
      writeTraceCsv(recorder_, csv);
      util::writeFileAtomic(tel.eventsCsvPath, csv.str());
    }
    if (!tel.chromeTracePath.empty()) {
      const ChromeTraceMeta meta = metaFromMachine(*machine_);
      const util::JsonValue doc = buildChromeTrace(
          recorder_.events(), meta,
          decisions_.records().empty() ? nullptr : &decisions_);
      util::writeFileAtomic(tel.chromeTracePath, doc.dump(2) + "\n");
    }
    machine_->setTraceRecorder(nullptr);
  }
  if (decisions_.dropped() > 0)
    util::logWarn("decision trace dropped ", decisions_.dropped(),
                  " quantum records");
  return metrics;
}

std::string RunSession::checkpointPayload() const {
  ckpt::BinWriter w;
  w.beginSection("run");
  w.str("config", runSpecToJson(spec_).dump());
  w.str("schedulerName", scheduler_->name());
  w.i64("quantumIndex", quantumIndex_);
  w.i64("nextQuantumAt", nextQuantumAt_);
  w.i64("maxTicks", limits_.maxTicks);
  // Script progress (only scripted runs carry it) precedes the machine:
  // restore re-adds the arrived processes before loading the machine.
  if (arrivals_ || dvfs_) {
    w.i64("arrivalsInjected", arrivalsInjected());
    w.i64("dvfsApplied", dvfs_ ? dvfs_->applied() : 0);
  }
  machine_->saveState(w);
  scheduler_->saveState(w);
  w.boolean("hasFaultLayer", injector_.has_value());
  if (injector_) {
    injector_->saveState(w);
    faultPolicy_->saveState(w);
  }
  // The stream cursor rides in the payload when a stream is attached:
  // resumed NDJSON records are only byte-identical if the listener's
  // path-dependent accumulators restart exactly (format version 2).
  w.boolean("hasQuantumStream", streamListener_ != nullptr);
  if (streamListener_) streamListener_->saveState(w);
  w.endSection();
  return w.take();
}

void RunSession::writeCheckpoint(const std::string& path) const {
  ckpt::writeCheckpointFile(path, checkpointPayload());
}

std::unique_ptr<RunSession> RunSession::restore(
    const std::string& path, telemetry::QuantumStreamWriter* stream) {
  const std::string payload = ckpt::readCheckpointFile(path);
  ckpt::BinReader r{payload};
  r.beginSection("run");
  const std::string configJson = r.str("config");
  RunSpec spec;
  try {
    spec = runSpecFromJson(util::parseJson(configJson));
  } catch (const std::exception& e) {
    throw ckpt::CheckpointError{
        std::string{"checkpoint carries an unreadable run spec: "} +
        e.what()};
  }
  // Rebuild-then-overwrite: the stack is reconstructed from the embedded
  // spec exactly as a fresh run would build it, then the mutable state is
  // loaded over it. A throw anywhere below destroys the half-built session
  // — the caller never observes a partial restore.
  auto session = std::make_unique<RunSession>(std::move(spec));
  const std::string schedulerName = r.str("schedulerName");
  if (schedulerName != session->scheduler_->name())
    throw ckpt::CheckpointError{
        "checkpoint names scheduler '" + schedulerName +
        "' but the embedded run spec builds '" +
        std::string{session->scheduler_->name()} + "'"};
  session->quantumIndex_ = r.i64("quantumIndex");
  session->nextQuantumAt_ = r.i64("nextQuantumAt");
  session->limits_.maxTicks = r.i64("maxTicks");
  if (session->arrivals_ || session->dvfs_) {
    const std::int64_t injected = r.i64("arrivalsInjected");
    const std::int64_t applied = r.i64("dvfsApplied");
    if (session->arrivals_)
      session->arrivals_->restoreInjected(*session->machine_, injected);
    else if (injected != 0)
      throw ckpt::CheckpointError{
          "checkpoint claims injected arrivals but the run spec has none"};
    if (session->dvfs_)
      session->dvfs_->restoreApplied(applied);
    else if (applied != 0)
      throw ckpt::CheckpointError{
          "checkpoint claims applied frequency changes but the run spec "
          "scripts none"};
  }
  session->machine_->loadState(r);
  session->scheduler_->loadState(r);
  const bool hasFaultLayer = r.boolean("hasFaultLayer");
  if (hasFaultLayer != session->injector_.has_value())
    throw ckpt::CheckpointError{
        "checkpoint fault-layer flag contradicts the embedded run spec"};
  if (session->injector_) {
    session->injector_->loadState(r);
    session->faultPolicy_->loadState(r);
  }
  const bool hasStream = r.boolean("hasQuantumStream");
  if (hasStream) {
    if (stream != nullptr) {
      session->attachQuantumStream(*stream);
      session->streamListener_->loadState(r);
    } else {
      // Consume (and drop) the cursor so stream-less consumers can still
      // restore supervised checkpoints; their payloads simply lose the
      // cursor, symmetrically on both sides of a dike_diff comparison.
      std::ostringstream devnull;
      telemetry::QuantumStreamWriter sink{devnull,
                                          telemetry::StreamFormat::JsonLines};
      QuantumMetricsListener discard{sink};
      discard.loadState(r);
    }
  } else if (stream != nullptr) {
    session->attachQuantumStream(*stream);
  }
  r.endSection();
  r.expectEnd();
  return session;
}

RunMetrics runWorkloadCheckpointed(const RunSpec& spec,
                                   const CheckpointOptions& opts) {
  RunSession session{spec};
  return session.finish(opts);
}

RunMetrics resumeWorkload(const std::string& checkpointPath,
                          const CheckpointOptions& opts, int decideJobs) {
  const std::unique_ptr<RunSession> session =
      RunSession::restore(checkpointPath);
  if (decideJobs >= 0) session->setDecideJobs(decideJobs);
  return session->finish(opts);
}


std::optional<std::string> firstDivergence(std::string_view payloadA,
                                           std::string_view payloadB) {
  const std::vector<ckpt::Token> a = ckpt::tokenize(payloadA);
  const std::vector<ckpt::Token> b = ckpt::tokenize(payloadB);
  const std::size_t shared = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < shared; ++i) {
    if (a[i] == b[i]) continue;
    if (a[i].path != b[i].path)
      return "structure diverges at record " + std::to_string(i) + ": '" +
             a[i].path + "' vs '" + b[i].path + "'";
    return a[i].path + ": " + a[i].value + " vs " + b[i].value;
  }
  if (a.size() != b.size())
    return "payloads agree for " + std::to_string(shared) +
           " records, then " + (a.size() < b.size() ? "A" : "B") +
           " ends early (" + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + " records)";
  return std::nullopt;
}

}  // namespace dike::exp
