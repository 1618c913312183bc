#include "exp/replay.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/fields.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/dike_policy.hpp"
#include "exp/analysis.hpp"
#include "exp/chrome_trace.hpp"
#include "exp/config_io.hpp"
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

constexpr auto kArrivalFields = [](auto& a, auto&& field) {
  field("atTick", a.atTick);
  field("benchmark", a.benchmark);
  field("threads", a.threads);
  field("scale", a.scale);
};

constexpr auto kFrequencyChangeFields = [](auto& c, auto&& field) {
  field("atTick", c.atTick);
  field("socket", c.socket);
  field("freqGhz", c.freqGhz);
};

util::JsonValue workloadSpecToJson(const wl::WorkloadSpec& w) {
  util::JsonObject o;
  o["id"] = w.id;
  o["name"] = w.name;
  o["class"] = static_cast<int>(w.cls);
  o["apps"] = util::JsonArray(w.apps.begin(), w.apps.end());
  o["includeKmeans"] = w.includeKmeans;
  return util::JsonValue{std::move(o)};
}

wl::WorkloadSpec workloadSpecFromJson(util::JsonReader& r) {
  wl::WorkloadSpec w;
  r.read("id", w.id);
  r.read("name", w.name);
  int cls = static_cast<int>(w.cls);
  r.read("class", cls);
  r.require(
      cls >= 0 && cls <= static_cast<int>(wl::WorkloadClass::UnbalancedMemory),
      "class", "is out of range: " + std::to_string(cls));
  w.cls = static_cast<wl::WorkloadClass>(cls);
  if (const util::JsonValue* apps = r.take("apps")) {
    r.require(apps->isArray(), "apps", "must be an array");
    for (const util::JsonValue& app : apps->asArray()) {
      const std::string path = r.pathOf("apps") + "[" +
                               std::to_string(w.apps.size()) + "]";
      util::decodeValue(app, path, w.apps.emplace_back());
    }
  }
  r.read("includeKmeans", w.includeKmeans);
  return w;
}

/// Script ticks: non-negative and exactly representable as a JSON number.
void requireScriptTick(const util::JsonReader& r, util::Tick t) {
  r.require(t >= 0 && t <= (util::Tick{1} << 53), "atTick",
            "must be a non-negative whole tick");
}

template <class T, class Fields>
util::JsonValue recordsToJson(const std::vector<T>& records,
                              const Fields& fields) {
  util::JsonArray out;
  for (const T& entry : records)
    out.emplace_back(util::encodeFields(entry, fields));
  return util::JsonValue{std::move(out)};
}

}  // namespace

util::JsonValue runSpecToJson(const RunSpec& spec) {
  util::JsonObject o;
  o["workloadId"] = spec.workloadId;
  if (spec.customWorkload)
    o["customWorkload"] = workloadSpecToJson(*spec.customWorkload);
  o["scheduler"] = std::string{toString(spec.kind)};
  // Run-spec-only keys: the run's own <swapSize, quantaLength> and Dike's
  // goal (makeScheduler writes both into the Dike config from the spec's
  // params and kind) and the machine seed (RunSession overwrites it with
  // the spec's). 64-bit seeds are decimal strings: JSON numbers are doubles
  // and silently lose integer precision above 2^53.
  o["swapSize"] = spec.params.swapSize;
  o["quantaLengthMs"] = spec.params.quantaLengthMs;
  if (spec.dikeConfig) {
    util::JsonObject dike = toJson(*spec.dikeConfig, ConfigDocument::RunSpec);
    dike.emplace("goal", static_cast<int>(spec.dikeConfig->goal));
    o["dike"] = std::move(dike);
  }
  o["scale"] = spec.scale;
  o["seed"] = std::to_string(spec.seed);
  o["heterogeneous"] = spec.heterogeneous;
  if (!spec.topology.empty()) o["topology"] = topologyToJson(spec.topology);
  util::JsonObject machine = toJson(spec.machine);
  machine.emplace("seed", std::to_string(spec.machine.seed));
  o["machine"] = std::move(machine);
  o["threadsPerApp"] = spec.threadsPerApp;
  if (spec.faults) o["faults"] = fault::toJson(*spec.faults);
  // Written only when scripted, so every other spec encodes as before.
  if (!spec.arrivals.empty())
    o["arrivals"] = recordsToJson(spec.arrivals, kArrivalFields);
  if (!spec.dvfs.empty())
    o["dvfs"] = recordsToJson(spec.dvfs, kFrequencyChangeFields);
  return util::JsonValue{std::move(o)};
}

RunSpec runSpecFromJson(const util::JsonValue& doc) {
  util::JsonReader r{doc, ""};
  RunSpec spec;
  r.read("workloadId", spec.workloadId);
  r.readObject("customWorkload", [&spec](util::JsonReader& w) {
    spec.customWorkload = workloadSpecFromJson(w);
  });
  std::string scheduler{toString(spec.kind)};
  r.read("scheduler", scheduler);
  spec.kind = schedulerKindFromName(scheduler);
  r.read("swapSize", spec.params.swapSize);
  r.read("quantaLengthMs", spec.params.quantaLengthMs);
  r.readObject("dike", [&spec](util::JsonReader& d) {
    core::DikeConfig c;
    int goal = static_cast<int>(c.goal);
    d.read("goal", goal);
    constexpr auto kLast = static_cast<int>(core::AdaptationGoal::Performance);
    d.require(goal >= 0 && goal <= kLast, "goal",
              "is out of range: " + std::to_string(goal));
    c.goal = static_cast<core::AdaptationGoal>(goal);
    readDikeConfig(d, c);
    spec.dikeConfig = c;
  });
  r.read("scale", spec.scale);
  r.read("seed", spec.seed);
  r.read("heterogeneous", spec.heterogeneous);
  spec.topology = readTopology(r);
  r.readObject("machine", [&spec](util::JsonReader& m) {
    m.read("seed", spec.machine.seed);
    readMachineConfig(m, spec.machine);
  });
  r.read("threadsPerApp", spec.threadsPerApp);
  if (const util::JsonValue* faults = r.take("faults"))
    spec.faults = fault::parseFaultPlan(*faults);
  r.readObjects("arrivals", [&spec](util::JsonReader& a) {
    Arrival& arrival = spec.arrivals.emplace_back();
    a.readFields(arrival, kArrivalFields);
    requireScriptTick(a, arrival.atTick);
    a.require(wl::isKnownBenchmark(arrival.benchmark), "benchmark",
              "names an unknown benchmark: '" + arrival.benchmark + "'");
    a.require(arrival.threads >= 1, "threads", "must be positive");
    a.require(arrival.scale > 0.0 && std::isfinite(arrival.scale), "scale",
              "must be positive");
  });
  r.readObjects("dvfs", [&spec](util::JsonReader& d) {
    const int socketCount = topologyForSpec(spec).socketCount();
    FrequencyChange& change = spec.dvfs.emplace_back();
    d.readFields(change, kFrequencyChangeFields);
    requireScriptTick(d, change.atTick);
    d.require(change.socket >= 0 && change.socket < socketCount, "socket",
              "is " + std::to_string(change.socket) +
                  " but the machine has " + std::to_string(socketCount) +
                  " sockets");
    d.require(change.freqGhz > 0.0 && std::isfinite(change.freqGhz),
              "freqGhz", "must be positive");
  });
  r.finish();
  return spec;
}

namespace {

constexpr auto kRunMetricsFields = [](auto& m, auto&& field) {
  field("scheduler", m.scheduler);
  field("workload", m.workload);
  field("makespan", m.makespan);
  field("timedOut", m.timedOut);
  field("fairness", m.fairness);
  field("swaps", m.swaps);
  field("migrations", m.migrations);
  field("energyJoules", m.energyJoules);
  field("traceDropped", m.traceDropped);
  field("coreFreqDips", m.coreFreqDips);
  field("hasPredictions", m.hasPredictions);
};

/// Present only when hasPredictions (with the predTrace array).
constexpr auto kPredictionErrorFields = [](auto& m, auto&& field) {
  field("predErrMean", m.predErrMean);
  field("predErrMin", m.predErrMin);
  field("predErrMax", m.predErrMax);
};

/// Each process also carries its threadFinishTicks array.
constexpr auto kProcessResultFields = [](auto& p, auto&& field) {
  field("processId", p.processId);
  field("name", p.name);
  field("memoryIntensive", p.memoryIntensive);
  field("finishTick", p.finishTick);
  field("runtimeCv", p.runtimeCv);
};

}  // namespace

util::JsonValue runMetricsToJson(const RunMetrics& m) {
  util::JsonObject o = util::encodeFields(m, kRunMetricsFields);
  util::JsonArray processes;
  for (const ProcessResult& p : m.processes) {
    util::JsonObject po = util::encodeFields(p, kProcessResultFields);
    util::JsonArray finishes;
    for (const util::Tick t : p.threadFinishTicks)
      finishes.emplace_back(static_cast<double>(t));
    po.emplace("threadFinishTicks", std::move(finishes));
    processes.emplace_back(std::move(po));
  }
  o.emplace("processes", std::move(processes));
  o.emplace("decisions",
            util::encodeFields(m.decisions, core::kDecisionTotalsFields));
  o.emplace("faults", util::encodeFields(m.faults, fault::kFaultTallyFields));
  if (m.hasPredictions) {
    o.merge(util::encodeFields(m, kPredictionErrorFields));
    o.emplace("predTrace", recordsToJson(m.predTrace,
                                        core::kPredictionErrorPointFields));
  }
  return util::JsonValue{std::move(o)};
}

RunMetrics runMetricsFromJson(const util::JsonValue& doc) {
  RunMetrics m;
  util::JsonReader r{doc, ""};
  r.readFields(m, kRunMetricsFields);
  r.readObjects("processes", [&m](util::JsonReader& pr) {
    ProcessResult& p = m.processes.emplace_back();
    pr.readFields(p, kProcessResultFields);
    if (const util::JsonValue* finishes = pr.take("threadFinishTicks"))
      for (const util::JsonValue& t : finishes->asArray())
        p.threadFinishTicks.push_back(static_cast<util::Tick>(t.asNumber()));
  });
  r.readObject("decisions", [&m](util::JsonReader& d) {
    d.readFields(m.decisions, core::kDecisionTotalsFields);
  });
  r.readObject("faults", [&m](util::JsonReader& f) {
    f.readFields(m.faults, fault::kFaultTallyFields);
  });
  if (m.hasPredictions) {
    r.readFields(m, kPredictionErrorFields);
    r.readObjects("predTrace", [&m](util::JsonReader& pr) {
      pr.readFields(m.predTrace.emplace_back(),
                    core::kPredictionErrorPointFields);
    });
  }
  r.finish();
  return m;
}

/// Publishes the per-quantum live events (thread slowdowns, fairness
/// spread) into the ring transport and refreshes the aggregator's placement
/// snapshot for /state. Reads the run's slowdown cursor, the one estimate
/// the quantum stream also reads, so live aggregates and the NDJSON stream
/// agree sample-for-sample.
class LiveQuantumPublisher final : public sched::QuantumListener {
 public:
  explicit LiveQuantumPublisher(const SlowdownCursor& cursor)
      : cursor_(&cursor) {}

  void afterQuantum(const sim::Machine& machine,
                    const sched::SchedulerView& view,
                    sched::Scheduler& scheduler) override {
    const telemetry::SlowdownEstimator& slowdown = cursor_->estimate();
    const std::int64_t quantum = cursor_->quantum();
    const sim::QuantumSample& sample = view.sample();
    const core::DikePolicy* dike = core::asDikePolicy(scheduler);
    const double unfairness =
        dike != nullptr ? dike->lastQuantumStats().unfairness
                        : std::numeric_limits<double>::quiet_NaN();
    const double spread = slowdown.fairnessSpread();

    // Ring events flow every quantum (the live histograms must match the
    // NDJSON stream sample-for-sample), but the /state placement snapshot
    // only feeds a few-Hz dike_top poll — rebuilding and mutex-publishing
    // it per quantum is pure simulation-thread overhead. Refresh every
    // eighth quantum; sub-millisecond staleness at observed quantum rates.
    const bool refresh = (quantum & 0x7) == 0;
    telemetry::LiveState state;
    if (refresh) {
      state.tick = machine.now();
      state.quantum = quantum;
      state.unfairness = unfairness;
      state.fairnessSpread = std::isnan(spread) ? 0.0 : spread;
      state.scheduler.assign(scheduler.name());
      state.cores.reserve(static_cast<std::size_t>(view.coreCount()));
      const core::CoreObservers observers =
          dike != nullptr ? dike->coreObservers() : core::CoreObservers{};
      for (int core = 0; core < view.coreCount(); ++core) {
        telemetry::LiveCoreState c;
        c.core = core;
        c.thread = view.coreOccupant(core);
        if (const core::Observer* observer = observers.ofCore(core);
            observer != nullptr && observer->ready())
          c.highBw = observer->isHighBandwidthCore(core);
        state.cores.push_back(c);
      }
    }
    for (const sim::ThreadSample& s : sample.threads) {
      if (s.finished || s.coreId < 0) continue;
      const double sd = slowdown.slowdownOf(s.threadId);
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
                       static_cast<std::uint32_t>(quantum), machine.now(),
                       spread, unfairness);
    if (refresh)
      telemetry::Aggregator::instance().updateLiveState(std::move(state));
    // Liveness stamp for /healthz (two relaxed stores — negligible against
    // the live-plane overhead gate): this quantum just completed, now.
    telemetry::heartbeat(quantum);
  }

 private:
  const SlowdownCursor* cursor_;
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
    if (core::DikePolicy* dike = core::asDikePolicy(*scheduler_))
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
    livePublisher_ = std::make_unique<LiveQuantumPublisher>(slowdown_);
    addQuantumListener(*livePublisher_);
  }
  // The decision trace is read only into the Chrome trace, so nothing
  // records it for a run that writes none.
  if (tel.chromeTracePath.empty()) return;
  if (core::DikePolicy* dike = core::asDikePolicy(*scheduler_))
    dike->setDecisionTrace(&decisions_);
  // Route live-SLO alerts into this run's decision trace so breach records
  // line up with the scheduler decisions around them.
  if (tel.livePublish) liveSlo_ = telemetry::Aggregator::instance().slo();
  if (liveSlo_ != nullptr) liveSlo_->setDecisionTrace(&decisions_);
}

void RunSession::attachQuantumStream(telemetry::QuantumStreamWriter& writer) {
  if (streamListener_)
    throw std::logic_error{"run session already has a quantum stream"};
  // A late stream would number its records from a cursor that skipped the
  // quanta already run.
  if (quantumIndex_ != 0)
    throw std::logic_error{
        "a quantum stream must attach before the run's first quantum"};
  streamListener_ =
      std::make_unique<QuantumMetricsListener>(writer, slowdown_);
  addQuantumListener(*streamListener_);
}

void RunSession::addQuantumListener(sched::QuantumListener& listener) {
  if (listeners_.size() == 0) listeners_.add(&slowdown_);
  listeners_.add(&listener);
  adapter_->setListener(&listeners_);
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

namespace {

/// The run section's leading fields.
struct RunHeader {
  std::string config;  ///< the RunSpec as JSON
  std::string schedulerName;
  std::int64_t quantumIndex = 0;
  util::Tick nextQuantumAt = 0;
  util::Tick maxTicks = 0;
};

constexpr auto kRunHeaderFields = [](auto& h, auto&& field) {
  field("config", h.config);
  field("schedulerName", h.schedulerName);
  field("quantumIndex", h.quantumIndex);
  field("nextQuantumAt", h.nextQuantumAt);
  field("maxTicks", h.maxTicks);
};

/// Script progress; only scripted runs carry it.
struct ScriptCursor {
  std::int64_t arrivalsInjected = 0;
  std::int64_t dvfsApplied = 0;
};

constexpr auto kScriptFields = [](auto& s, auto&& field) {
  field("arrivalsInjected", s.arrivalsInjected);
  field("dvfsApplied", s.dvfsApplied);
};

}  // namespace

std::string RunSession::checkpointPayload() const {
  // Size first with the same save code, then write once into a buffer of
  // exactly that size: no regrowth, no re-copy, no re-fault.
  const std::string config = runSpecToJson(spec_).dump();
  ckpt::BinWriter counter = ckpt::BinWriter::counting();
  savePayload(counter, config);
  ckpt::BinWriter w = ckpt::BinWriter::sized(counter.size());
  savePayload(w, config);
  return w.take();
}

void RunSession::savePayload(ckpt::BinWriter& w,
                             std::string_view config) const {
  ckpt::FieldWriter field{w};
  field.section("run", [&] {
    ckpt::writeFields(w,
                      RunHeader{std::string{config},
                                std::string{scheduler_->name()},
                                quantumIndex_, nextQuantumAt_,
                                limits_.maxTicks},
                      kRunHeaderFields);
    // Script progress precedes the machine: restore re-adds the arrived
    // processes before loading the machine.
    if (arrivals_ || dvfs_)
      ckpt::writeFields(
          w, ScriptCursor{arrivalsInjected(), dvfs_ ? dvfs_->applied() : 0},
          kScriptFields);
    machine_->saveState(w);
    scheduler_->saveState(w);
    field("hasFaultLayer", injector_.has_value());
    if (injector_) {
      injector_->saveState(w);
      faultPolicy_->saveState(w);
    }
    // The slowdown cursor rides in the payload when a stream is attached:
    // resumed NDJSON records are only byte-identical if its path-dependent
    // accumulators restart exactly (format version 2).
    field("hasQuantumStream", streamListener_ != nullptr);
    if (streamListener_) slowdown_.saveState(w);
  });
}

void RunSession::writeCheckpoint(const std::string& path) const {
  ckpt::writeCheckpointFile(path, checkpointPayload());
}

std::unique_ptr<RunSession> RunSession::restore(
    const std::string& path, telemetry::QuantumStreamWriter* stream,
    int decideJobs) {
  return restoreFromPayload(ckpt::readCheckpointFile(path), stream,
                            decideJobs);
}

std::unique_ptr<RunSession> RunSession::restoreFromPayload(
    std::string_view payload, telemetry::QuantumStreamWriter* stream,
    int decideJobs) {
  ckpt::BinReader r{payload};
  ckpt::FieldReader field{r};
  r.beginSection("run");
  RunHeader header;
  ckpt::readFields(r, header, kRunHeaderFields);
  RunSpec spec;
  try {
    spec = runSpecFromJson(util::parseJson(header.config));
  } catch (const std::exception& e) {
    throw ckpt::CheckpointError{
        std::string{"checkpoint carries an unreadable run spec: "} +
        e.what()};
  }
  // The spec never encodes decideJobs, so overriding it here changes how
  // the restored run executes, never a byte it writes.
  if (decideJobs >= 0 && spec.dikeConfig)
    spec.dikeConfig->cluster.decideJobs = decideJobs;
  // Rebuild-then-overwrite: the stack is reconstructed from the embedded
  // spec exactly as a fresh run would build it, then the mutable state is
  // loaded over it. A throw anywhere below destroys the half-built session
  // — the caller never observes a partial restore.
  auto session = std::make_unique<RunSession>(std::move(spec));
  // Attached before the restored quantum count lands; a saved cursor, read
  // below, then replaces the fresh one it starts from.
  if (stream != nullptr) session->attachQuantumStream(*stream);
  if (header.schedulerName != session->scheduler_->name())
    throw ckpt::CheckpointError{
        "checkpoint names scheduler '" + header.schedulerName +
        "' but the embedded run spec builds '" +
        std::string{session->scheduler_->name()} + "'"};
  session->quantumIndex_ = header.quantumIndex;
  session->nextQuantumAt_ = header.nextQuantumAt;
  session->limits_.maxTicks = header.maxTicks;
  if (session->arrivals_ || session->dvfs_) {
    ScriptCursor script;
    ckpt::readFields(r, script, kScriptFields);
    if (session->arrivals_)
      session->arrivals_->restoreInjected(*session->machine_,
                                          script.arrivalsInjected);
    else if (script.arrivalsInjected != 0)
      throw ckpt::CheckpointError{
          "checkpoint claims injected arrivals but the run spec has none"};
    if (session->dvfs_)
      session->dvfs_->restoreApplied(script.dvfsApplied);
    else if (script.dvfsApplied != 0)
      throw ckpt::CheckpointError{
          "checkpoint claims applied frequency changes but the run spec "
          "scripts none"};
  }
  session->machine_->loadState(r);
  // The machine is restored first, so its thread count bounds the
  // scheduler's restored thread ids.
  session->scheduler_->loadState(
      r, util::isize(session->machine_->threads()));
  bool hasFaultLayer = false;
  field("hasFaultLayer", hasFaultLayer);
  field.require(hasFaultLayer == session->injector_.has_value(),
                "hasFaultLayer", "contradicts the embedded run spec");
  if (session->injector_) {
    session->injector_->loadState(r);
    session->faultPolicy_->loadState(r);
  }
  bool hasStream = false;
  field("hasQuantumStream", hasStream);
  // A stream-less restore reads the cursor too; its payloads then drop it,
  // symmetrically on both sides of a dike_diff comparison.
  if (hasStream) session->slowdown_.loadState(r);
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
  return RunSession::restore(checkpointPath, nullptr, decideJobs)
      ->finish(opts);
}

}  // namespace dike::exp
