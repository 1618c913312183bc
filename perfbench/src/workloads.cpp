#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/dike_scheduler.hpp"
#include "exp/replay.hpp"
#include "exp/runner.hpp"
#include "exp/supervise.hpp"
#include "sched/placement.hpp"
#include "telemetry/health.hpp"
#include "telemetry/quantum_stream.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/task_pool.hpp"
#include "workload/benchmarks.hpp"
#include "workload/workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace dike;

namespace {

/// Busy threads per workload: the grid's pool width and the clustered
/// scheduler's plan-phase width.
constexpr int kJobs = 2;
constexpr double kPaperScale = 0.5;

// paper_grid: Table II x the paper's five policies x kGridReps seeds.
constexpr int kGridReps = 3;
// tenants_4096: 32 sockets of 64 physical cores x 2 SMT, fully occupied.
constexpr int kTenantSockets = 32;
constexpr int kTenantCoresPerSocket = 64;
constexpr int kTenants = 512;
constexpr int kTenantThreads = 8;
constexpr double kTenantScale = 1.0;
constexpr int kTenantQuanta = 200;
// supervised_recovery: crash on attempt 1 somewhere after the first
// rolling checkpoint (checkpointEvery = 8), resume on attempt 2.
constexpr std::int64_t kCrashFirst = 9;
constexpr std::int64_t kCrashSpan = 6;
constexpr int kCrashExitCode = 13;  // runSupervisedChild's crash hook

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Sub-seed for one purpose; kept below 2^31 so every seed prints the same
/// in JSON, reports and logs.
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt) {
  return splitmix64(seed ^ splitmix64(salt)) & 0x7FFFFFFFULL;
}

std::string digestOf(std::string_view bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(ckpt::fnv1a64(bytes)));
  return buf;
}

double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/// Host ms per default-length quantum for a unit that took `seconds` to
/// simulate `ticks` ticks.
double quantumMsOf(double seconds, util::Tick ticks) {
  const auto quantumTicks =
      static_cast<double>(util::millisToTicks(core::defaultParams().quantaLengthMs));
  return ticks > 0 ? seconds * 1e3 * quantumTicks / static_cast<double>(ticks)
                   : 0.0;
}

/// The fallback check for seeds without a recorded digest.
std::string brokenInvariant(const exp::RunMetrics& m) {
  if (m.timedOut) return "run timed out";
  if (!std::isfinite(m.fairness)) return "non-finite fairness";
  if (m.processes.empty()) return "no process results";
  return {};
}

void addDecisions(TraceCounts& counts, const exp::RunMetrics& m) {
  counts.dikeQuanta += m.decisions.quanta;
  counts.actedQuanta += m.decisions.actedQuanta;
  counts.pairsConsidered += m.decisions.pairsConsidered;
  counts.swapsExecuted += m.decisions.swapsExecuted;
}

/// Sum of RunSession construction times: exactly the stack every run builds
/// before its first tick (machine, processes, placement, scheduler,
/// adapter). Built one at a time and discarded.
double constructionSeconds(const std::vector<exp::RunSpec>& specs) {
  double total = 0.0;
  for (const exp::RunSpec& spec : specs) {
    const std::int64_t start = nowNs();
    auto session = std::make_unique<exp::RunSession>(spec);
    total += secondsSince(start);
  }
  return total;
}

const wl::WorkloadSpec& workloadOf(const exp::RunSpec& spec) {
  return spec.customWorkload ? *spec.customWorkload
                             : wl::workload(spec.workloadId);
}

sim::MachineConfig machineConfigOf(const exp::RunSpec& spec) {
  sim::MachineConfig cfg = spec.machine;
  cfg.seed = spec.seed;
  return cfg;
}

/// The stack runWorkload / RunSession build, with the timing probes spliced
/// in between the engine, the adapter and the real scheduler. No fault plan
/// and no telemetry: the workloads attach neither.
struct TracedStack {
  TracedStack(const exp::RunSpec& spec, SpanLog& log)
      : machine(exp::topologyForSpec(spec), machineConfigOf(spec)),
        scheduler(exp::makeScheduler(spec)),
        timing(*scheduler, log),
        adapter(timing),
        policy(adapter, log) {
    wl::addWorkloadProcesses(machine, workloadOf(spec), spec.scale,
                             spec.threadsPerApp);
    sched::placeRandom(machine, spec.seed);
  }

  sim::Machine machine;
  std::unique_ptr<sched::Scheduler> scheduler;
  TimingScheduler timing;
  sched::SchedulerAdapter adapter;
  TimingPolicy policy;
};

// ---------------------------------------------------------------- paper_grid

class PaperGrid final : public Workload {
 public:
  explicit PaperGrid(std::uint64_t seed) {
    // runExperiment's flattening of the paper evaluation config: per
    // (workload, rep) the CFS baseline first, then the other policies.
    const std::uint64_t base = deriveSeed(seed, 1);
    for (const wl::WorkloadSpec& workload : wl::workloadTable()) {
      for (int rep = 0; rep < kGridReps; ++rep) {
        exp::RunSpec spec;
        spec.workloadId = workload.id;
        spec.scale = kPaperScale;
        spec.seed = base + static_cast<std::uint64_t>(rep) * 1000;
        spec.dikeConfig = core::DikeConfig{};
        spec.params = spec.dikeConfig->params;
        for (const exp::SchedulerKind kind : exp::allSchedulerKinds()) {
          spec.kind = kind;
          specs_.push_back(spec);
        }
      }
    }
  }

  PassResult run(bool traced) override {
    const std::size_t n = specs_.size();
    PassResult r;
    r.traced = traced;
    r.threads = kJobs;
    r.setupS = constructionSeconds(specs_);
    r.ops.resize(n);
    r.runS.resize(n);
    std::vector<util::Tick> ticks(n, 0);
    std::vector<SpanLog> logs;
    std::vector<TraceCounts> counts(n);
    for (std::size_t i = 0; traced && i < n; ++i)
      logs.emplace_back(static_cast<std::int32_t>(i));

    SpanLog passLog;
    const std::int64_t start = nowNs();
    {
      const ScopedSpan pass{traced ? &passLog : nullptr, SpanKind::Pass};
      util::TaskPool::shared().forEach(
          n,
          [&](std::size_t i) {
            const std::int64_t runStart = nowNs();
            SpanLog* log = traced ? &logs[i] : nullptr;
            OpResult& op = r.ops[i];
            try {
              const exp::RunMetrics m = traced
                                            ? tracedRun(specs_[i], *log, counts[i])
                                            : exp::runWorkload(specs_[i]);
              op.error = brokenInvariant(m);
              ticks[i] = m.makespan;
              const ScopedSpan digest{log, SpanKind::Digest};
              op.digest = digestOf(exp::runMetricsToJson(m).dump());
            } catch (const std::exception& e) {
              op.error = e.what();
            }
            r.runS[i] = secondsSince(runStart);
          },
          kJobs);
    }
    r.wallS = secondsSince(start);

    for (std::size_t i = 0; i < n; ++i) {
      r.ticks += ticks[i];
      r.quantumMs.push_back(quantumMsOf(r.runS[i], ticks[i]));
      r.counts.swaps += counts[i].swaps;
      r.counts.migrations += counts[i].migrations;
      r.counts.dikeQuanta += counts[i].dikeQuanta;
      r.counts.actedQuanta += counts[i].actedQuanta;
      r.counts.pairsConsidered += counts[i].pairsConsidered;
      r.counts.swapsExecuted += counts[i].swapsExecuted;
    }
    if (traced) {
      r.spanLogs.push_back(passLog.spans());
      for (const SpanLog& log : logs) r.spanLogs.push_back(log.spans());
    }
    return r;
  }

 private:
  /// runWorkload, rebuilt from its public pieces around the probes.
  static exp::RunMetrics tracedRun(const exp::RunSpec& spec, SpanLog& log,
                                   TraceCounts& counts) {
    const ScopedSpan run{&log, SpanKind::Run};
    std::unique_ptr<TracedStack> stack;
    {
      const ScopedSpan setup{&log, SpanKind::Setup};
      stack = std::make_unique<TracedStack>(spec, log);
    }
    sim::RunOutcome outcome;
    {
      const ScopedSpan sim{&log, SpanKind::SimRun};
      outcome = sim::runMachine(stack->machine, stack->policy);
    }
    const ScopedSpan collect{&log, SpanKind::Collect};
    exp::RunMetrics m =
        exp::collectRunMetrics(stack->machine, outcome, *stack->scheduler);
    m.workload = workloadOf(spec).name;
    counts.swaps = stack->timing.counts().swaps;
    counts.migrations = stack->timing.counts().migrations;
    addDecisions(counts, m);
    return m;
  }

  std::vector<exp::RunSpec> specs_;
};

// -------------------------------------------------------------- tenants_4096

class Tenants final : public Workload {
 public:
  explicit Tenants(std::uint64_t seed) {
    spec_.seed = deriveSeed(seed, 2);
    for (int s = 0; s < kTenantSockets; ++s) {
      sim::SocketSpec socket;
      socket.physicalCores = kTenantCoresPerSocket;
      socket.smtWays = 2;
      const bool fast = s % 2 == 0;
      socket.freqGhz = fast ? 2.33 : 1.21;
      socket.type = fast ? sim::CoreType::Fast : sim::CoreType::Slow;
      spec_.topology.push_back(socket);
    }
    std::vector<std::string> models;
    for (const std::string& name : wl::benchmarkNames())
      if (name != "kmeans") models.push_back(name);
    wl::WorkloadSpec tenants;
    tenants.name = "tenants" + std::to_string(kTenants);
    tenants.includeKmeans = false;
    std::uint64_t draw = deriveSeed(seed, 3);
    for (int t = 0; t < kTenants; ++t) {
      draw = splitmix64(draw);
      tenants.apps.push_back(models[draw % models.size()]);
    }
    spec_.customWorkload = tenants;
    spec_.threadsPerApp = kTenantThreads;
    spec_.scale = kTenantScale;
    spec_.kind = exp::SchedulerKind::Dike;
    core::DikeConfig cfg;
    cfg.cluster.clusters = kTenantSockets;
    cfg.cluster.decideJobs = kJobs;
    spec_.dikeConfig = cfg;
    spec_.params = cfg.params;
  }

  PassResult run(bool traced) override {
    PassResult r;
    r.traced = traced;
    r.threads = 1;  // the decide helper only runs inside the decide span
    r.ops.resize(1);
    const std::int64_t start = nowNs();
    try {
      if (traced)
        runTraced(r);
      else
        runPlain(r);
    } catch (const std::exception& e) {
      r.ops[0].error = e.what();
    }
    r.wallS = secondsSince(start);
    r.runS.push_back(r.wallS);
    return r;
  }

 private:
  void runPlain(PassResult& r) const {
    const std::int64_t setupStart = nowNs();
    auto session = std::make_unique<exp::RunSession>(spec_);
    r.setupS = secondsSince(setupStart);
    for (int q = 0; q < kTenantQuanta; ++q) {
      const std::int64_t stepStart = nowNs();
      const bool stepped = session->stepQuantum();
      r.quantumMs.push_back(static_cast<double>(nowNs() - stepStart) * 1e-6);
      if (!stepped) throw std::runtime_error{"tenant run ended early"};
    }
    r.ticks = session->machine().now();
    r.ops[0].digest = digestOf(session->checkpointPayload());
  }

  /// RunSession's constructor, stepQuantum and checkpointPayload, rebuilt
  /// from public pieces so the probes sit between the layers. The payload
  /// replica is byte-identical to RunSession's when the run is.
  void runTraced(PassResult& r) const {
    SpanLog log;
    {
      const ScopedSpan pass{&log, SpanKind::Pass};
      const std::int64_t setupStart = nowNs();
      std::unique_ptr<TracedStack> stack;
      {
        const ScopedSpan setup{&log, SpanKind::Setup};
        stack = std::make_unique<TracedStack>(spec_, log);
      }
      r.setupS = secondsSince(setupStart);

      sim::Machine& machine = stack->machine;
      sim::QuantumPolicy& policy = stack->policy;
      const sim::RunLimits limits{};
      util::Tick nextQuantumAt = policy.quantumTicks();
      std::int64_t quantumIndex = 0;
      for (int q = 0; q < kTenantQuanta; ++q) {
        const std::int64_t stepStart = nowNs();
        bool stepped = false;
        {
          const ScopedSpan step{&log, SpanKind::SimRun};
          while (!machine.allFinished() && machine.now() < limits.maxTicks) {
            const util::Tick target = std::min(
                limits.maxTicks, std::max(nextQuantumAt, machine.now() + 1));
            machine.stepUntil(target);
            if (machine.now() >= nextQuantumAt) {
              if (machine.allFinished()) break;
              policy.onQuantum(machine);
              nextQuantumAt = std::max(
                  nextQuantumAt +
                      std::max<util::Tick>(1, policy.quantumTicks()),
                  machine.now() + 1);
              ++quantumIndex;
              stepped = true;
              break;
            }
          }
        }
        r.quantumMs.push_back(static_cast<double>(nowNs() - stepStart) * 1e-6);
        if (!stepped) throw std::runtime_error{"tenant run ended early"};
      }
      r.ticks = machine.now();

      std::string payload;
      {
        const ScopedSpan span{&log, SpanKind::Payload};
        ckpt::BinWriter w;
        w.beginSection("run");
        w.str("config", exp::runSpecToJson(spec_).dump());
        w.str("schedulerName", stack->scheduler->name());
        w.i64("quantumIndex", quantumIndex);
        w.i64("nextQuantumAt", nextQuantumAt);
        w.i64("maxTicks", limits.maxTicks);
        machine.saveState(w);
        stack->scheduler->saveState(w);
        w.boolean("hasFaultLayer", false);
        w.boolean("hasQuantumStream", false);
        w.endSection();
        payload = w.take();
      }
      const ScopedSpan digest{&log, SpanKind::Digest};
      r.ops[0].digest = digestOf(payload);
      r.counts.swaps = stack->timing.counts().swaps;
      r.counts.migrations = stack->timing.counts().migrations;
      if (const auto* dike =
              dynamic_cast<const core::DikeScheduler*>(stack->scheduler.get())) {
        const core::DecisionTotals& t = dike->decisionTotals();
        r.counts.dikeQuanta = t.quanta;
        r.counts.actedQuanta = t.actedQuanta;
        r.counts.pairsConsidered = t.pairsConsidered;
        r.counts.swapsExecuted = t.swapsExecuted;
      }
    }
    r.spanLogs.push_back(log.spans());
  }

  exp::RunSpec spec_;
};

// ------------------------------------------------------- supervised_recovery

std::string readFile(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot read " + path};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

class Supervised final : public Workload {
 public:
  Supervised(std::uint64_t seed, const std::string& workDir) {
    const std::uint64_t runSeed = deriveSeed(seed, 4);
    for (const wl::WorkloadSpec& workload : wl::workloadTable()) {
      exp::SuperviseSpec spec;
      spec.run.workloadId = workload.id;
      spec.run.kind = exp::SchedulerKind::DikeAF;
      spec.run.scale = kPaperScale;
      spec.run.seed = runSeed;
      spec.dir = workDir + "/supervised/" + workload.name;
      spec.crashAtQuantum =
          kCrashFirst + static_cast<std::int64_t>(
                            deriveSeed(seed, 100 + static_cast<std::uint64_t>(
                                                       workload.id)) %
                            kCrashSpan);
      runs_.push_back(spec.run);
      specs_.push_back(std::move(spec));
    }
  }

  PassResult run(bool traced) override {
    PassResult r;
    r.traced = traced;
    r.threads = 1;
    r.setupS = constructionSeconds(runs_);
    SpanLog log;
    const std::int64_t start = nowNs();
    {
      const ScopedSpan pass{traced ? &log : nullptr, SpanKind::Pass};
      for (std::size_t i = 0; i < specs_.size(); ++i) {
        const exp::SuperviseSpec& spec = specs_[i];
        fs::remove_all(spec.dir);
        const std::int64_t runStart = nowNs();
        OpResult op;
        util::Tick makespan = 0;
        try {
          op.error = traced ? tracedOp(spec, log, r.counts) : plainOp(spec);
          const ScopedSpan digest{traced ? &log : nullptr, SpanKind::Digest};
          const std::string report = readFile(exp::reportPath(spec.dir));
          op.digest = digestOf(readFile(exp::streamFinalPath(spec.dir)) +
                               '\0' + report);
          const exp::RunMetrics m =
              exp::runMetricsFromJson(util::parseJson(report));
          if (op.error.empty()) op.error = brokenInvariant(m);
          makespan = m.makespan;
          if (traced) {
            r.counts.swaps += m.swaps;
            r.counts.migrations += m.migrations;
            addDecisions(r.counts, m);
          }
        } catch (const std::exception& e) {
          op.error = e.what();
        }
        const double runS = secondsSince(runStart);
        r.runS.push_back(runS);
        r.ticks += makespan;
        r.quantumMs.push_back(quantumMsOf(runS, makespan));
        r.ops.push_back(std::move(op));
      }
    }
    r.wallS = secondsSince(start);
    for (const exp::SuperviseSpec& spec : specs_) fs::remove_all(spec.dir);
    if (traced) r.spanLogs.push_back(log.spans());
    return r;
  }

 private:
  /// The program's own supervised child, in-process: crash, then resume.
  static std::string plainOp(const exp::SuperviseSpec& spec) {
    const int first = exp::runSupervisedChild(spec, -1, 1);
    if (first != kCrashExitCode)
      return "attempt 1 exited " + std::to_string(first) +
             " instead of crashing at quantum " +
             std::to_string(spec.crashAtQuantum);
    const int second = exp::runSupervisedChild(spec, -1, 2);
    if (second != 0)
      return "resumed attempt exited " + std::to_string(second);
    return {};
  }

  static std::string tracedOp(const exp::SuperviseSpec& spec, SpanLog& log,
                              TraceCounts& counts) {
    const ScopedSpan run{&log, SpanKind::Run};
    if (!tracedAttempt(spec, 1, log, counts))
      return "attempt 1 finished instead of crashing at quantum " +
             std::to_string(spec.crashAtQuantum);
    if (tracedAttempt(spec, 2, log, counts))
      return "resumed attempt crashed";
    return {};
  }

  /// Replica of exp::runSupervisedChild (heartbeatFd < 0) with a span
  /// around every call into the exp, telemetry and ckpt layers. Returns
  /// true when the attempt stopped at the injected crash.
  static bool tracedAttempt(const exp::SuperviseSpec& spec, int attempt,
                            SpanLog& log, TraceCounts& counts) {
    const std::string ckptDir = exp::checkpointDir(spec.dir);
    fs::create_directories(ckptDir);
    ckpt::CheckpointDirScan scan;
    {
      const ScopedSpan span{&log, SpanKind::CkptScan};
      scan = ckpt::findLatestValidCheckpoint(ckptDir);
    }
    const std::string part = exp::streamPartPath(spec.dir);
    const std::string final_ = exp::streamFinalPath(spec.dir);

    std::ostringstream buf;
    telemetry::QuantumStreamWriter writer{buf,
                                          telemetry::StreamFormat::JsonLines};
    std::unique_ptr<exp::RunSession> session;
    if (!scan.path.empty()) {
      {
        const ScopedSpan span{&log, SpanKind::CkptRestore};
        session = exp::RunSession::restore(scan.path, &writer);
      }
      ++counts.restores;
      const ScopedSpan span{&log, SpanKind::CkptTrim};
      util::trimFileToLines(part, session->quantumIndex());
    } else {
      {
        const ScopedSpan span{&log, SpanKind::Setup};
        session = std::make_unique<exp::RunSession>(spec.run);
        session->attachQuantumStream(writer);
      }
      const ScopedSpan span{&log, SpanKind::Publish};
      util::writeFileAtomic(part, "");
    }

    util::AppendFile stream{part};
    const auto append = [&] {
      const ScopedSpan span{&log, SpanKind::StreamAppend};
      counts.streamBytes += static_cast<std::int64_t>(buf.view().size());
      stream.append(buf.view());
      buf.str("");
    };
    for (;;) {
      bool stepped = false;
      {
        const ScopedSpan span{&log, SpanKind::SessionStep};
        stepped = session->stepQuantum();
      }
      if (!stepped) break;
      const std::int64_t q = session->quantumIndex();
      append();
      telemetry::heartbeat(q);
      if (attempt == 1 && q == spec.crashAtQuantum) return true;
      if (spec.checkpointEvery > 0 && q % spec.checkpointEvery == 0) {
        {
          const ScopedSpan span{&log, SpanKind::StreamSync};
          stream.flushSync();
        }
        std::string payload;
        {
          const ScopedSpan span{&log, SpanKind::Payload};
          payload = session->checkpointPayload();
        }
        {
          const ScopedSpan span{&log, SpanKind::CkptWrite};
          ckpt::writeCheckpointFile(ckptDir + "/" + ckpt::checkpointFileName(q),
                                    payload);
        }
        counts.checkpointBytes += static_cast<std::int64_t>(payload.size());
        ++counts.checkpointWrites;
        const ScopedSpan span{&log, SpanKind::CkptPrune};
        pruneCheckpoints(ckptDir, spec.keepCheckpoints);
      }
    }

    exp::RunMetrics metrics;
    {
      const ScopedSpan span{&log, SpanKind::SessionFinish};
      metrics = session->finish();
    }
    append();
    {
      const ScopedSpan span{&log, SpanKind::StreamSync};
      stream.flushSync();
    }
    const ScopedSpan span{&log, SpanKind::Publish};
    fs::rename(part, final_);
    util::writeFileAtomic(exp::reportPath(spec.dir),
                          exp::runMetricsToJson(metrics).dump(2) + "\n");
    return false;
  }

  /// Keep the newest `keep` checkpoints, as the supervised child does.
  static void pruneCheckpoints(const std::string& ckptDir, int keep) {
    std::vector<std::string> names;
    for (const fs::directory_entry& entry : fs::directory_iterator{ckptDir}) {
      std::string name = entry.path().filename().string();
      if (name.ends_with(".ckpt")) names.push_back(std::move(name));
    }
    std::sort(names.begin(), names.end(), std::greater<>{});
    for (std::size_t i = static_cast<std::size_t>(std::max(keep, 1));
         i < names.size(); ++i)
      fs::remove(ckptDir + "/" + names[i]);
  }

  std::vector<exp::SuperviseSpec> specs_;
  std::vector<exp::RunSpec> runs_;
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"paper_grid", "tenants_4096",
                                              "supervised_recovery"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& workDir) {
  if (name == "paper_grid") return std::make_unique<PaperGrid>(seed);
  if (name == "tenants_4096") return std::make_unique<Tenants>(seed);
  if (name == "supervised_recovery")
    return std::make_unique<Supervised>(seed, workDir);
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

}  // namespace perfbench
