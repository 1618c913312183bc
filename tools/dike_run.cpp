// dike_run: configuration-driven experiment runner — the reproduction
// analogue of the paper's released running scripts.
//
// Usage:
//   dike_run <config.json> [--csv out.csv] [--json out.json]
//            [--telemetry] [--registry-out reg.json]
//            [--trace-out chrome.json] [--events-csv events.csv]
//            [--quantum-metrics qm.csv] [--trace-capacity N]
//            [--faults faults.json] [--decide-jobs N]
//            [--checkpoint-out run.ckpt [--checkpoint-every N]]
//   dike_run --resume-from run.ckpt [--json out.json] [--decide-jobs N]
//   dike_run --print-default-config
//
// --print-default-config prints the full config schema with its defaults
// (top-level keys are documented in src/exp/config_io.hpp); every machine
// and Dike parameter is overridable, so reviewers can re-run any figure
// with modified physics from one file. An unknown or mistyped key is an
// error naming its path, never silently ignored. The telemetry flags
// override the config's "telemetry" section; run outputs attach to the
// experiment's first cell (first workload x first scheduler, rep 0).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <thread>

#include "exp/config_io.hpp"
#include "exp/replay.hpp"
#include "fault/fault_plan.hpp"
#include "telemetry/live.hpp"
#include "telemetry/promhttp.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stop.hpp"
#include "util/table.hpp"
#include "workload/workloads.hpp"

namespace {

/// Fail fast with the offending path when a requested output location is
/// not writable (opens for append so existing files are not clobbered).
void requireWritable(const std::string& path, const char* flag) {
  std::ofstream probe{path, std::ios::app};
  if (!probe)
    throw std::runtime_error{std::string{"cannot write "} + flag +
                             " output: " + path +
                             " (check the directory exists and is writable)"};
}

/// The full config schema: the config an empty document yields, with its
/// (disabled) fault plan shown, printed by the encoders the parser mirrors.
void printDefaultConfig() {
  dike::exp::ExperimentConfig config = dike::exp::parseExperimentConfig(
      dike::util::JsonValue{dike::util::JsonObject{}});
  config.faults = dike::fault::FaultPlan{};
  std::printf("%s\n",
              dike::exp::experimentConfigToJson(config).dump(2).c_str());
}

/// --decide-jobs N: worker budget for the clustered scheduler's intra-
/// quantum plan phase (ClusterConfig::decideJobs). Returns -1 when the flag
/// is absent (keep the config's value). Purely an execution knob — any
/// value yields byte-identical reports, streams, and checkpoints.
int decideJobsFlag(const dike::util::CliArgs& args) {
  if (!args.has("decide-jobs")) return -1;
  const std::int64_t jobs = args.getInt64("decide-jobs", -1);
  if (jobs < 0 || jobs > 1024)
    throw std::runtime_error{
        "--decide-jobs must be in [0, 1024] (0 = DIKE_JOBS/auto)"};
  return static_cast<int>(jobs);
}

/// Rolling-checkpoint options from --checkpoint-out / --checkpoint-every.
dike::exp::CheckpointOptions checkpointOptions(const dike::util::CliArgs& args) {
  dike::exp::CheckpointOptions opts;
  if (const auto path = args.get("checkpoint-out")) opts.path = *path;
  opts.everyQuanta = args.getInt64("checkpoint-every", 1);
  if (!opts.path.empty() && opts.everyQuanta < 1)
    throw std::runtime_error{"--checkpoint-every must be a positive count"};
  if (opts.path.empty() && args.has("checkpoint-every"))
    throw std::runtime_error{
        "--checkpoint-every requires --checkpoint-out <path>"};
  return opts;
}

/// Emit the final single-run report (stdout, plus --json when given). The
/// JSON encoding is deterministic, so an uninterrupted run and a resumed
/// run of the same spec print byte-identical reports.
void printSingleRunReport(const dike::exp::RunMetrics& metrics,
                          const dike::util::CliArgs& args) {
  const std::string report =
      dike::exp::runMetricsToJson(metrics).dump(2) + "\n";
  std::fputs(report.c_str(), stdout);
  if (const auto jsonPath = args.get("json")) {
    // Crash-atomic: a reader (or a crash mid-write) never observes a
    // truncated report — the file is either the old bytes or the new ones.
    try {
      dike::util::writeFileAtomic(*jsonPath, report);
    } catch (const std::exception& e) {
      throw std::runtime_error{"failed writing --json output: " + *jsonPath +
                               ": " + e.what()};
    }
  }
}

/// The live observability plane behind --live-metrics: live publishing,
/// the /metrics HTTP endpoint, and the fairness SLO monitor. RAII so the
/// server always winds down and the monitor is detached (including on
/// exceptions).
class LivePlane {
 public:
  LivePlane(int port, const dike::telemetry::SloConfig& sloConfig,
            const std::string& portFile) {
    if (sloConfig.enabled) {
      slo_.emplace(sloConfig);
      dike::telemetry::setSlo(&*slo_);
    }
    dike::telemetry::setEnabled(true);
    dike::telemetry::setLiveEnabled(true);
    server_.start(static_cast<std::uint16_t>(port));
    std::printf("live metrics: http://127.0.0.1:%u/metrics (state: /state)\n",
                static_cast<unsigned>(server_.port()));
    if (!portFile.empty()) {
      std::ofstream out{portFile, std::ios::trunc};
      out << server_.port() << '\n';
      if (!out)
        throw std::runtime_error{"failed writing --live-port-file: " +
                                 portFile};
    }
  }

  LivePlane(const LivePlane&) = delete;
  LivePlane& operator=(const LivePlane&) = delete;

  ~LivePlane() {
    if (slo_) {
      std::printf("SLO: %lld breach(es)%s\n",
                  static_cast<long long>(slo_->breaches()),
                  slo_->inBreach() ? " (still in breach at exit)" : "");
    }
    server_.stop();
    dike::telemetry::setLiveEnabled(false);
    dike::telemetry::setSlo(nullptr);
  }

  /// Keep /metrics up for `holdMs` after the run so an attached dike_top
  /// can observe the final state; a stop request cuts the hold short.
  void hold(std::int64_t holdMs) const {
    using namespace std::chrono;
    const auto deadline = steady_clock::now() + milliseconds{holdMs};
    while (steady_clock::now() < deadline && !dike::util::stopRequested())
      std::this_thread::sleep_for(milliseconds{10});
  }

 private:
  std::optional<dike::telemetry::SloMonitor> slo_;
  dike::telemetry::PromHttpServer server_;
};

}  // namespace

int main(int argc, char** argv) {
  const dike::util::CliArgs args{argc, argv};
  // SIGINT/SIGTERM request a clean stop: the simulator unwinds at the next
  // quantum boundary and the telemetry writers finalise (no truncated
  // rows). A second signal force-exits.
  dike::util::installStopSignalHandlers();
  if (args.getBool("print-default-config", false)) {
    printDefaultConfig();
    return 0;
  }
  // --resume-from: pick a checkpointed run back up, run it to completion
  // (optionally writing further rolling checkpoints), and print the final
  // report — byte-identical to the uninterrupted run's report.
  if (const auto ckptPath = args.get("resume-from")) {
    try {
      printSingleRunReport(
          dike::exp::resumeWorkload(*ckptPath, checkpointOptions(args),
                                    decideJobsFlag(args)),
          args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: %s <config.json> [--csv out.csv] [--json out.json]\n"
                 "          [--telemetry] [--registry-out reg.json]\n"
                 "          [--trace-out chrome.json] [--events-csv ev.csv]\n"
                 "          [--quantum-metrics qm.csv] [--trace-capacity N]\n"
                 "          [--checkpoint-out run.ckpt [--checkpoint-every N]]\n"
                 "          [--sweep-state state.json] [--jobs N]\n"
                 "          [--decide-jobs N]\n"
                 "          [--live-metrics PORT [--live-port-file p.txt]\n"
                 "           [--live-hold-ms N]]\n"
                 "       %s --resume-from run.ckpt [--json out.json]\n"
                 "          [--decide-jobs N]\n"
                 "       %s --print-default-config\n",
                 args.programName().c_str(), args.programName().c_str(),
                 args.programName().c_str());
    return 2;
  }

  try {
    const dike::util::JsonValue document =
        dike::util::parseJsonFile(args.positional().front());
    dike::exp::ExperimentConfig config =
        dike::exp::parseExperimentConfig(document);

    // Telemetry flags override the config's "telemetry" section.
    if (args.getBool("telemetry", false)) config.telemetry.enabled = true;
    dike::exp::RunTelemetry& runOutputs = config.telemetry.run;
    if (const auto v = args.get("trace-out")) runOutputs.chromeTracePath = *v;
    if (const auto v = args.get("quantum-metrics"))
      runOutputs.quantumMetricsPath = *v;
    if (const auto v = args.get("events-csv")) runOutputs.eventsCsvPath = *v;
    if (const auto v = args.get("registry-out")) {
      config.telemetry.registryOut = *v;
      config.telemetry.enabled = true;  // a dump without collection is empty
    }
    if (args.has("trace-capacity")) {
      const std::int64_t capacity = args.getInt64("trace-capacity", -1);
      if (capacity < 1)
        throw std::runtime_error{"--trace-capacity must be a positive count"};
      runOutputs.traceCapacity = static_cast<std::size_t>(capacity);
    }
    // --decide-jobs overrides the config's dike.cluster.decideJobs (plan-
    // phase parallelism; no effect on any output bytes).
    if (const int decideJobs = decideJobsFlag(args); decideJobs >= 0)
      config.dike.cluster.decideJobs = decideJobs;
    // --faults overrides (or adds) the config's "faults" section with a
    // standalone fault-plan JSON file.
    if (const auto faultsPath = args.get("faults"))
      config.faults =
          dike::fault::parseFaultPlan(dike::util::parseJsonFile(*faultsPath));

    // --live-metrics PORT: serve Prometheus /metrics (+ /state JSON) from
    // an embedded HTTP endpoint while the experiment runs, fed by the
    // live histograms. Port 0 picks an ephemeral port
    // (written to --live-port-file for scripts/tests). Implies telemetry
    // and per-quantum live publishing for the telemetry-carrying run.
    std::optional<int> livePort;
    if (args.has("live-metrics")) {
      const std::int64_t port = args.getInt64("live-metrics", -1);
      if (port < 0 || port > 65535)
        throw std::runtime_error{
            "--live-metrics port must be in [0, 65535] (0 = ephemeral)"};
      livePort = static_cast<int>(port);
      config.telemetry.enabled = true;
      runOutputs.livePublish = true;
    }
    const std::int64_t liveHoldMs = args.getInt64("live-hold-ms", 0);
    if (liveHoldMs < 0)
      throw std::runtime_error{"--live-hold-ms must be >= 0"};
    if (!livePort && (args.has("live-port-file") || args.has("live-hold-ms")))
      throw std::runtime_error{
          "--live-port-file/--live-hold-ms require --live-metrics PORT"};

    // --checkpoint-out: single-run mode. Runs only the experiment's first
    // cell (first workload x first scheduler, rep 0) with rolling
    // checkpoints every --checkpoint-every quanta, and prints that run's
    // deterministic report instead of the grid. Resume it with
    // --resume-from to reproduce the uninterrupted report byte for byte.
    if (args.has("checkpoint-out")) {
      printSingleRunReport(
          dike::exp::runWorkloadCheckpointed(
              dike::exp::firstCellRunSpec(config), checkpointOptions(args)),
          args);
      return 0;
    }
    if (!runOutputs.quantumMetricsPath.empty())
      requireWritable(runOutputs.quantumMetricsPath, "--quantum-metrics");
    if (!runOutputs.chromeTracePath.empty())
      requireWritable(runOutputs.chromeTracePath, "--trace-out");
    if (!runOutputs.eventsCsvPath.empty())
      requireWritable(runOutputs.eventsCsvPath, "--events-csv");
    if (!config.telemetry.registryOut.empty())
      requireWritable(config.telemetry.registryOut, "--registry-out");

    if (config.telemetry.enabled) dike::telemetry::setEnabled(true);

    std::optional<LivePlane> live;
    if (livePort)
      live.emplace(*livePort, config.slo,
                   args.get("live-port-file").value_or(""));

    std::printf("experiment '%s': %zu workloads x %zu schedulers, scale "
                "%.2f, %d rep(s)\n",
                config.name.c_str(), config.workloadIds.size(),
                config.kinds.size(), config.scale, config.reps);
    if (config.faults && config.faults->enabled())
      std::printf("fault injection armed (seed %llu, window [%lld, %lld))\n",
                  static_cast<unsigned long long>(config.faults->seed),
                  static_cast<long long>(config.faults->window.startTick),
                  static_cast<long long>(config.faults->window.endTick));
    std::printf("\n");

    // --sweep-state: persist completed runs so a killed sweep resumes
    // where it left off. --jobs N fans runs across N workers (0 = all
    // cores); the result table is identical either way.
    const std::string sweepState = args.get("sweep-state").value_or("");
    const int jobs = static_cast<int>(args.getInt64("jobs", 1));
    const std::vector<dike::exp::ExperimentCell> cells =
        dike::exp::runExperiment(config, sweepState, jobs);

    dike::util::TextTable table{{"workload", "scheduler", "fairness",
                                 "speedup-vs-cfs", "swaps", "makespan(s)"}};
    int lastWorkload = -1;
    for (const dike::exp::ExperimentCell& cell : cells) {
      if (lastWorkload != -1 && cell.workloadId != lastWorkload)
        table.separator();
      lastWorkload = cell.workloadId;
      table.newRow()
          .cell(dike::wl::workload(cell.workloadId).name)
          .cell(toString(cell.kind))
          .cell(cell.fairness, 3)
          .cell(cell.speedupVsCfs, 3)
          .cell(cell.swaps, 1)
          .cell(cell.makespanSeconds, 1);
    }
    table.print();

    if (const auto csvPath = args.get("csv")) {
      dike::util::CsvFile csv{*csvPath};
      csv.writer().header({"workload", "scheduler", "fairness",
                           "speedup_vs_cfs", "swaps", "makespan_s"});
      for (const dike::exp::ExperimentCell& cell : cells) {
        csv.writer().row(dike::wl::workload(cell.workloadId).name,
                         std::string{toString(cell.kind)}, cell.fairness,
                         cell.speedupVsCfs, cell.swaps,
                         cell.makespanSeconds);
      }
      std::printf("\nCSV written to %s\n", csvPath->c_str());
    }
    if (const auto jsonPath = args.get("json")) {
      dike::util::writeFileAtomic(*jsonPath,
                                  dike::exp::toJson(config, cells).dump(2) +
                                      "\n");
      std::printf("JSON written to %s\n", jsonPath->c_str());
    }

    if (!runOutputs.quantumMetricsPath.empty())
      std::printf("quantum metrics written to %s\n",
                  runOutputs.quantumMetricsPath.c_str());
    if (!runOutputs.eventsCsvPath.empty())
      std::printf("event trace written to %s\n",
                  runOutputs.eventsCsvPath.c_str());
    if (!runOutputs.chromeTracePath.empty())
      std::printf("Chrome trace written to %s (load in chrome://tracing or "
                  "ui.perfetto.dev; check with dike_trace --validate)\n",
                  runOutputs.chromeTracePath.c_str());
    if (config.telemetry.enabled) {
      const auto& registry = dike::telemetry::Registry::instance();
      if (!config.telemetry.registryOut.empty()) {
        try {
          dike::util::writeFileAtomic(config.telemetry.registryOut,
                                      registry.toJson().dump(2) + "\n");
        } catch (const std::exception& e) {
          throw std::runtime_error{"failed writing registry dump: " +
                                   config.telemetry.registryOut + ": " +
                                   e.what()};
        }
        std::printf("telemetry registry (%zu metrics) written to %s\n",
                    registry.size(), config.telemetry.registryOut.c_str());
      } else {
        std::printf("telemetry registry: %zu metrics collected "
                    "(--registry-out to dump)\n",
                    registry.size());
      }
    }
    if (live && liveHoldMs > 0) live->hold(liveHoldMs);
    if (dike::util::stopRequested()) {
      std::printf("\ninterrupted: stop honoured at a quantum boundary; "
                  "the outputs above are finalised partial results\n");
      return 130;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
