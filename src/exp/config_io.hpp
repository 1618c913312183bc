// JSON experiment configuration: the reproducible-run format behind the
// dike_run tool (the analogue of the paper's released running scripts).
//
// Top-level keys (all optional):
//   {
//     "experiment":    "name",
//     "workloads":     [1, 2, 16] | "all" | "B" | "UC" | "UM",
//     "schedulers":    ["cfs", "dio", "dike", "dike-af", "dike-ap",
//                       "random", "static-oracle"],
//     "scale": 0.5, "seed": 42, "reps": 1, "heterogeneous": true,
//     "threadsPerApp": 8,
//     "topology":  [ { "sockets": 8, "physicalCores": 32, "smtWays": 1,
//                      "freqGhz": 2.33, "type": "fast" }, ... ],
//     "machine":   { sim::MachineConfig },
//     "dike":      { core::DikeConfig, with "observer", "resilience" and
//                    "cluster" sections },
//     "telemetry": { ExperimentTelemetry },
//     "slo":       { telemetry::SloConfig },
//     "faults":    { fault::FaultPlan }
//   }
// `dike_run --print-default-config` prints every key with its default: it
// is the encoders' output for a default config, so it is the full schema.
// Every key is read through util::JsonReader: a key a section does not
// read, a mistyped value, a fraction where an integer is expected or a
// value out of range throws util::ConfigError naming its path.
//
// Telemetry run outputs (quantumMetrics/traceOut/eventsCsv) attach to the
// experiment's *first* cell — first listed workload and scheduler, rep 0 —
// so a one-cell config records exactly the run you asked for. "enabled"
// turns on the process-wide counter/timer registry for the whole grid;
// "registryOut" dumps it after the run (dike_run).
#pragma once

#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "telemetry/slo.hpp"
#include "util/json.hpp"

namespace dike::exp {

/// Observability settings for an experiment (the "telemetry" section).
struct ExperimentTelemetry {
  /// Turn on the process-wide counter/timer registry for the whole grid.
  bool enabled = false;
  std::string registryOut;  ///< registry JSON dump path (dike_run)
  /// The outputs of the one run that carries telemetry attachments (keys
  /// "quantumMetrics", "traceOut", "eventsCsv", "traceCapacity" and
  /// "livePublish"; dike_run --live-metrics implies livePublish).
  RunTelemetry run{};
};

struct ExperimentConfig {
  std::string name = "experiment";
  std::vector<int> workloadIds;      // default: all 16
  std::vector<SchedulerKind> kinds;  // default: the paper's five
  double scale = 0.5;
  std::uint64_t seed = 42;
  int reps = 1;
  bool heterogeneous = true;
  /// Threads per application (the paper's 8; large-machine sweeps raise it
  /// so thousands of threads actually contend).
  int threadsPerApp = 8;
  /// Explicit socket list (the "topology" section, each entry optionally
  /// repeated via "sockets"); empty = the paper testbed.
  std::vector<sim::SocketSpec> topology;
  sim::MachineConfig machine{};
  core::DikeConfig dike{};
  ExperimentTelemetry telemetry{};
  /// Fairness SLO targets (the "slo" section); evaluated online from the
  /// live fairness-spread values during --live-metrics runs and by the
  /// soak harness. Disabled by default.
  telemetry::SloConfig slo{};
  /// Fault plan applied to every run of the grid (including the internal
  /// CFS baseline, so comparisons stay within-condition). Unset = no
  /// injection, byte-identical to configs without the section.
  std::optional<fault::FaultPlan> faults;
};

/// Decode a configuration document. Throws util::ConfigError naming the
/// path of an unknown, mistyped or out-of-range key, and std::runtime_error
/// on unknown scheduler names or workload ids.
[[nodiscard]] ExperimentConfig parseExperimentConfig(
    const util::JsonValue& document);

/// Encode a configuration document parseExperimentConfig reads back to an
/// equal config (dike_run --print-default-config prints a default one).
[[nodiscard]] util::JsonValue experimentConfigToJson(
    const ExperimentConfig& config);

// One encoder/decoder pair per config struct, shared by the experiment
// config and the run spec a checkpoint embeds (exp/replay.hpp). Keys only
// one of the two documents has are added by that document's codec.

/// Which document a DikeConfig is encoded into. The run spec carries only
/// what decides the run's result: its "cluster" section appears only when
/// clustering is on (>= 2 clusters; one cluster builds the flat scheduler,
/// whose checkpoints must byte-match), and never with "decideJobs", an
/// execution knob a restore may change freely.
enum class ConfigDocument { Experiment, RunSpec };

[[nodiscard]] util::JsonObject toJson(const sim::MachineConfig& machine);
/// Read `section`'s MachineConfig keys into `machine` (the caller finishes
/// the section).
void readMachineConfig(util::JsonReader& section,
                       sim::MachineConfig& machine);

[[nodiscard]] util::JsonObject toJson(const core::DikeConfig& dike,
                                      ConfigDocument document);
/// Read `section`'s DikeConfig keys, with its observer, resilience and
/// cluster sections, into `dike` (the caller finishes the section).
void readDikeConfig(util::JsonReader& section, core::DikeConfig& dike);

/// One entry per socket.
[[nodiscard]] util::JsonArray topologyToJson(
    const std::vector<sim::SocketSpec>& sockets);
/// Read `parent`'s optional "topology" list (empty when absent). An entry's
/// "sockets" repeats it that many times.
[[nodiscard]] std::vector<sim::SocketSpec> readTopology(
    util::JsonReader& parent);

/// The RunSpec of one grid cell: `workloadId` under `kind`, repetition
/// `rep` (seeded config.seed + 1000 * rep), without telemetry. This is the
/// one ExperimentConfig -> RunSpec mapping: runExperiment and the
/// single-run tools (dike_run --checkpoint-out, dike_supervise) all build
/// their runs through it.
[[nodiscard]] RunSpec cellRunSpec(const ExperimentConfig& config,
                                  int workloadId, SchedulerKind kind,
                                  int rep = 0);

/// The experiment's first cell (first workload x first scheduler, rep 0):
/// the run single-run tools execute. Throws std::runtime_error when the
/// config selects no workloads or schedulers.
[[nodiscard]] RunSpec firstCellRunSpec(const ExperimentConfig& config);

/// Parse a scheduler name ("dike-af"...). Throws on unknown names.
[[nodiscard]] SchedulerKind schedulerKindFromName(std::string_view name);

/// One (workload, scheduler) cell of an experiment, averaged over reps.
struct ExperimentCell {
  int workloadId = 0;
  SchedulerKind kind = SchedulerKind::Cfs;
  double fairness = 0.0;
  double speedupVsCfs = 0.0;  ///< 0 when CFS was not part of the experiment
  double swaps = 0.0;
  double makespanSeconds = 0.0;
};

/// Run the full grid. The CFS baseline is always run internally (per
/// workload and rep) so speedups are well-defined even when "cfs" is not
/// listed.
[[nodiscard]] std::vector<ExperimentCell> runExperiment(
    const ExperimentConfig& config);

/// Resumable/parallel variant. With a non-empty sweepStateFile, every
/// completed run's metrics are persisted there (see runWorkloadsParallel
/// in exp/parallel.hpp), so a killed sweep rerun with the same config
/// skips finished runs; the file is deleted on completion, and a state
/// file written for a different config is rejected. jobs <= 0 picks
/// util::defaultJobs(); 1 runs sequentially. Results are identical to
/// runExperiment(config) regardless of jobs or interruption.
[[nodiscard]] std::vector<ExperimentCell> runExperiment(
    const ExperimentConfig& config, const std::string& sweepStateFile,
    int jobs);

/// Serialise results for the "json" output option.
[[nodiscard]] util::JsonValue toJson(const ExperimentConfig& config,
                                     const std::vector<ExperimentCell>& cells);

}  // namespace dike::exp
