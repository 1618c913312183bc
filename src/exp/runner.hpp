// Experiment runner: one (workload, scheduler, configuration) simulation,
// returning the metrics every figure and table is built from.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/dike_scheduler.hpp"
#include "core/prediction_tracker.hpp"
#include "exp/metrics.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "sim/machine.hpp"
#include "workload/workloads.hpp"

namespace dike::exp {

/// The scheduling policies of the evaluation (Section IV-A), plus two
/// references: Random (blind mixing control) and StaticOracle (ground-truth
/// ideal placement under a no-op scheduler — an unrealisable upper bound
/// for placement-only policies).
enum class SchedulerKind {
  Cfs, Dio, Dike, DikeAF, DikeAP, Random, StaticOracle,
  /// Suspension-based progress equalisation — the enforcement Section
  /// III-E argues against; kept as a measurable reference.
  Suspension,
};

[[nodiscard]] std::string_view toString(SchedulerKind kind) noexcept;
/// The paper's five policies (Random/StaticOracle are opt-in references).
[[nodiscard]] const std::vector<SchedulerKind>& allSchedulerKinds();

/// Observability outputs for a single run. All paths empty (the default)
/// keeps the run instrumentation-free: no TraceRecorder, no listener, no
/// decision trace — the telemetry-off fast path.
struct RunTelemetry {
  /// Per-quantum metrics stream; .jsonl/.ndjson select NDJSON, else CSV.
  std::string quantumMetricsPath;
  /// Chrome trace_event JSON (chrome://tracing / Perfetto).
  std::string chromeTracePath;
  /// Raw event CSV (writeTraceCsv format; dike_trace converts it later).
  std::string eventsCsvPath;
  /// TraceRecorder capacity; beyond it events are dropped (and reported).
  std::size_t traceCapacity = std::size_t{1} << 20;
  /// Publish per-quantum events (slowdown, fairness spread, placement)
  /// into the live ring -> aggregator -> /metrics plane. Requires
  /// telemetry::setLiveEnabled(true) process-wide (dike_run --live-metrics
  /// does both); off by default so batch sweeps pay nothing.
  bool livePublish = false;

  [[nodiscard]] bool any() const noexcept {
    return !quantumMetricsPath.empty() || !chromeTracePath.empty() ||
           !eventsCsvPath.empty() || livePublish;
  }
  /// True when the run must record the structured event stream.
  [[nodiscard]] bool wantsEvents() const noexcept {
    return !chromeTracePath.empty() || !eventsCsvPath.empty();
  }
};

/// One scheduled arrival of an open-system run: an application entering
/// the machine mid-run ("new applications enter the system", Section II).
struct Arrival {
  util::Tick atTick = 0;
  std::string benchmark;  ///< a workload/benchmarks.hpp model name
  int threads = 8;
  double scale = 1.0;
};

/// One scripted frequency change (whole socket, like acpi-cpufreq
/// policies): DVFS moving core capability under the scheduler (Section
/// III-A).
struct FrequencyChange {
  util::Tick atTick = 0;
  int socket = 0;
  double freqGhz = 1.0;
};

/// One experiment's inputs.
struct RunSpec {
  /// Workload id (1..16) from Table II. Ignored when customWorkload is set.
  int workloadId = 1;
  /// A workload outside the table (e.g. from wl::randomWorkload).
  std::optional<wl::WorkloadSpec> customWorkload;
  SchedulerKind kind = SchedulerKind::Cfs;
  /// Dike's <swapSize, quantaLength> (ignored by CFS; DIO uses the quantum).
  core::DikeParams params = core::defaultParams();
  /// Full Dike configuration override (ablations). When set, `params` and
  /// the goal implied by `kind` are written into a copy of this config.
  std::optional<core::DikeConfig> dikeConfig;
  /// Instruction-budget multiplier (sweeps use < 1 to run faster).
  double scale = 1.0;
  /// Seed for initial placement and measurement noise.
  std::uint64_t seed = 42;
  /// false = the homogeneous machine (both sockets fast), Figure 1 only.
  bool heterogeneous = true;
  /// Explicit machine topology (large-machine configs). Empty = the paper
  /// testbed selected by `heterogeneous`; non-empty builds the machine from
  /// exactly these sockets and `heterogeneous` is ignored.
  std::vector<sim::SocketSpec> topology;
  /// Engine overrides (memory capacities, migration costs...).
  sim::MachineConfig machine{};
  /// Threads per application (the paper uses 8).
  int threadsPerApp = 8;
  /// Observability outputs (off when all paths are empty).
  RunTelemetry telemetry{};
  /// Fault-injection plan. Unset (or set but with nothing enabled) leaves
  /// the run byte-identical to one without the fault layer attached.
  std::optional<fault::FaultPlan> faults;
  /// Applications arriving mid-run (see exp/dynamic.hpp). While any is
  /// pending the run stays open, even across an idle machine. Non-empty
  /// arrivals append "+dynamic" to the reported workload name.
  std::vector<Arrival> arrivals;
  /// Socket frequency changes applied at quantum boundaries (see
  /// exp/dynamic.hpp). Non-empty scripts append "+dvfs" to the workload name.
  std::vector<FrequencyChange> dvfs;
};

/// One experiment's outputs.
struct RunMetrics {
  std::string scheduler;
  std::string workload;
  util::Tick makespan = 0;
  bool timedOut = false;
  /// True when the run was interrupted by a stop request (SIGINT/SIGTERM)
  /// and unwound cleanly at a quantum boundary.
  bool stopped = false;
  double fairness = 0.0;  ///< Eqn 4
  std::int64_t swaps = 0;
  std::int64_t migrations = 0;
  double energyJoules = 0.0;  ///< extension metric (MachineConfig power model)
  /// Events the TraceRecorder had to drop (0 unless the run outgrew
  /// RunTelemetry::traceCapacity; also surfaced as a warning).
  std::size_t traceDropped = 0;
  std::vector<ProcessResult> processes;

  /// Decision-pipeline totals (Dike variants only).
  core::DecisionTotals decisions{};

  /// What the fault layer actually injected (zero unless RunSpec::faults).
  fault::FaultTally faults{};
  std::int64_t coreFreqDips = 0;

  // Prediction-error statistics (Dike variants only).
  bool hasPredictions = false;
  double predErrMean = 0.0;
  double predErrMin = 0.0;
  double predErrMax = 0.0;
  std::vector<core::PredictionErrorPoint> predTrace;
};

/// Instantiate the scheduler a RunSpec names. Dike kinds with
/// `dikeConfig->cluster.clusters >= 2` build a ClusteredDikeScheduler;
/// fewer clusters build the plain DikeScheduler.
[[nodiscard]] std::unique_ptr<sched::Scheduler> makeScheduler(
    const RunSpec& spec);

/// The machine topology a RunSpec describes: the explicit socket list when
/// `spec.topology` is non-empty, else the paper testbed (heterogeneous or
/// homogeneous). RunSession builds every machine from it, so a checkpoint
/// always rebuilds the machine it was taken on.
[[nodiscard]] sim::MachineTopology topologyForSpec(const RunSpec& spec);

/// Assemble the RunMetrics for a finished machine/scheduler pair (used by
/// RunSession::finish and runStandalone).
[[nodiscard]] RunMetrics collectRunMetrics(sim::Machine& machine,
                                           const sim::RunOutcome& outcome,
                                           const sched::Scheduler& scheduler);

/// Run one workload under one scheduler: `RunSession{spec}.finish()`.
[[nodiscard]] RunMetrics runWorkload(const RunSpec& spec);

/// Run a single benchmark standalone (8 threads, spread placement, no
/// contention from other applications) — the Figure 1 reference point.
[[nodiscard]] RunMetrics runStandalone(const std::string& benchmark,
                                       double scale = 1.0,
                                       std::uint64_t seed = 42,
                                       bool heterogeneous = true,
                                       int threads = 8);

}  // namespace dike::exp
