// RunSession, the one run engine, with deterministic checkpoint/restore.
//
// Every simulated run is built and stepped by a RunSession from a RunSpec
// alone: machine -> workload -> placement -> scheduler -> adapter ->
// arrivals -> DVFS script -> fault layer, plus the telemetry the spec asks
// for. Stepping goes through sim::stepQuantum, the engine's one loop body.
//
// A checkpoint captures the complete run state at a quantum boundary — the
// machine, the scheduler, the fault layer, the run cursor (the next
// quantum deadline is not derivable from the clock under adaptive quanta)
// and how far the arrival and DVFS scripts have got. Every accumulator is
// serialized raw, because floating-point accumulation is path dependent,
// so a restored run finishes byte-identical to the uninterrupted one. The
// payload embeds the RunSpec as JSON: restore rebuilds the stack exactly
// as a fresh run would, then overwrites the mutable state, and a throw
// anywhere discards the half-built session.
//
// tools/dike_diff builds on the same machinery: it restores two checkpoints
// and steps them in lockstep, comparing the serialized state after every
// quantum and reporting the first named quantity that diverges.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "ckpt/archive.hpp"
#include "exp/dynamic.hpp"
#include "exp/runner.hpp"
#include "exp/stream_listener.hpp"
#include "fault/fault_policy.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/decision_trace.hpp"
#include "telemetry/quantum_stream.hpp"
#include "util/json.hpp"

namespace dike::telemetry {
class SloMonitor;
}  // namespace dike::telemetry

namespace dike::exp {

/// Encode a RunSpec as JSON (embedded in every checkpoint). 64-bit seeds
/// are written as decimal strings — JSON numbers are doubles and lose
/// integer precision above 2^53. Telemetry paths are not encoded.
[[nodiscard]] util::JsonValue runSpecToJson(const RunSpec& spec);

/// Decode a RunSpec encoded by runSpecToJson. Throws util::ConfigError
/// naming the offending path on malformed input: an unknown, mistyped or
/// out-of-range key (the machine, dike and topology sections are read by the
/// experiment config's decoders, exp/config_io.hpp), arrivals naming an
/// unknown benchmark or a non-positive thread count or scale, and frequency
/// changes outside the machine's sockets or at a non-positive frequency;
/// negative ticks are rejected in both scripts.
[[nodiscard]] RunSpec runSpecFromJson(const util::JsonValue& doc);

/// Encode run metrics as JSON. Deterministic: object keys sort, doubles
/// print with %.17g round-trip precision — two bit-identical runs dump
/// byte-identical reports (the surface the replay tests compare).
[[nodiscard]] util::JsonValue runMetricsToJson(const RunMetrics& metrics);

/// Decode metrics encoded by runMetricsToJson (the resumable sweep's state
/// file stores completed results this way). Round-trips exactly: %.17g
/// doubles parse back bit-identical.
[[nodiscard]] RunMetrics runMetricsFromJson(const util::JsonValue& doc);

class LiveQuantumPublisher;

/// Rolling-checkpoint settings for finish()/runWorkloadCheckpointed.
struct CheckpointOptions {
  std::string path;             ///< checkpoint file (atomically replaced)
  std::int64_t everyQuanta = 0; ///< write after every N completed quanta

  [[nodiscard]] bool enabled() const noexcept {
    return !path.empty() && everyQuanta > 0;
  }
};

/// One run, steppable one quantum at a time. Not movable — the policy
/// decorators hold pointers into sibling members — so restore() hands back
/// a unique_ptr.
class RunSession {
 public:
  /// Build the stack `spec` describes, with its telemetry attachments.
  /// Throws before any simulation when a telemetry output is not writable.
  explicit RunSession(RunSpec spec);
  ~RunSession();
  RunSession(const RunSession&) = delete;
  RunSession& operator=(const RunSession&) = delete;

  /// Attach a per-quantum metrics stream: every subsequent stepQuantum()
  /// emits one record into `writer` (which must outlive the session). The
  /// slowdown cursor — record counter, last tick, slowdown accumulators —
  /// becomes part of checkpointPayload(), so a run restored with a writer
  /// appends records byte-identical to the uninterrupted stream's. Throws
  /// std::logic_error once the run has stepped a quantum (a restored run
  /// counts its checkpointed quanta; hand the writer to restore() instead)
  /// or when a stream is already attached.
  void attachQuantumStream(telemetry::QuantumStreamWriter& writer);

  /// Chain one more per-quantum listener (the soak's invariant checker).
  /// It must outlive the session and is not part of any checkpoint. The
  /// slowdown cursor runs ahead of it.
  void addQuantumListener(sched::QuantumListener& listener);

  /// The run's slowdown cursor. It advances once per quantum while some
  /// listener is attached, before any listener runs.
  [[nodiscard]] const SlowdownCursor& slowdown() const noexcept {
    return slowdown_;
  }

  /// Advance the run through exactly one more quantum boundary. Returns
  /// false once the run is over (finished with no arrivals pending, or at
  /// the tick limit). Never honours util::stopRequested(): a supervised
  /// child must not publish a partial run as final.
  bool stepQuantum();

  /// Run to completion from the current cursor, or until a stop request,
  /// writing a rolling checkpoint every opts.everyQuanta completed quanta
  /// when enabled; collect the report and commit the telemetry files.
  [[nodiscard]] RunMetrics finish(const CheckpointOptions& opts = {});

  /// Serialize the complete current state into a checkpoint payload.
  [[nodiscard]] std::string checkpointPayload() const;

  /// checkpointPayload() wrapped in the versioned, checksummed container,
  /// written atomically (tmp + rename).
  void writeCheckpoint(const std::string& path) const;

  /// Rebuild a session from a checkpoint file: reconstructs the stack from
  /// the embedded RunSpec, then overwrites the mutable state. Throws
  /// ckpt::CheckpointError on any corruption, version, or schema mismatch —
  /// never returns a partially-restored session. When the checkpoint was
  /// taken from a stream-attached run, its slowdown cursor is restored, and
  /// a given `stream` resumes from it (byte-identical resumed records);
  /// without a saved cursor the stream numbers its records from 0. With
  /// `stream == nullptr` the payload saved later drops the cursor, so
  /// stream-less consumers (dike_diff) compare supervised checkpoints too.
  /// `decideJobs >= 0` replaces the restored spec's clustered plan-phase
  /// worker budget before the scheduler is built (see
  /// ClusterConfig::decideJobs; the knob is not part of any checkpoint, so
  /// a restored run may pick a different value freely).
  [[nodiscard]] static std::unique_ptr<RunSession> restore(
      const std::string& path,
      telemetry::QuantumStreamWriter* stream = nullptr, int decideJobs = -1);
  /// restore() from a payload already read and validated (a
  /// ckpt::CheckpointDirScan's), with the same arguments and guarantees.
  [[nodiscard]] static std::unique_ptr<RunSession> restoreFromPayload(
      std::string_view payload,
      telemetry::QuantumStreamWriter* stream = nullptr, int decideJobs = -1);

  /// Completed quanta so far.
  [[nodiscard]] std::int64_t quantumIndex() const noexcept {
    return quantumIndex_;
  }
  [[nodiscard]] const sim::Machine& machine() const noexcept {
    return *machine_;
  }
  [[nodiscard]] const RunSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] bool done() const;
  /// Arrivals (RunSpec::arrivals plus fault-plan churn) injected so far and
  /// still pending.
  [[nodiscard]] int arrivalsInjected() const noexcept;
  [[nodiscard]] int arrivalsPending() const noexcept;

 private:
  void attachTelemetry();
  /// The body of checkpointPayload(): run once against a counting writer
  /// to size the payload, then once against a writer of exactly that size.
  /// `config` is the embedded run spec's JSON text.
  void savePayload(ckpt::BinWriter& w, std::string_view config) const;

  RunSpec spec_;
  wl::WorkloadSpec workload_;
  // Telemetry sinks first: they outlive everything that points into them.
  std::optional<telemetry::QuantumStreamFile> metricsFile_;
  sim::TraceRecorder recorder_;
  telemetry::DecisionTrace decisions_;
  std::optional<sim::Machine> machine_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::optional<sched::SchedulerAdapter> adapter_;
  std::optional<fault::FaultInjector> injector_;
  std::optional<ArrivalInjector> arrivals_;
  std::optional<DvfsScript> dvfs_;
  std::optional<fault::FaultInjectionPolicy> faultPolicy_;
  sim::QuantumPolicy* policy_ = nullptr;
  sim::RunLimits limits_{};
  std::int64_t quantumIndex_ = 0;
  util::Tick nextQuantumAt_ = -1;  ///< < 0 until the first quantum
  sched::QuantumListenerChain listeners_;
  SlowdownCursor slowdown_;
  std::unique_ptr<QuantumMetricsListener> streamListener_;
  std::unique_ptr<LiveQuantumPublisher> livePublisher_;
  /// The live SLO monitor whose alerts this run's decision trace receives
  /// (detached, after a final drain, when the session ends).
  telemetry::SloMonitor* liveSlo_ = nullptr;
};

/// A run with rolling checkpoints.
[[nodiscard]] RunMetrics runWorkloadCheckpointed(const RunSpec& spec,
                                                 const CheckpointOptions& opts);

/// Resume a checkpointed run to completion and collect the final report —
/// byte-identical to the report of the uninterrupted run. `decideJobs >= 0`
/// overrides the clustered scheduler's plan-phase worker budget for the
/// resumed portion (-1 keeps the spec's value); the result is byte-
/// identical either way.
[[nodiscard]] RunMetrics resumeWorkload(const std::string& checkpointPath,
                                        const CheckpointOptions& opts = {},
                                        int decideJobs = -1);

/// Names the first quantity at which two checkpoint payloads differ.
using ckpt::firstDivergence;

}  // namespace dike::exp
