// Tracing probes for the benchmark's traced passes.
//
// Every span is recorded from the benchmark's own code, around a call into a
// layer's public API: a timing QuantumPolicy around sched::SchedulerAdapter,
// a timing sched::Scheduler around the real scheduler, and plain scoped
// spans around the calls the workloads make themselves. Spans live in
// memory (one SpanLog per run, so pool workers never share one) and are
// written out when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sched/scheduler.hpp"
#include "sim/machine.hpp"

namespace dike::core {
class DikeScheduler;
}  // namespace dike::core

namespace perfbench {

[[nodiscard]] inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What a span covers. Each kind belongs to one layer (see layerOf).
enum class SpanKind : std::uint8_t {
  Pass,          ///< one whole traced pass (root)
  Setup,         ///< stack construction: RunSession / machine + scheduler
  Run,           ///< one operation (grid run, tenant run, supervised run)
  SimRun,        ///< sim::runMachine / the stepQuantum loop body
  Policy,        ///< SchedulerAdapter::onQuantum (sampling + view)
  Decide,        ///< Scheduler::onQuantum
  Plan,          ///< DikeScheduler::planQuantum (flat Dike only)
  Commit,        ///< DikeScheduler::commitQuantum (flat Dike only)
  Collect,       ///< exp::collectRunMetrics + report encoding
  SessionStep,   ///< RunSession::stepQuantum (sim+sched+core, opaque)
  SessionFinish, ///< RunSession::finish
  StreamAppend,  ///< util::AppendFile::append
  StreamSync,    ///< util::AppendFile::flushSync
  Publish,       ///< stream rename + report writeFileAtomic
  Payload,       ///< RunSession::checkpointPayload (or its replica)
  CkptWrite,     ///< ckpt::writeCheckpointFile
  CkptScan,      ///< ckpt::findLatestValidCheckpoint
  CkptRestore,   ///< RunSession::restore
  CkptTrim,      ///< util::trimFileToLines
  CkptPrune,     ///< rolling-checkpoint pruning (directory scan + unlink)
  Digest,        ///< the benchmark's own output hashing
  Count,
};

[[nodiscard]] std::string_view spanName(SpanKind kind) noexcept;
/// The repository layer a span's self time is charged to.
[[nodiscard]] std::string_view layerOf(SpanKind kind) noexcept;

struct Span {
  SpanKind kind = SpanKind::Pass;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int32_t parent = -1;  ///< index into the same log; -1 = root
  std::int32_t run = -1;     ///< operation id within the pass
};

/// Append-only span recorder for one thread of control. Spans nest: a span
/// opened while another is open becomes its child.
class SpanLog {
 public:
  explicit SpanLog(std::int32_t run = -1) : run_(run) {}

  [[nodiscard]] std::int32_t open(SpanKind kind);
  void close(std::int32_t index);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int32_t run_;
};

/// RAII span on a SpanLog; a null log records nothing (untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKind kind)
      : log_(log), index_(log != nullptr ? log->open(kind) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

/// Actuations counted at the scheduler boundary.
struct DecideCounts {
  std::int64_t swaps = 0;
  std::int64_t migrations = 0;
};

/// Timing sched::Scheduler around the real one. Flat DikeScheduler instances
/// are driven through their public planQuantum/commitQuantum pair (which
/// onQuantum is documented to equal), so plan and commit get their own
/// spans. Checkpoints and metrics must still be taken from real(): the
/// policy-name check and every dynamic_cast key on the real object.
class TimingScheduler final : public dike::sched::Scheduler {
 public:
  TimingScheduler(dike::sched::Scheduler& real, SpanLog& log);

  [[nodiscard]] std::string_view name() const override {
    return real_->name();
  }
  [[nodiscard]] dike::util::Tick quantumTicks() const override {
    return real_->quantumTicks();
  }
  void onQuantum(dike::sched::SchedulerView& view) override;

  [[nodiscard]] dike::sched::Scheduler& real() const noexcept {
    return *real_;
  }
  [[nodiscard]] const DecideCounts& counts() const noexcept { return counts_; }

 private:
  dike::sched::Scheduler* real_;
  dike::core::DikeScheduler* flatDike_;  ///< non-null: split plan/commit
  SpanLog* log_;
  DecideCounts counts_;
};

/// Timing sim::QuantumPolicy around a SchedulerAdapter.
class TimingPolicy final : public dike::sim::QuantumPolicy {
 public:
  TimingPolicy(dike::sim::QuantumPolicy& inner, SpanLog& log)
      : inner_(&inner), log_(&log) {}

  [[nodiscard]] dike::util::Tick quantumTicks() const override {
    return inner_->quantumTicks();
  }
  void onQuantum(dike::sim::Machine& machine) override {
    const ScopedSpan span{log_, SpanKind::Policy};
    inner_->onQuantum(machine);
  }

 private:
  dike::sim::QuantumPolicy* inner_;
  SpanLog* log_;
};

}  // namespace perfbench
