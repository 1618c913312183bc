#include "probes.hpp"

#include <typeinfo>

#include "core/dike_scheduler.hpp"

namespace perfbench {

std::string_view spanName(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::Pass: return "pass";
    case SpanKind::Setup: return "setup";
    case SpanKind::Run: return "run";
    case SpanKind::SimRun: return "sim_run";
    case SpanKind::Policy: return "policy";
    case SpanKind::Decide: return "decide";
    case SpanKind::Plan: return "plan";
    case SpanKind::Commit: return "commit";
    case SpanKind::Collect: return "collect";
    case SpanKind::SessionStep: return "session_step";
    case SpanKind::SessionFinish: return "session_finish";
    case SpanKind::StreamAppend: return "stream_append";
    case SpanKind::StreamSync: return "stream_sync";
    case SpanKind::Publish: return "publish";
    case SpanKind::Payload: return "ckpt_payload";
    case SpanKind::CkptWrite: return "ckpt_write";
    case SpanKind::CkptScan: return "ckpt_scan";
    case SpanKind::CkptRestore: return "ckpt_restore";
    case SpanKind::CkptTrim: return "ckpt_trim";
    case SpanKind::CkptPrune: return "ckpt_prune";
    case SpanKind::Digest: return "digest";
    case SpanKind::Count: break;
  }
  return "?";
}

std::string_view layerOf(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::SimRun: return "sim";
    case SpanKind::Policy: return "sched";
    case SpanKind::Decide:
    case SpanKind::Plan:
    case SpanKind::Commit: return "core";
    case SpanKind::Setup:
    case SpanKind::Run:
    case SpanKind::Collect:
    case SpanKind::SessionFinish: return "exp";
    case SpanKind::SessionStep: return "session";
    case SpanKind::StreamAppend:
    case SpanKind::StreamSync:
    case SpanKind::Publish: return "telemetry";
    case SpanKind::Payload:
    case SpanKind::CkptWrite:
    case SpanKind::CkptScan:
    case SpanKind::CkptRestore:
    case SpanKind::CkptTrim:
    case SpanKind::CkptPrune: return "ckpt";
    case SpanKind::Pass:
    case SpanKind::Digest: return "bench";
    case SpanKind::Count: break;
  }
  return "?";
}

std::int32_t SpanLog::open(SpanKind kind) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  Span span;
  span.kind = kind;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  span.startNs = nowNs();
  spans_.push_back(span);
  stack_.push_back(index);
  return index;
}

void SpanLog::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].endNs = nowNs();
  stack_.pop_back();
}

TimingScheduler::TimingScheduler(dike::sched::Scheduler& real, SpanLog& log)
    : real_(&real),
      // Exactly DikeScheduler: the clustered subclass bypasses the base
      // pipeline in multi-cluster mode, so only the flat policy may be split.
      flatDike_(typeid(real) == typeid(dike::core::DikeScheduler)
                    ? static_cast<dike::core::DikeScheduler*>(&real)
                    : nullptr),
      log_(&log) {}

void TimingScheduler::onQuantum(dike::sched::SchedulerView& view) {
  const std::int64_t swapsBefore = view.swapsThisQuantum();
  const std::int64_t migrationsBefore = view.migrationsThisQuantum();
  {
    const ScopedSpan span{log_, SpanKind::Decide};
    if (flatDike_ != nullptr) {
      {
        const ScopedSpan plan{log_, SpanKind::Plan};
        flatDike_->planQuantum(view);
      }
      const ScopedSpan commit{log_, SpanKind::Commit};
      flatDike_->commitQuantum(view);
    } else {
      real_->onQuantum(view);
    }
  }
  counts_.swaps += view.swapsThisQuantum() - swapsBefore;
  counts_.migrations += view.migrationsThisQuantum() - migrationsBefore;
}

}  // namespace perfbench
