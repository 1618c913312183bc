#include "sim/machine.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "ckpt/archive.hpp"
#include "ckpt/fields.hpp"
#include "telemetry/live.hpp"
#include "telemetry/registry.hpp"
#include "util/stop.hpp"
#include "util/task_pool.hpp"

namespace dike::sim {

namespace {
constexpr double kEps = 1e-9;

/// A checkpoint section name such as "thread 12", formatted into a stack
/// buffer: saving a 4096-thread machine costs no heap allocation per
/// section.
class NumberedSection {
 public:
  NumberedSection(std::string_view prefix, int id) noexcept {
    char* p = std::copy(prefix.begin(), prefix.end(), buf_);
    len_ = static_cast<std::size_t>(
        std::to_chars(p, buf_ + sizeof buf_, id).ptr - buf_);
  }
  operator std::string_view() const noexcept { return {buf_, len_}; }

 private:
  char buf_[24];  // the longest prefix, "process ", plus 11 digits
  std::size_t len_ = 0;
};

/// Largest number of ticks a quantity growing by `rate` per tick can safely
/// advance while provably staying below `room`, under per-tick floating-point
/// accumulation. Conservative: the margin absorbs worst-case rounding drift
/// of the repeated additions (relative 1e-7 covers horizons up to ~4e8
/// ticks, far beyond any run limit); undershooting only means a few extra
/// per-tick steps near the event, never a missed event.
[[nodiscard]] util::Tick ticksBelow(double room, double rate) {
  if (!(room > rate)) return 0;
  const double est = room / rate;
  if (est >= 1e8) return static_cast<util::Tick>(1e8);
  const auto margin = static_cast<util::Tick>(3.0 + est * 1e-7);
  const auto whole = static_cast<util::Tick>(est);
  return whole > margin ? whole - margin : 0;
}

/// Restored placement must be one the engine could have produced: the
/// per-tick loops index per-core arrays by thread coreId, and the leap
/// replay treats each active thread's core counter as its own accumulator,
/// so a checksum-valid but inconsistent payload must fail here rather than
/// index out of bounds or alias two lanes. Thread coreIds are range-checked
/// as they are read.
void checkPlacement(const std::vector<SimThread>& threads,
                    const std::vector<int>& coreToThread,
                    const std::vector<int>& liveThreads) {
  const auto fail = [](const std::string& what) {
    throw ckpt::CheckpointError{"checkpointed placement is inconsistent: " +
                                what};
  };
  for (std::size_t c = 0; c < coreToThread.size(); ++c) {
    const int id = coreToThread[c];
    if (id < -1 || id >= util::isize(threads))
      fail("core " + std::to_string(c) + " holds thread " +
           std::to_string(id) + " of " + std::to_string(threads.size()));
    if (id < 0) continue;
    const SimThread& t = threads[static_cast<std::size_t>(id)];
    if (t.finished || t.coreId != static_cast<int>(c))
      fail("core " + std::to_string(c) + " holds thread " +
           std::to_string(id) + ", which is " +
           (t.finished ? std::string{"finished"}
                       : "on core " + std::to_string(t.coreId)));
  }
  // A finished thread keeps its last coreId after its core is freed.
  for (const SimThread& t : threads)
    if (!t.finished && t.coreId >= 0 &&
        coreToThread[static_cast<std::size_t>(t.coreId)] != t.id)
      fail("thread " + std::to_string(t.id) + " is on core " +
           std::to_string(t.coreId) + ", which holds thread " +
           std::to_string(coreToThread[static_cast<std::size_t>(t.coreId)]));
  // The live list is exactly the unfinished threads, ascending: the
  // per-tick loops sum in its order.
  std::size_t next = 0;
  for (const SimThread& t : threads) {
    if (t.finished) continue;
    if (next == liveThreads.size() || liveThreads[next] != t.id)
      fail("the live threads do not list unfinished thread " +
           std::to_string(t.id) + " in ascending order");
    ++next;
  }
  if (next != liveThreads.size())
    fail("the live threads list " + std::to_string(liveThreads.size()) +
         " ids for " + std::to_string(next) + " unfinished threads");
}

/// Bitwise equality of two demand vectors (the arbitration memo key).
/// Bit-level comparison, not operator==: distinguishing -0.0 from 0.0 (and
/// never equating NaNs) is what makes "equal demands" imply "bit-identical
/// arbitration output".
[[nodiscard]] bool sameDemands(const std::vector<MemoryDemand>& a,
                               const std::vector<MemoryDemand>& b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].socket != b[i].socket ||
        std::bit_cast<std::uint64_t>(a[i].accesses) !=
            std::bit_cast<std::uint64_t>(b[i].accesses))
      return false;
  }
  return true;
}
}  // namespace

Machine::Machine(MachineTopology topology, MachineConfig config)
    : topology_(std::move(topology)),
      config_(config),
      rng_(config.seed),
      coreToThread_(static_cast<std::size_t>(topology_.coreCount()), -1),
      coreQuantumAccesses_(static_cast<std::size_t>(topology_.coreCount()),
                           0.0) {
  physFreqGhz_.resize(static_cast<std::size_t>(topology_.physicalCoreCount()));
  for (const CoreDesc& core : topology_.cores())
    physFreqGhz_[static_cast<std::size_t>(core.physicalCore)] = core.freqGhz;
  if (config_.smtSharedFactor <= 0.0 || config_.smtSharedFactor > 1.0)
    throw std::invalid_argument{"smtSharedFactor must be in (0, 1]"};
  if (config_.migrationStallTicks < 0)
    throw std::invalid_argument{"migrationStallTicks must be >= 0"};
}

int Machine::addProcess(std::string name, PhaseProgram program,
                        int threadCount, bool memoryIntensive) {
  if (threadCount <= 0) throw std::invalid_argument{"threadCount must be > 0"};
  program.validate();
  ensurePhaseCache();

  SimProcess proc;
  proc.id = static_cast<int>(processes_.size());
  proc.name = std::move(name);
  proc.program = std::move(program);
  proc.memoryIntensive = memoryIntensive;
  for (int i = 0; i < threadCount; ++i) {
    SimThread t;
    t.id = static_cast<int>(threads_.size());
    t.processId = proc.id;
    t.indexInProcess = i;
    t.socketConflict.reserve(static_cast<std::size_t>(topology_.socketCount()));
    for (int s = 0; s < topology_.socketCount(); ++s) {
      t.socketConflict.push_back(
          rng_.uniform(1.0 - config_.conflictSpread,
                       1.0 + config_.conflictSpread));
    }
    proc.threadIds.push_back(t.id);
    liveThreads_.push_back(t.id);  // new ids are largest: order stays ascending
    threads_.push_back(t);
    appendHotThread(threads_.back());
  }
  processes_.push_back(std::move(proc));
  for (int id : processes_.back().threadIds) refreshPhaseCache(id);
  llcDirty_ = true;
  return processes_.back().id;
}

void Machine::appendHotThread(const SimThread& t) {
  hot_.executed.push_back(t.executed);
  hot_.phaseExecuted.push_back(t.phaseExecuted);
  hot_.quantumInstructions.push_back(t.quantumInstructions);
  hot_.quantumAccesses.push_back(t.quantumAccesses);
  hot_.totalAccesses.push_back(t.totalAccesses);
  hot_.prevUtilization.push_back(t.prevUtilization);
  hot_.runnableTicks.push_back(t.runnableTicks);
  hot_.stallTicks.push_back(t.stallTicks);
  hot_.barrierTicks.push_back(t.barrierTicks);
  hot_.suspendedTicks.push_back(t.suspendedTicks);
  hot_.fastCoreTicks.push_back(t.fastCoreTicks);
  hot_.slowCoreTicks.push_back(t.slowCoreTicks);
  hot_.coreId.push_back(t.coreId);
  hot_.stallUntil.push_back(t.stallUntilTick);
  hot_.coldUntil.push_back(t.coldUntilTick);
  hot_.suspended.push_back(0);
  hot_.waiting.push_back(0);
  hot_.finished.push_back(0);
  hot_.barriersPassed.push_back(t.barriersPassed);
  hot_.socket.push_back(-1);
  hot_.physicalCore.push_back(-1);
  hot_.fastCore.push_back(0);
  hot_.conflict.push_back(1.0);
  hot_.phase.push_back(nullptr);
  hot_.barrierEvery.push_back(0.0);
  hot_.totalInstructions.push_back(0.0);
  syncHotThread(t.id);
  // The phase cache is refreshed by the caller once the owning process is
  // in processes_ (currentPhase needs it there).
}

void Machine::syncHotThread(int threadId) {
  const auto i = static_cast<std::size_t>(threadId);
  const SimThread& t = threads_[i];
  hot_.coreId[i] = t.coreId;
  hot_.stallUntil[i] = t.stallUntilTick;
  hot_.coldUntil[i] = t.coldUntilTick;
  hot_.suspended[i] = t.suspended ? 1 : 0;
  hot_.waiting[i] = t.waitingAtBarrier ? 1 : 0;
  hot_.finished[i] = t.finished ? 1 : 0;
  hot_.barriersPassed[i] = t.barriersPassed;
  if (t.coreId >= 0) {
    const CoreDesc& core = topology_.core(t.coreId);
    hot_.socket[i] = core.socket;
    hot_.physicalCore[i] = core.physicalCore;
    hot_.fastCore[i] = core.type == CoreType::Fast ? 1 : 0;
    hot_.conflict[i] =
        t.socketConflict[static_cast<std::size_t>(core.socket)];
  } else {
    hot_.socket[i] = -1;
    hot_.physicalCore[i] = -1;
    hot_.fastCore[i] = 0;
    hot_.conflict[i] = 1.0;
  }
}

void Machine::refreshPhaseCache(int threadId) {
  const auto i = static_cast<std::size_t>(threadId);
  const SimThread& t = threads_[i];
  const SimProcess& proc = processes_[static_cast<std::size_t>(t.processId)];
  hot_.phase[i] = &currentPhase(t);
  hot_.barrierEvery[i] = proc.program.barrierEveryInstructions;
  hot_.totalInstructions[i] = proc.program.totalInstructions();
}

void Machine::ensurePhaseCache() {
  if (hot_.phase.size() == threads_.size()) return;
  hot_.phase.resize(threads_.size());
  for (const SimThread& t : threads_) refreshPhaseCache(t.id);
}

void Machine::rebuildHotState() {
  hot_.phase.resize(threads_.size());
  for (const SimThread& t : threads_) {
    const auto i = static_cast<std::size_t>(t.id);
    hot_.executed[i] = t.executed;
    hot_.phaseExecuted[i] = t.phaseExecuted;
    hot_.quantumInstructions[i] = t.quantumInstructions;
    hot_.quantumAccesses[i] = t.quantumAccesses;
    hot_.totalAccesses[i] = t.totalAccesses;
    hot_.prevUtilization[i] = t.prevUtilization;
    hot_.runnableTicks[i] = t.runnableTicks;
    hot_.stallTicks[i] = t.stallTicks;
    hot_.barrierTicks[i] = t.barrierTicks;
    hot_.suspendedTicks[i] = t.suspendedTicks;
    hot_.fastCoreTicks[i] = t.fastCoreTicks;
    hot_.slowCoreTicks[i] = t.slowCoreTicks;
    syncHotThread(t.id);
    refreshPhaseCache(t.id);
  }
  hot_.counterMemo.clear();
  hotDirty_ = false;
  llcDirty_ = true;
  servedValid_ = false;
}

void Machine::flushHotState() const noexcept {
  if (!hotDirty_) return;
  for (SimThread& t : threads_) {
    const auto i = static_cast<std::size_t>(t.id);
    t.executed = hot_.executed[i];
    t.phaseExecuted = hot_.phaseExecuted[i];
    t.quantumInstructions = hot_.quantumInstructions[i];
    t.quantumAccesses = hot_.quantumAccesses[i];
    t.totalAccesses = hot_.totalAccesses[i];
    t.prevUtilization = hot_.prevUtilization[i];
    t.runnableTicks = hot_.runnableTicks[i];
    t.stallTicks = hot_.stallTicks[i];
    t.barrierTicks = hot_.barrierTicks[i];
    t.suspendedTicks = hot_.suspendedTicks[i];
    t.fastCoreTicks = hot_.fastCoreTicks[i];
    t.slowCoreTicks = hot_.slowCoreTicks[i];
  }
  hotDirty_ = false;
}

void Machine::placeThread(int threadId, int coreId) {
  SimThread& t = threads_.at(static_cast<std::size_t>(threadId));
  if (t.coreId >= 0) throw std::logic_error{"thread is already placed"};
  if (coreToThread_.at(static_cast<std::size_t>(coreId)) != -1)
    throw std::logic_error{"core is already occupied"};
  t.coreId = coreId;
  t.startTick = now_;
  coreToThread_[static_cast<std::size_t>(coreId)] = threadId;
  syncHotThread(threadId);
  llcDirty_ = true;
  emit(TraceEventKind::Placement, t, -1, coreId);
}

bool Machine::allFinished() const noexcept { return liveThreads_.empty(); }

int Machine::runningThreadCount() const noexcept {
  return static_cast<int>(std::count_if(
      liveThreads_.begin(), liveThreads_.end(), [this](int id) {
        return threads_[static_cast<std::size_t>(id)].coreId >= 0;
      }));
}

void Machine::emit(TraceEventKind kind, const SimThread& t, int fromCore,
                   int toCore, int detail) {
  if (trace_ == nullptr) return;
  TraceEvent e;
  e.tick = now_;
  e.kind = kind;
  e.threadId = t.id;
  e.processId = t.processId;
  e.fromCore = fromCore;
  e.toCore = toCore;
  e.detail = detail;
  trace_->record(e);
}

bool Machine::isRunnable(const SimThread& t) const noexcept {
  return !t.finished && t.coreId >= 0 && now_ >= t.stallUntilTick &&
         !t.waitingAtBarrier && !t.suspended;
}

const Phase& Machine::currentPhase(const SimThread& t) const {
  const auto& phases =
      processes_[static_cast<std::size_t>(t.processId)].program.phases;
  const auto idx = std::min(static_cast<std::size_t>(t.phaseIndex),
                            phases.size() - 1);
  return phases[idx];
}

void Machine::step() {
  ensurePhaseCache();
  (void)stepOnce();
}

Machine::TickOutcome Machine::stepOnce() {
  const util::Tick tickEnd = now_ + 1;
  tickHadEvent_ = false;
  hotDirty_ = true;
  bool utilChanged = false;
  bool timerEdge = false;

  // LLC pressure: per socket, the summed working sets of resident threads
  // (stalled and barrier-blocked threads still occupy cache). Its inputs
  // change only on placement/phase/membership events, so the transformed
  // inflation factors are cached across ticks (recomputing would repeat the
  // exact same summation — the cache is bit-identical).
  if (llcDirty_) {
    llcPressureScratch_.assign(
        static_cast<std::size_t>(topology_.socketCount()), 0.0);
    for (int id : liveThreads_) {
      const auto i = static_cast<std::size_t>(id);
      if (hot_.coreId[i] < 0) continue;
      llcPressureScratch_[static_cast<std::size_t>(hot_.socket[i])] +=
          hot_.phase[i]->workingSetMB;
    }
    for (double& mb : llcPressureScratch_) {
      const double pressure =
          config_.llcPerSocketMB > 0.0 ? mb / config_.llcPerSocketMB : 0.0;
      mb = std::min(
          2.0, 1.0 + config_.llcPressureFactor * std::max(0.0, pressure - 1.0));
    }
    llcFactor_ = llcPressureScratch_;
    llcDirty_ = false;
  }
  const std::vector<double>& llcFactor = llcFactor_;

  // Fused accounting pass: energy watts, per-state tick counters, SMT load
  // per physical core, and the leap-blocking stall/cold expiry probe — one
  // stream over the SoA arrays. Each accumulator still sees exactly the
  // additions, in exactly the liveThreads_ order, of the unfused loops.
  double watts = config_.idlePowerW *
                 static_cast<double>(topology_.physicalCoreCount());
  smtLoadScratch_.assign(
      static_cast<std::size_t>(topology_.physicalCoreCount()), 0.0);
  for (int id : liveThreads_) {
    const auto i = static_cast<std::size_t>(id);
    const int core = hot_.coreId[i];
    if (core < 0) continue;
    if (hot_.stallUntil[i] == tickEnd || hot_.coldUntil[i] == tickEnd)
      timerEdge = true;
    const bool stalled = now_ < hot_.stallUntil[i];
    const bool runnable =
        !stalled && hot_.waiting[i] == 0 && hot_.suspended[i] == 0;
    if (runnable) {
      const double f =
          physFreqGhz_[static_cast<std::size_t>(hot_.physicalCore[i])] /
          std::max(1e-9, config_.refFreqGhz);
      watts += config_.dynamicPowerW * f * f * f * hot_.prevUtilization[i];
      smtLoadScratch_[static_cast<std::size_t>(hot_.physicalCore[i])] +=
          hot_.prevUtilization[i];
      ++hot_.runnableTicks[i];
      // fastCore is 0 or 1, and random placement makes it a coin flip: add
      // the tick to both counters arithmetically instead of branching.
      hot_.fastCoreTicks[i] += hot_.fastCore[i];
      hot_.slowCoreTicks[i] += 1 - hot_.fastCore[i];
    } else if (hot_.suspended[i] != 0) {
      ++hot_.suspendedTicks[i];
    } else if (stalled) {
      ++hot_.stallTicks[i];
    } else {
      ++hot_.barrierTicks[i];
    }
  }
  energyJ_ += watts * util::kTickSeconds;

  // Gather issue capacities and memory demands for runnable threads.
  demandScratch_.clear();
  capScratch_.clear();
  activeScratch_.clear();
  std::vector<int>& activeThreads = activeScratch_;
  for (int id : liveThreads_) {
    const auto i = static_cast<std::size_t>(id);
    if (hot_.coreId[i] < 0 || now_ < hot_.stallUntil[i] ||
        hot_.waiting[i] != 0 || hot_.suspended[i] != 0)
      continue;
    const Phase& phase = *hot_.phase[i];
    const double siblingUtil = std::clamp(
        smtLoadScratch_[static_cast<std::size_t>(hot_.physicalCore[i])] -
            hot_.prevUtilization[i],
        0.0, 1.0);
    const double smtFactor =
        1.0 - (1.0 - config_.smtSharedFactor) * siblingUtil;
    const bool cold = now_ < hot_.coldUntil[i];
    const double coldIpc = cold ? config_.cacheColdSlowdown : 1.0;
    const double coldTraffic = cold ? config_.cacheColdFactor : 1.0;
    const double conflict = hot_.conflict[i];
    const double llcInflate =
        llcFactor[static_cast<std::size_t>(hot_.socket[i])];
    const double freqGhz =
        physFreqGhz_[static_cast<std::size_t>(hot_.physicalCore[i])];
    const double capInstr = freqGhz * 1e9 * phase.ipc * smtFactor * coldIpc *
                            util::kTickSeconds;
    capScratch_.push_back(capInstr);
    demandScratch_.push_back(
        MemoryDemand{hot_.socket[i], capInstr * phase.memPerInstr *
                                         coldTraffic * conflict * llcInflate});
    activeThreads.push_back(id);
  }

  // Memoized arbitration: bitwise-identical demands (the active-set
  // signature) make arbitrateInto — a pure function of them — return the
  // previous tick's served vector unchanged, so it is simply reused.
  if (servedValid_ && sameDemands(demandScratch_, prevDemands_)) {
    DIKE_COUNTER("sim.mem.arb_cache_hits");
  } else {
    arbitrateInto(demandScratch_, config_.memory, topology_.socketCount(),
                  util::kTickSeconds, arbScratch_, servedScratch_);
    prevDemands_.assign(demandScratch_.begin(), demandScratch_.end());
    servedValid_ = true;
  }
  const std::vector<double>& served = servedScratch_;

  executedScratch_.clear();
  accessesScratch_.clear();
  for (std::size_t k = 0; k < activeThreads.size(); ++k) {
    const auto i = static_cast<std::size_t>(activeThreads[k]);
    const Phase& phase = *hot_.phase[i];
    const double capInstr = capScratch_[k];
    const double cold = now_ < hot_.coldUntil[i] ? config_.cacheColdFactor : 1.0;
    const double conflict = hot_.conflict[i];
    const double llcInflate =
        llcFactor[static_cast<std::size_t>(hot_.socket[i])];
    const double effMemPerInstr =
        phase.memPerInstr * cold * conflict * llcInflate;
    const double memLimited =
        effMemPerInstr > 0.0 ? served[k] / effMemPerInstr : capInstr;
    double executed = std::min(capInstr, memLimited);

    // Clip to the current phase boundary.
    const double phaseRemaining = phase.instructions - hot_.phaseExecuted[i];
    executed = std::min(executed, phaseRemaining);

    // Clip to the next barrier, if the program synchronises.
    const double barrierEvery = hot_.barrierEvery[i];
    bool hitBarrier = false;
    if (barrierEvery > 0.0) {
      const double nextBarrierAt =
          static_cast<double>(hot_.barriersPassed[i] + 1) * barrierEvery;
      const double total = hot_.totalInstructions[i];
      if (nextBarrierAt < total - kEps) {
        const double toBarrier = nextBarrierAt - hot_.executed[i];
        if (executed >= toBarrier - kEps) {
          executed = std::max(0.0, toBarrier);
          hitBarrier = true;
        }
      }
    }

    const double newUtil = capInstr > 0.0 ? executed / capInstr : 0.0;
    // Snap to the previous utilisation when the move is within epsilon so
    // the SMT feedback loop reaches an exact fixed point (see MachineConfig).
    if (std::abs(newUtil - hot_.prevUtilization[i]) >
        config_.utilizationSnapEpsilon) {
      hot_.prevUtilization[i] = newUtil;
      utilChanged = true;
    }
    const double accesses = executed * effMemPerInstr;
    executedScratch_.push_back(executed);
    accessesScratch_.push_back(accesses);
    advanceThread(activeThreads[k], executed, accesses);
    if (hitBarrier && hot_.finished[i] == 0) {
      SimThread& t = threads_[i];
      ++t.barriersPassed;
      t.waitingAtBarrier = true;
      hot_.barriersPassed[i] = t.barriersPassed;
      hot_.waiting[i] = 1;
      tickHadEvent_ = true;
      emit(TraceEventKind::BarrierWait, t, -1, -1, t.barriersPassed);
    }
  }

  now_ = tickEnd;
  resolveBarriers();
  ++stats_.computedTicks;
  DIKE_COUNTER("sim.ticks.computed");

  // The next tick repeats this one bitwise unless something structural
  // happened, a utilisation moved, or a stall/cold window expires exactly
  // at the next tick boundary (which would flip a predicate between the
  // computed tick and its first replay). The expiry probe ran in the fused
  // accounting pass: within a tick stallUntil/coldUntil are immutable, and
  // the only membership change — a finish — also sets tickHadEvent_.
  const bool steady = !tickHadEvent_ && !utilChanged && !timerEdge;
  return TickOutcome{steady, watts};
}

util::Tick Machine::leapHorizon(util::Tick target) const {
  util::Tick n = target - now_;
  // Stall/cold windows: keep every time predicate constant across the leap.
  for (int id : liveThreads_) {
    const auto i = static_cast<std::size_t>(id);
    if (hot_.coreId[i] < 0) continue;
    if (now_ < hot_.stallUntil[i]) n = std::min(n, hot_.stallUntil[i] - now_);
    if (now_ < hot_.coldUntil[i]) n = std::min(n, hot_.coldUntil[i] - now_);
  }
  // Progress events: stop (conservatively) before any active thread can
  // cross its phase boundary or reach its next barrier.
  for (std::size_t k = 0; k < activeScratch_.size(); ++k) {
    const auto i = static_cast<std::size_t>(activeScratch_[k]);
    const double e = executedScratch_[k];
    if (e <= 0.0) continue;
    const Phase& phase = *hot_.phase[i];
    const double slack = std::max(kEps, phase.instructions * 1e-12);
    n = std::min(n,
                 ticksBelow(phase.instructions - slack - hot_.phaseExecuted[i],
                            e));
    const double barrierEvery = hot_.barrierEvery[i];
    if (barrierEvery > 0.0) {
      const double nextBarrierAt =
          static_cast<double>(hot_.barriersPassed[i] + 1) * barrierEvery;
      if (nextBarrierAt < hot_.totalInstructions[i] - kEps)
        n = std::min(n, ticksBelow(nextBarrierAt - kEps - hot_.executed[i], e));
    }
  }
  return std::max<util::Tick>(n, 0);
}

void Machine::replayTicks(util::Tick n, double watts) {
  // Bit-identity rule: per accumulator, end exactly where the per-tick loop
  // would have ended (repeated FP addition of a constant is not one
  // multiply-add). Each floating-point accumulator is a lane of the replay
  // kernel (sim/replay_kernel.hpp), which finishes it in O(1) when that is
  // provably exact and performs the literal additions otherwise. Integer
  // counters are exact either way. Everything else — pressure, arbitration,
  // phase lookups — is provably unchanged across the window and simply not
  // recomputed.
  hotDirty_ = true;
  // Sized here rather than per added thread: one allocation, not a trail
  // of outgrown ones.
  hot_.counterMemo.resize(2 * threads_.size());
  replay_.begin(n);
  replay_.add(energyJ_, watts * util::kTickSeconds);

  for (int id : liveThreads_) {
    const auto i = static_cast<std::size_t>(id);
    if (hot_.coreId[i] < 0) continue;
    if (hot_.suspended[i] != 0) {
      hot_.suspendedTicks[i] += n;
    } else if (now_ < hot_.stallUntil[i]) {
      hot_.stallTicks[i] += n;
    } else if (hot_.waiting[i] != 0) {
      hot_.barrierTicks[i] += n;
    } else {
      hot_.runnableTicks[i] += n;
      hot_.fastCoreTicks[i] += hot_.fastCore[i] * n;
      hot_.slowCoreTicks[i] += (1 - hot_.fastCore[i]) * n;
    }
  }

  // Lanes are distinct accumulators: each active thread owns its own
  // counters and occupies its own core (loadState enforces one occupant
  // per core for restored placements).
  mirrorScratch_.clear();
  for (std::size_t k = 0; k < activeScratch_.size(); ++k) {
    const auto i = static_cast<std::size_t>(activeScratch_[k]);
    const double e = executedScratch_[k];
    const double a = accessesScratch_[k];
    // A core counter holding the same bits as its occupant's (the thread
    // ran there all quantum) gets the same n additions of `a`, so it ends
    // on the same bits: copy the thread lane's result instead of replaying
    // it. It is then never a lane, so the lanes stay distinct. The bits
    // are compared before the thread lane is queued, since a memo hit
    // overwrites that lane at once.
    double& core =
        coreQuantumAccesses_[static_cast<std::size_t>(hot_.coreId[i])];
    const bool mirrored = std::bit_cast<std::uint64_t>(core) ==
                          std::bit_cast<std::uint64_t>(hot_.quantumAccesses[i]);
    replay_.add(hot_.executed[i], e);
    replay_.add(hot_.phaseExecuted[i], e);
    replay_.add(hot_.totalAccesses[i], a);
    // The per-quantum counters restart at zero every quantum, so a leap
    // usually carries them across several binades, where the jump cannot
    // apply: trying it would only cost time. The first leap after a sample
    // starts them one tick in, and when the quantum repeats the last one,
    // so does the replay: the memo answers it without the additions.
    replay_.addMemoised(hot_.quantumInstructions[i], e,
                        hot_.counterMemo[2 * i]);
    replay_.addMemoised(hot_.quantumAccesses[i], a,
                        hot_.counterMemo[2 * i + 1]);
    if (mirrored)
      mirrorScratch_.push_back(k);
    else
      replay_.addLiteral(core, a);
  }
  replay_.finish();
  for (const std::size_t k : mirrorScratch_) {
    const auto i = static_cast<std::size_t>(activeScratch_[k]);
    coreQuantumAccesses_[static_cast<std::size_t>(hot_.coreId[i])] =
        hot_.quantumAccesses[i];
  }

  now_ += n;
  stats_.leapedTicks += n;
  DIKE_COUNTER("sim.leap.replays");
  DIKE_COUNTER_ADD("sim.leap.lanes_jumped", replay_.jumped());
  DIKE_COUNTER_ADD("sim.leap.lanes_literal", replay_.literal());
  DIKE_COUNTER_ADD("sim.leap.lanes_memoised", replay_.memoised());
  DIKE_COUNTER_ADD("sim.leap.lanes_memo_missed", replay_.memoMissed());
  DIKE_COUNTER_ADD("sim.leap.lanes_mirrored", mirrorScratch_.size());
  DIKE_GAUGE_SET("sim.leap.lane_width", replay_.width());
  DIKE_COUNTER_ADD("sim.ticks.leaped", n);
}

void Machine::stepUntil(util::Tick target, bool stopWhenAllFinished) {
  ensurePhaseCache();
  const double sigma = config_.measurementNoiseSigma;
  const std::size_t count = threads_.size();
  if (noise_.ready || count < kNoiseOverlapThreads) {
    stepLoop(target, stopWhenAllFinished);
    return;
  }
  // The noise stream depends on nothing the stepping computes, so the next
  // sample's draws overlap it (the contract is at NoiseBatch).
  const util::Rng::State from = rng_.state();
  util::TaskPool& pool = util::TaskPool::shared();
  pool.forEach(
      2,
      [&](std::size_t job) {
        if (job == 0) {
          stepLoop(target, stopWhenAllFinished);
          return;
        }
        util::Rng rng;
        rng.setState(from);
        drawNoise(rng, count, sigma, noise_.factors);
        noise_.from = from;
        noise_.to = rng.state();
      },
      std::min(2, pool.jobs()));
  noise_.ready = true;
  DIKE_COUNTER("sim.noise.prepared");
}

void Machine::stepLoop(util::Tick target, bool stopWhenAllFinished) {
  while (now_ < target) {
    if (stopWhenAllFinished && liveThreads_.empty()) return;
    const TickOutcome tick = stepOnce();
    if (stopWhenAllFinished && liveThreads_.empty()) return;
    if (!config_.tickLeaping || !tick.steady || now_ >= target) continue;
    const util::Tick n = leapHorizon(target);
    if (n > 0) replayTicks(n, tick.watts);
  }
}

void Machine::advanceThread(int threadId, double executed, double accesses) {
  const auto i = static_cast<std::size_t>(threadId);
  hot_.executed[i] += executed;
  hot_.phaseExecuted[i] += executed;
  hot_.quantumInstructions[i] += executed;
  hot_.quantumAccesses[i] += accesses;
  hot_.totalAccesses[i] += accesses;
  if (hot_.coreId[i] >= 0)
    coreQuantumAccesses_[static_cast<std::size_t>(hot_.coreId[i])] += accesses;

  SimThread& t = threads_[i];
  const SimProcess& proc = processes_[static_cast<std::size_t>(t.processId)];
  const auto& phases = proc.program.phases;

  // Phase transition(s): a tick never spans more than one boundary because
  // executed was clipped to the phase remainder above. Per-phase budgets
  // use a relative epsilon so accumulated floating error over billions of
  // instructions cannot strand a thread one tick short of a boundary.
  if (t.phaseIndex < static_cast<int>(phases.size())) {
    const Phase& phase = phases[static_cast<std::size_t>(t.phaseIndex)];
    const double slack = std::max(kEps, phase.instructions * 1e-12);
    if (hot_.phaseExecuted[i] >= phase.instructions - slack) {
      ++t.phaseIndex;
      hot_.phaseExecuted[i] = 0.0;
      tickHadEvent_ = true;
      llcDirty_ = true;  // the new phase's working set changes LLC pressure
      if (t.phaseIndex < static_cast<int>(phases.size()))
        emit(TraceEventKind::PhaseChange, t, -1, -1, t.phaseIndex);
      refreshPhaseCache(threadId);
    }
  }

  // A thread is done exactly when it has retired every phase — comparing
  // the cumulative counter against the total budget would double-count the
  // drift the per-phase clipping already absorbed.
  if (t.phaseIndex >= static_cast<int>(phases.size())) finishThread(t);
}

void Machine::finishThread(SimThread& t) {
  if (t.finished) return;
  const auto i = static_cast<std::size_t>(t.id);
  t.finished = true;
  t.finishTick = now_ + 1;  // completes at the end of the current tick
  t.waitingAtBarrier = false;
  hot_.finished[i] = 1;
  hot_.waiting[i] = 0;
  llcDirty_ = true;  // the thread's working set leaves its socket's LLC
  tickHadEvent_ = true;
  if (t.coreId >= 0) coreToThread_[static_cast<std::size_t>(t.coreId)] = -1;
  // Ordered erase keeps liveThreads_ ascending, preserving the FP summation
  // order of the per-tick loops.
  const auto it = std::find(liveThreads_.begin(), liveThreads_.end(), t.id);
  if (it != liveThreads_.end()) liveThreads_.erase(it);

  SimProcess& proc = processes_[static_cast<std::size_t>(t.processId)];
  const bool allDone = std::all_of(
      proc.threadIds.begin(), proc.threadIds.end(), [this](int id) {
        return threads_[static_cast<std::size_t>(id)].finished;
      });
  emit(TraceEventKind::ThreadFinish, t);
  if (allDone) {
    proc.finishTick = t.finishTick;
    emit(TraceEventKind::ProcessFinish, t);
  }
}

void Machine::resolveBarriers() {
  for (const SimProcess& proc : processes_) {
    if (!proc.program.hasBarriers() || proc.finished()) continue;
    int minPassed = std::numeric_limits<int>::max();
    bool anyWaiting = false;
    for (int id : proc.threadIds) {
      const SimThread& t = threads_[static_cast<std::size_t>(id)];
      if (t.finished) continue;
      minPassed = std::min(minPassed, t.barriersPassed);
      anyWaiting = anyWaiting || t.waitingAtBarrier;
    }
    if (!anyWaiting) continue;
    for (int id : proc.threadIds) {
      SimThread& t = threads_[static_cast<std::size_t>(id)];
      if (!t.finished && t.waitingAtBarrier && t.barriersPassed <= minPassed) {
        t.waitingAtBarrier = false;
        hot_.waiting[static_cast<std::size_t>(id)] = 0;
        tickHadEvent_ = true;
        emit(TraceEventKind::BarrierRelease, t, -1, -1, t.barriersPassed);
      }
    }
  }
}

void Machine::applyMigrationStall(SimThread& t, int fromCore) {
  t.stallUntilTick = now_ + config_.migrationStallTicks;
  t.coldUntilTick =
      now_ + config_.migrationStallTicks + config_.cacheColdTicks;
  ++t.migrations;
  t.lastMigrationTick = now_;
  ++migrationCount_;
  DIKE_COUNTER("sim.migrations");
  emit(TraceEventKind::Migration, t, fromCore, t.coreId);
}

void Machine::swapThreads(int threadA, int threadB) {
  if (threadA == threadB)
    throw std::invalid_argument{"cannot swap a thread with itself"};
  SimThread& a = threads_.at(static_cast<std::size_t>(threadA));
  SimThread& b = threads_.at(static_cast<std::size_t>(threadB));
  if (a.finished || b.finished)
    throw std::logic_error{"cannot swap a finished thread"};
  if (a.coreId < 0 || b.coreId < 0)
    throw std::logic_error{"cannot swap an unplaced thread"};

  const int coreA = a.coreId;
  const int coreB = b.coreId;
  std::swap(a.coreId, b.coreId);
  coreToThread_[static_cast<std::size_t>(a.coreId)] = a.id;
  coreToThread_[static_cast<std::size_t>(b.coreId)] = b.id;
  applyMigrationStall(a, coreA);
  applyMigrationStall(b, coreB);
  syncHotThread(a.id);
  syncHotThread(b.id);
  llcDirty_ = true;
  ++swapCount_;
  DIKE_COUNTER("sim.swaps");
  const auto stall =
      static_cast<double>(config_.migrationStallTicks + config_.cacheColdTicks);
  // One stall per moved thread.
  telemetry::publish(telemetry::EventKind::ActuationStall, stall);
  telemetry::publish(telemetry::EventKind::ActuationStall, stall);
}

void Machine::migrateThread(int threadId, int coreId) {
  SimThread& t = threads_.at(static_cast<std::size_t>(threadId));
  if (t.finished) throw std::logic_error{"cannot migrate a finished thread"};
  if (coreToThread_.at(static_cast<std::size_t>(coreId)) != -1)
    throw std::logic_error{"destination core is occupied"};
  const int fromCore = t.coreId;
  if (t.coreId >= 0) coreToThread_[static_cast<std::size_t>(t.coreId)] = -1;
  t.coreId = coreId;
  coreToThread_[static_cast<std::size_t>(coreId)] = threadId;
  applyMigrationStall(t, fromCore);
  syncHotThread(threadId);
  llcDirty_ = true;
  telemetry::publish(telemetry::EventKind::ActuationStall,
                     static_cast<double>(config_.migrationStallTicks +
                                         config_.cacheColdTicks));
}

void Machine::setPhysicalCoreFrequency(int physicalCore, double freqGhz) {
  if (freqGhz <= 0.0) throw std::invalid_argument{"frequency must be > 0"};
  physFreqGhz_.at(static_cast<std::size_t>(physicalCore)) = freqGhz;
}

void Machine::setSocketFrequency(int socket, double freqGhz) {
  bool any = false;
  for (const CoreDesc& core : topology_.cores()) {
    if (core.socket == socket && core.smtIndex == 0) {
      setPhysicalCoreFrequency(core.physicalCore, freqGhz);
      any = true;
    }
  }
  if (!any) throw std::out_of_range{"unknown socket"};
}

double Machine::coreFrequencyGhz(int vcore) const {
  return physFreqGhz_.at(
      static_cast<std::size_t>(topology_.core(vcore).physicalCore));
}

void Machine::suspendThread(int threadId) {
  SimThread& t = threads_.at(static_cast<std::size_t>(threadId));
  if (t.finished) throw std::logic_error{"cannot suspend a finished thread"};
  if (t.suspended) return;
  t.suspended = true;
  hot_.suspended[static_cast<std::size_t>(threadId)] = 1;
  emit(TraceEventKind::Suspend, t);
}

void Machine::resumeThread(int threadId) {
  SimThread& t = threads_.at(static_cast<std::size_t>(threadId));
  if (!t.suspended) return;
  t.suspended = false;
  hot_.suspended[static_cast<std::size_t>(threadId)] = 0;
  emit(TraceEventKind::Resume, t);
}

QuantumSample Machine::sampleAndReset() {
  QuantumSample sample;
  sampleAndResetInto(sample);
  return sample;
}

void Machine::sampleAndResetInto(QuantumSample& out) {
  DIKE_SCOPE_TIMER("sim.sample_and_reset");
  DIKE_COUNTER("sim.samples");
  ensurePhaseCache();
  out.periodTicks = std::max<util::Tick>(1, now_ - lastSampleTick_);
  const double periodSec =
      static_cast<double>(out.periodTicks) * util::kTickSeconds;

  // Every thread — finished ones included — draws two noise factors in id
  // order, so the RNG stream is consumed exactly as before. A batch that
  // stepUntil prepared from this very stream position holds those draws.
  const bool prepared = noise_.ready && noise_.from == rng_.state() &&
                        noise_.factors.size() == 2 * threads_.size();
  if (prepared) {
    rng_.setState(noise_.to);
  } else {
    if (noise_.ready) DIKE_COUNTER("sim.noise.discarded");
    drawNoise(rng_, threads_.size(), config_.measurementNoiseSigma,
              noise_.factors);
  }
  noise_.ready = false;
  const std::vector<double>& noise = noise_.factors;

  out.threads.clear();
  out.threads.reserve(threads_.size());
  for (const SimThread& t : threads_) {
    const auto i = static_cast<std::size_t>(t.id);
    ThreadSample s;
    s.threadId = t.id;
    s.processId = t.processId;
    s.coreId = hot_.coreId[i];
    s.finished = hot_.finished[i] != 0;
    s.instructions = hot_.quantumInstructions[i];
    s.accesses = hot_.quantumAccesses[i];
    s.accessRate = (hot_.quantumAccesses[i] / periodSec) * noise[2 * i];
    s.llcMissRatio =
        std::clamp(hot_.phase[i]->llcMissRatio * noise[2 * i + 1], 0.0, 1.0);
    out.threads.push_back(s);

    hot_.quantumInstructions[i] = 0.0;
    hot_.quantumAccesses[i] = 0.0;
  }
  hotDirty_ = true;  // the quantum accumulators were just zeroed

  out.coreAchievedBw.resize(coreQuantumAccesses_.size());
  for (std::size_t c = 0; c < coreQuantumAccesses_.size(); ++c) {
    out.coreAchievedBw[c] = coreQuantumAccesses_[c] / periodSec;
    coreQuantumAccesses_[c] = 0.0;
  }
  lastSampleTick_ = now_;
}

void Machine::drawNoise(util::Rng& rng, std::size_t threads, double sigma,
                        std::vector<double>& factors) {
  factors.resize(2 * threads);
  for (double& factor : factors) factor = rng.noiseFactor(sigma);
}

namespace {

constexpr auto kThreadFields = [](auto& t, auto&& field) {
  field("id", t.id);
  field("processId", t.processId);
  field("indexInProcess", t.indexInProcess);
  field("executed", t.executed);
  field("phaseExecuted", t.phaseExecuted);
  field("phaseIndex", t.phaseIndex);
  field("coreId", t.coreId);
  field("stallUntilTick", t.stallUntilTick);
  field("coldUntilTick", t.coldUntilTick);
  field("suspended", t.suspended);
  field("waitingAtBarrier", t.waitingAtBarrier);
  field("barriersPassed", t.barriersPassed);
  field("startTick", t.startTick);
  field("finished", t.finished);
  field("finishTick", t.finishTick);
  field("quantumInstructions", t.quantumInstructions);
  field("quantumAccesses", t.quantumAccesses);
  field("totalAccesses", t.totalAccesses);
  field("migrations", t.migrations);
  field("lastMigrationTick", t.lastMigrationTick);
  field("socketConflict", t.socketConflict);
  field("prevUtilization", t.prevUtilization);
  field("runnableTicks", t.runnableTicks);
  field("stallTicks", t.stallTicks);
  field("barrierTicks", t.barrierTicks);
  field("suspendedTicks", t.suspendedTicks);
  field("fastCoreTicks", t.fastCoreTicks);
  field("slowCoreTicks", t.slowCoreTicks);
};

}  // namespace

template <class Self, class Field>
void Machine::stateFields(Self& s, const Machine& built, Field&& field) {
  const auto sameSize = [&](std::string_view name, const auto& saved,
                            const auto& constructed) {
    field.require(saved.size() == constructed.size(), name,
                  "does not fit this topology (a different config)");
  };
  field.section("machine", [&] {
    field("now", s.now_);
    field("lastSampleTick", s.lastSampleTick_);
    field("swapCount", s.swapCount_);
    field("migrationCount", s.migrationCount_);
    field("energyJoules", s.energyJ_);
    field("computedTicks", s.stats_.computedTicks);
    field("leapedTicks", s.stats_.leapedTicks);
    field("rng", s.rng_);
    field("physFreqGhz", s.physFreqGhz_);
    sameSize("physFreqGhz", s.physFreqGhz_, built.physFreqGhz_);
    field("coreToThread", s.coreToThread_);
    sameSize("coreToThread", s.coreToThread_, built.coreToThread_);
    field("liveThreads", s.liveThreads_);
    field("coreQuantumAccesses", s.coreQuantumAccesses_);
    sameSize("coreQuantumAccesses", s.coreQuantumAccesses_,
             built.coreQuantumAccesses_);
    field.require(
        field.count("threadCount", s.threads_.size()) == s.threads_.size(),
        "threadCount",
        "differs from the run spec's threads (a different config)");
    for (std::size_t i = 0; i < s.threads_.size(); ++i) {
      auto& t = s.threads_[i];
      const SimThread& b = built.threads_[i];
      field.section(NumberedSection{"thread ", t.id}, [&] {
        kThreadFields(t, field);
        field.require(t.id == b.id && t.processId == b.processId &&
                          t.indexInProcess == b.indexInProcess,
                      "id",
                      "is not the run spec's thread (a different config)");
        // Stepping indexes the program by phaseIndex and the per-core
        // arrays by coreId.
        field.require(t.phaseIndex >= 0 &&
                          std::cmp_less_equal(
                              t.phaseIndex,
                              built.processes_[static_cast<std::size_t>(
                                                   b.processId)]
                                  .program.phases.size()),
                      "phaseIndex", "lies outside the thread's program");
        field.require(t.coreId >= -1 &&
                          t.coreId < util::isize(built.coreToThread_),
                      "coreId", "is not a vcore of this topology");
        field.require(t.barriersPassed >= 0, "barriersPassed", "is negative");
        field.require(t.migrations >= 0, "migrations", "is negative");
        field.require(t.socketConflict.size() ==
                          static_cast<std::size_t>(
                              built.topology_.socketCount()),
                      "socketConflict", "does not hold one draw per socket");
      });
    }
    field.require(field.count("processCount", s.processes_.size()) ==
                      s.processes_.size(),
                  "processCount",
                  "differs from the run spec's processes (a different config)");
    for (std::size_t i = 0; i < s.processes_.size(); ++i) {
      auto& p = s.processes_[i];
      field.section(NumberedSection{"process ", p.id}, [&] {
        field("name", p.name);
        field.require(p.name == built.processes_[i].name, "name",
                      "is not the run spec's process (a different config)");
        field("finishTick", p.finishTick);
      });
    }
  });
}

void Machine::saveState(ckpt::BinWriter& w) const {
  flushHotState();  // checkpoints serialize the struct-of-record threads
  stateFields(*this, *this, ckpt::FieldWriter{w});
}

void Machine::loadState(ckpt::BinReader& r) {
  // Restore into a copy of the constructed machine: its threads and
  // processes are the run spec's, and their section names come from them.
  Machine restored = *this;
  stateFields(restored, *this, ckpt::FieldReader{r});
  checkPlacement(restored.threads_, restored.coreToThread_,
                 restored.liveThreads_);
  // Everything parsed and validated — commit. No throw below this line.
  *this = std::move(restored);
  tickHadEvent_ = false;
  rebuildHotState();  // also re-points the phase caches at processes_
}

bool stepQuantum(Machine& machine, QuantumPolicy& policy,
                 const RunLimits& limits, util::Tick& nextQuantumAt,
                 bool holdOpen) {
  if (nextQuantumAt < 0) nextQuantumAt = policy.quantumTicks();
  while (runOpen(machine, limits, holdOpen)) {
    const util::Tick target = std::min(
        limits.maxTicks, std::max(nextQuantumAt, machine.now() + 1));
    machine.stepUntil(target, !holdOpen);
    if (machine.now() < nextQuantumAt) continue;
    if (machine.allFinished() && !holdOpen) return false;
    policy.onQuantum(machine);
    // Schedule from the previous deadline, not the observed tick, so one
    // late quantum cannot shift the whole subsequent schedule. stepUntil
    // never overshoots the target, so the clamp only guards pathological
    // policies that move the deadline into the past.
    nextQuantumAt =
        std::max(nextQuantumAt + std::max<util::Tick>(1, policy.quantumTicks()),
                 machine.now() + 1);
    return true;
  }
  return false;
}

bool runOpen(const Machine& machine, const RunLimits& limits, bool holdOpen) {
  return (holdOpen || !machine.allFinished()) &&
         machine.now() < limits.maxTicks;
}

RunOutcome runOutcome(const Machine& machine, bool holdOpen) {
  const bool workLeft = holdOpen || !machine.allFinished();
  const bool stopped = workLeft && util::stopRequested();
  return RunOutcome{machine.now(), workLeft && !stopped, stopped};
}

void publishQuantumLength(const QuantumPolicy& policy) {
  telemetry::publish(
      telemetry::EventKind::QuantumTicks,
      static_cast<double>(std::max<util::Tick>(1, policy.quantumTicks())));
}

RunOutcome runMachine(Machine& machine, QuantumPolicy& policy,
                      RunLimits limits) {
  // The stop flag is checked once per quantum, so a SIGINT unwinds through
  // the normal return path and every telemetry sink finalises cleanly —
  // never mid-row, never mid-file.
  util::Tick nextQuantumAt = -1;
  while (!util::stopRequested() &&
         stepQuantum(machine, policy, limits, nextQuantumAt))
    publishQuantumLength(policy);
  return runOutcome(machine);
}

}  // namespace dike::sim
