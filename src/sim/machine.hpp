// The simulation engine: a heterogeneous multicore with a shared memory
// system, advanced in fixed 1 ms ticks.
//
// Per tick, every runnable thread computes an issue capacity from its core's
// frequency (shared with SMT siblings), presents its memory demand, the
// memory system arbitrates (sim/memory.hpp), and progress is the roofline
// minimum of compute capacity and served bandwidth. Phase transitions,
// barriers, migration stalls, and completion are handled inline.
//
// Schedulers interact through two surfaces only:
//   * sampleAndReset(): per-quantum performance-counter readings (with
//     configurable measurement noise) — the analogue of the hardware
//     counters the paper's Observer reads, and
//   * swapThreads()/migrateThread(): affinity manipulation — the analogue of
//     sched_setaffinity. Each migration costs a cache-warmth stall (swapOH).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/memory.hpp"
#include "sim/replay_kernel.hpp"
#include "sim/thread.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dike::ckpt {
class BinWriter;
class BinReader;
}  // namespace dike::ckpt

namespace dike::sim {

/// Engine tuning knobs.
struct MachineConfig {
  MemoryParams memory{};
  /// Issue-capacity floor for a vcore whose SMT sibling is fully issuing.
  /// The effective factor is utilisation-aware:
  ///   factor = 1 - (1 - smtSharedFactor) * siblingUtilisation,
  /// so a sibling stalled on memory (low utilisation) leaves most issue
  /// slots to its partner, as real SMT cores do.
  double smtSharedFactor = 0.68;
  /// Ticks a thread stalls after each migration (the paper's swapOH).
  util::Tick migrationStallTicks = 3;
  /// After the stall, the migrated thread runs with a cold cache for this
  /// many ticks: its LLC-missing traffic is multiplied by cacheColdFactor
  /// (private-cache contents must be refetched) and its issue rate by
  /// cacheColdSlowdown (refill stalls cost IPC even for compute-bound
  /// threads). This cache-warmth loss is what makes excessive migration
  /// expensive — the overhead DIO pays for swapping every quantum.
  util::Tick cacheColdTicks = 60;
  double cacheColdFactor = 2.0;
  double cacheColdSlowdown = 0.70;
  /// Shared last-level cache per socket (the paper's machine has 25 MB).
  /// When the working sets co-located on a socket exceed it, every thread
  /// there sees its LLC-missing traffic inflated by
  /// 1 + llcPressureFactor * (pressure - 1), capped at 2x.
  double llcPerSocketMB = 25.0;
  double llcPressureFactor = 0.2;
  /// Placement asymmetry: each (thread, socket) pair draws a persistent
  /// LLC-missing-traffic factor in [1-spread, 1+spread], modelling page,
  /// bank, and LLC-set conflicts that depend on where a thread runs. A
  /// static scheduler locks the draw in for the whole run; migration
  /// averages it out — the contention-driven unfairness the paper's
  /// schedulers exist to fix.
  double conflictSpread = 0.12;
  /// Multiplicative noise sigma applied to counter readings at sampling time.
  double measurementNoiseSigma = 0.01;
  /// Power model (energy is an extension metric, not in the paper): each
  /// physical core draws idlePowerW always, plus
  /// dynamicPowerW * (f/refFreqGhz)^3 * utilisation while executing.
  double idlePowerW = 2.0;
  double dynamicPowerW = 8.0;
  double refFreqGhz = 2.33;
  /// Event-batched stepping ("tick leaping"): when a computed tick proves
  /// that the next tick must be bit-identical (no phase crossing, barrier,
  /// finish, stall/cold expiry, or utilisation drift), stepUntil() replays
  /// the remaining ticks up to the next event horizon without recomputing
  /// them. Results are bit-identical to per-tick stepping by construction
  /// (see DESIGN.md "Event-batched time"); disable for debugging A/B runs.
  bool tickLeaping = true;
  /// Snap the per-tick issue utilisation to its previous value when it moves
  /// by at most this much. This lets the SMT feedback loop (utilisation ->
  /// sibling issue share -> utilisation) settle on an exact floating-point
  /// fixed point instead of converging geometrically forever, which is what
  /// makes ticks provably repeatable. The model error it introduces is
  /// bounded: utilisation only modulates the sibling issue share (factor
  /// (1 - smtSharedFactor) * eps ~ 3e-5 of capacity) and the dynamic power
  /// term, both far below the engine's measurement noise. Applied
  /// identically with and without tickLeaping, so the two modes stay
  /// bit-identical to each other.
  double utilizationSnapEpsilon = 1e-4;
  std::uint64_t seed = 1;
};

/// Counters for how simulated time was advanced (perf introspection).
struct StepStats {
  util::Tick computedTicks = 0;  ///< ticks evaluated with the full model
  util::Tick leapedTicks = 0;    ///< ticks replayed from a steady tick
};

/// One thread's counter reading for the last quantum.
struct ThreadSample {
  int threadId = -1;
  int processId = -1;
  int coreId = -1;
  double instructions = 0.0;  ///< retired during the quantum
  double accesses = 0.0;      ///< LLC-missing accesses during the quantum
  double accessRate = 0.0;    ///< accesses per second during the quantum
  double llcMissRatio = 0.0;  ///< classification signal (noisy)
  bool finished = false;
  /// True when the counter read for this thread was lost this quantum (a
  /// perf read failure on a live host, or injected by the fault layer). The
  /// numeric fields are then meaningless; consumers hold their last-known-
  /// good value instead of ingesting them.
  bool dropped = false;
};

/// Full counter snapshot for one quantum.
struct QuantumSample {
  util::Tick periodTicks = 0;
  std::vector<ThreadSample> threads;
  /// Achieved memory bandwidth per vcore (accesses/second) over the quantum.
  std::vector<double> coreAchievedBw;
};

class Machine {
 public:
  /// Machines with at least this many threads draw the next sample's
  /// counter noise on a second pool job while stepUntil steps the quantum
  /// (see noise_ below). Small machines would pay the pool dispatch for
  /// draws too few to hide, so sampling draws them inline; DESIGN.md
  /// "Event-batched time" records the measured crossover.
  static constexpr std::size_t kNoiseOverlapThreads = 1024;

  Machine(MachineTopology topology, MachineConfig config);

  /// Register a process with `threadCount` identical threads running
  /// `program`. Threads are created unplaced. Returns the process id.
  int addProcess(std::string name, PhaseProgram program, int threadCount,
                 bool memoryIntensive);

  /// Pin an unplaced thread to a free core (initial placement).
  void placeThread(int threadId, int coreId);

  /// Advance simulated time by one tick.
  void step();

  /// Advance simulated time to `target`, leaping over provably-identical
  /// ticks when config().tickLeaping is set (bit-identical to calling
  /// step() in a loop either way). Returns early once every thread has
  /// finished unless `stopWhenAllFinished` is false (dynamic workloads let
  /// time pass while waiting for future arrivals). Never steps past
  /// `target`, so callers may mutate the machine (swaps, DVFS, arrivals)
  /// exactly at the boundary. On a machine of kNoiseOverlapThreads or more
  /// threads with no noise batch ready, the next sample's noise is drawn
  /// on a second TaskPool::shared() job meanwhile.
  void stepUntil(util::Tick target, bool stopWhenAllFinished = true);

  [[nodiscard]] util::Tick now() const noexcept { return now_; }
  [[nodiscard]] bool allFinished() const noexcept;
  [[nodiscard]] int runningThreadCount() const noexcept;
  [[nodiscard]] StepStats stepStats() const noexcept { return stats_; }

  /// Exchange the cores of two live threads. Both threads incur the
  /// migration stall. Counts as one swap (a pair of migrations), matching
  /// the paper's Table III accounting.
  void swapThreads(int threadA, int threadB);

  /// Move one live thread to a free core (single migration, half a swap).
  void migrateThread(int threadId, int coreId);

  /// Suspension enforcement (the alternative Section III-E argues against):
  /// a suspended thread holds its core but makes no progress.
  void suspendThread(int threadId);
  void resumeThread(int threadId);
  [[nodiscard]] bool isSuspended(int threadId) const {
    return hot_.suspended.at(static_cast<std::size_t>(threadId)) != 0;
  }

  /// Read and reset per-quantum counters. Applies measurement noise.
  [[nodiscard]] QuantumSample sampleAndReset();

  /// sampleAndReset into a caller-owned sample whose vectors keep their
  /// capacity across quanta (the steady-state-allocation-free path). Draws
  /// the same RNG stream and produces the same values as sampleAndReset.
  /// Reads the noise batch stepUntil prepared when it is still valid, else
  /// draws the noise here; either way the batch is consumed.
  void sampleAndResetInto(QuantumSample& out);

  /// DVFS: change a physical core's frequency at runtime (both SMT
  /// siblings are affected). The paper's testbed *is* such a setting — one
  /// socket pinned to minimum frequency, one to turbo — and Section III-A
  /// notes core capability is dynamic; this is the knob that makes it so.
  void setPhysicalCoreFrequency(int physicalCore, double freqGhz);
  /// Set every physical core of a socket at once.
  void setSocketFrequency(int socket, double freqGhz);
  /// Current effective frequency of a vcore (override or nominal).
  [[nodiscard]] double coreFrequencyGhz(int vcore) const;

  /// Total energy consumed so far (joules), per the MachineConfig power
  /// model. An extension metric for energy/fairness trade-off studies.
  [[nodiscard]] double energyJoules() const noexcept { return energyJ_; }

  // Introspection.
  [[nodiscard]] const MachineTopology& topology() const noexcept {
    return topology_;
  }
  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::span<const SimThread> threads() const noexcept {
    flushHotState();
    return threads_;
  }
  [[nodiscard]] std::span<const SimProcess> processes() const noexcept {
    return processes_;
  }
  [[nodiscard]] const SimThread& thread(int id) const {
    flushHotState();
    return threads_.at(static_cast<std::size_t>(id));
  }
  [[nodiscard]] const SimProcess& process(int id) const {
    return processes_.at(static_cast<std::size_t>(id));
  }
  /// Thread occupying a core, or -1.
  [[nodiscard]] int coreOccupant(int coreId) const {
    return coreToThread_.at(static_cast<std::size_t>(coreId));
  }
  /// Total swaps performed so far (each = one pair of migrations).
  [[nodiscard]] std::int64_t swapCount() const noexcept { return swapCount_; }
  [[nodiscard]] std::int64_t migrationCount() const noexcept {
    return migrationCount_;
  }

  /// Attach (or detach with nullptr) an event recorder. Off by default;
  /// recording costs one branch per event when disabled.
  void setTraceRecorder(TraceRecorder* recorder) noexcept {
    trace_ = recorder;
  }
  [[nodiscard]] TraceRecorder* traceRecorder() const noexcept {
    return trace_;
  }

  /// Serialize every piece of mutable simulation state — the clock, thread
  /// progress, placement, RNG stream (including per-thread socket-conflict
  /// draws, stored on the threads), counters, and energy — into the archive.
  /// Per-tick transients (scratch buffers, the intra-tick event flag) are
  /// rebuilt by the next step and are deliberately excluded.
  void saveState(ckpt::BinWriter& w) const;

  /// Restore state captured by saveState into a machine constructed with
  /// the same topology, config, processes, and threads (i.e. rebuilt from
  /// the same RunSpec). Validates thread/process identity before touching
  /// anything and throws ckpt::CheckpointError on any mismatch, so a failed
  /// load never leaves a partially-restored machine.
  void loadState(ckpt::BinReader& r);

 private:
  /// Result of evaluating one tick with the full model. `steady` means the
  /// next tick is provably bit-identical to this one until a time-based
  /// predicate (stall/cold expiry) flips or an external mutation arrives;
  /// `watts` is the power drawn, constant across the steady window.
  struct TickOutcome {
    bool steady = false;
    double watts = 0.0;
  };
  TickOutcome stepOnce();
  /// Largest n such that replaying the just-computed tick n times cannot
  /// cross any event (phase boundary, barrier, stall/cold expiry, target).
  [[nodiscard]] util::Tick leapHorizon(util::Tick target) const;
  /// Replay the just-computed steady tick n times: repeat exactly the
  /// per-accumulator additions per-tick stepping would perform, skipping
  /// the (unchanged) model evaluation.
  void replayTicks(util::Tick n, double watts);
  void advanceThread(int threadId, double executed, double accesses);
  void resolveBarriers();
  void finishThread(SimThread& t);
  void applyMigrationStall(SimThread& t, int fromCore);
  void emit(TraceEventKind kind, const SimThread& t, int fromCore = -1,
            int toCore = -1, int detail = 0);
  [[nodiscard]] bool isRunnable(const SimThread& t) const noexcept;
  [[nodiscard]] const Phase& currentPhase(const SimThread& t) const;

  /// Pointers into this machine's own process programs. A copied machine's
  /// would point into the source's, which may be gone, so a copy starts
  /// empty and re-derives them before its first use (ensurePhaseCache); a
  /// move keeps them, as it keeps the buffers they point into.
  struct PhaseCache : std::vector<const Phase*> {
    PhaseCache() = default;
    PhaseCache(const PhaseCache& /*source*/) noexcept
        : std::vector<const Phase*>{} {}
    PhaseCache& operator=(const PhaseCache& /*source*/) noexcept {
      clear();
      return *this;
    }
    PhaseCache(PhaseCache&&) noexcept = default;
    PhaseCache& operator=(PhaseCache&&) noexcept = default;
    ~PhaseCache() = default;
  };

  // --- Structure-of-arrays hot state (see DESIGN.md "SoA hot path") ---
  // The per-tick loops stream over these parallel arrays, indexed by thread
  // id, instead of striding across SimThread objects. Two ownership classes:
  //   * accumulators — written every tick; the SoA copy is authoritative and
  //     the SimThread fields are flushed on demand (flushHotState);
  //   * mirrors/caches — placement, blocking flags, and phase-derived
  //     constants; the SimThread/process copy is authoritative and the array
  //     is refreshed at every (rare) mutation via syncHotThread.
  struct HotState {
    // Authoritative per-tick accumulators.
    std::vector<double> executed, phaseExecuted, quantumInstructions,
        quantumAccesses, totalAccesses, prevUtilization;
    std::vector<util::Tick> runnableTicks, stallTicks, barrierTicks,
        suspendedTicks, fastCoreTicks, slowCoreTicks;
    // Read-only mirrors of struct-authoritative fields.
    std::vector<int> coreId;
    std::vector<util::Tick> stallUntil, coldUntil;
    std::vector<std::uint8_t> suspended, waiting, finished;
    std::vector<int> barriersPassed;
    // Placement-derived caches (refreshed when coreId changes).
    std::vector<int> socket, physicalCore;
    std::vector<std::uint8_t> fastCore;
    std::vector<double> conflict;  ///< socketConflict[socket of coreId]
    // Phase-derived caches. Phase pointers stay valid across process-vector
    // reallocation because each PhaseProgram's phases buffer is moved, not
    // copied; they are refreshed on phase transitions and loadState.
    PhaseCache phase;
    // Per-thread copies of per-process constants (barrier clipping inputs).
    std::vector<double> barrierEvery, totalInstructions;
    // Leap memo: the last recorded replay of each thread's two per-quantum
    // counters, quantumInstructions at 2*id and quantumAccesses at 2*id+1.
    // Exact by construction (LaneMemo), so it is never checkpointed; a
    // restore empties it, and replayTicks sizes it.
    std::vector<LaneMemo> counterMemo;
  };
  /// Append SoA slots for a freshly constructed thread.
  void appendHotThread(const SimThread& t);
  /// Refresh a thread's mirrors and placement caches from its struct.
  void syncHotThread(int threadId);
  /// Refresh a thread's phase-pointer cache from its struct.
  void refreshPhaseCache(int threadId);
  /// Re-derive every phase pointer when the cache is empty (a copy).
  void ensurePhaseCache();
  /// Rebuild every SoA array from the structs (loadState).
  void rebuildHotState();
  /// The checkpoint field list, run by saveState over this machine and by
  /// loadState over a copy that commits once every check passed; `built`
  /// is the machine the run spec constructed.
  template <class Self, class Field>
  static void stateFields(Self& self, const Machine& built, Field&& field);
  /// Write the authoritative SoA accumulators back into the SimThread
  /// structs so external readers (reports, checkpoints, tests) see them.
  void flushHotState() const noexcept;
  /// stepUntil's stepping loop.
  void stepLoop(util::Tick target, bool stopWhenAllFinished);

  /// The next sample's measurement noise: two factors per thread, in
  /// thread-id order, drawn from `from` exactly as the sampling loop draws
  /// them (noiseFactor for the access rate, then for the miss ratio), the
  /// stream ending at `to`. A cache like HotState::counterMemo, so it is
  /// never checkpointed: sampleAndResetInto uses it only while rng_ still
  /// sits bitwise at `from` and the thread count matches, and otherwise
  /// draws afresh, so a stale batch (an addProcess draw, a restore) can
  /// only cost time.
  //
  // Concurrency contract: stepUntil fills the batch on one TaskPool job
  // while the other runs stepLoop. The fill reads only a copy of rng_'s
  // state, the thread count and the noise sigma, all taken before the
  // dispatch, and writes only this struct; stepLoop reads and writes
  // neither this struct nor rng_. The forEach join orders the fill before
  // every later read.
  struct NoiseBatch {
    util::Rng::State from;
    util::Rng::State to;
    std::vector<double> factors;
    bool ready = false;
  };
  /// Draw `threads` pairs of noise factors from `rng` into `factors`.
  static void drawNoise(util::Rng& rng, std::size_t threads, double sigma,
                        std::vector<double>& factors);

  MachineTopology topology_;
  MachineConfig config_;
  util::Rng rng_;

  // threads_ is mutable because the const accessors lazily flush the SoA
  // accumulators into the structs before handing them out.
  mutable std::vector<SimThread> threads_;
  std::vector<SimProcess> processes_;
  std::vector<int> coreToThread_;
  /// Ids of unfinished threads, ascending. Maintained on addProcess/finish
  /// so the per-tick loops skip finished threads without re-filtering;
  /// ascending order preserves the floating-point summation order of the
  /// all-threads loops it replaces.
  std::vector<int> liveThreads_;

  std::vector<double> physFreqGhz_;  // effective per-physical-core frequency
  TraceRecorder* trace_ = nullptr;
  util::Tick now_ = 0;
  util::Tick lastSampleTick_ = 0;
  std::vector<double> coreQuantumAccesses_;
  std::int64_t swapCount_ = 0;
  std::int64_t migrationCount_ = 0;
  double energyJ_ = 0.0;
  StepStats stats_;
  /// Set by advanceThread/finishThread/barrier handling during a tick:
  /// a structural event happened, so the next tick is not a repeat.
  bool tickHadEvent_ = false;

  HotState hot_;
  mutable bool hotDirty_ = false;
  NoiseBatch noise_;

  // Scratch buffers reused across ticks to avoid per-tick allocation. The
  // active/executed/accesses triple doubles as the steady-tick record that
  // leapHorizon/replayTicks consume.
  std::vector<double> llcPressureScratch_;
  std::vector<MemoryDemand> demandScratch_;
  std::vector<double> smtLoadScratch_;
  std::vector<int> activeScratch_;
  std::vector<double> capScratch_;
  std::vector<double> executedScratch_;
  std::vector<double> accessesScratch_;
  std::vector<double> servedScratch_;
  ArbitrationScratch arbScratch_;
  /// replayTicks' lane block: per machine, since machines step concurrently.
  LaneReplay replay_;
  /// replayTicks' mirrored cores, as indices into activeScratch_: each
  /// core's counter takes its occupant's quantumAccesses result.
  std::vector<std::size_t> mirrorScratch_;

  /// LLC-pressure inflation factor per socket, cached across ticks: its
  /// inputs (which threads are resident where, and their phases' working
  /// sets) only change on placement, phase, membership, or restore events,
  /// all of which set llcDirty_. Recomputing would sum the same values in
  /// the same order, so the cache is bit-identical by construction.
  std::vector<double> llcFactor_;
  bool llcDirty_ = true;

  /// Memoized memory arbitration: when a computed tick presents bitwise-
  /// identical demands to the previous one (the active-set signature),
  /// arbitrateInto is a pure function of them and servedScratch_ is reused
  /// as-is instead of being recomputed.
  std::vector<MemoryDemand> prevDemands_;
  bool servedValid_ = false;
};

/// Quantum-driven policy hook: the bridge between the engine and the
/// scheduler layer (dike::sched adapts its Scheduler interface onto this).
class QuantumPolicy {
 public:
  virtual ~QuantumPolicy() = default;
  /// Current quantum length in ticks (adaptive policies may change it
  /// between invocations). Must be >= 1.
  [[nodiscard]] virtual util::Tick quantumTicks() const = 0;
  /// Invoked at every quantum boundary (and once at t=0 before stepping).
  virtual void onQuantum(Machine& machine) = 0;
};

struct RunLimits {
  util::Tick maxTicks = 4'000'000;  ///< safety net (~66 simulated minutes)
};

struct RunOutcome {
  util::Tick finishTick = 0;
  bool timedOut = false;
  /// True when the run ended early because util::stopRequested() (SIGINT /
  /// SIGTERM) was observed at a quantum boundary. The machine is left in a
  /// consistent state; telemetry sinks finalise via their destructors.
  bool stopped = false;
};

/// The run loop's one step body: advance `machine` to the next quantum
/// deadline and invoke the policy there. `nextQuantumAt` is the run's
/// schedule cursor, advanced in place; pass a negative value on a fresh run
/// (the first deadline is then policy.quantumTicks()). A resumed run must
/// pass the exact deadline its checkpoint recorded: the drift-free schedule
/// (`next = max(prev + quantum, now + 1)`) chains off the previous deadline,
/// which is not derivable from the clock under adaptive quanta.
///
/// While `holdOpen` is set (an open system with arrivals still pending) the
/// run is not over when every thread has finished: the clock keeps
/// advancing across the idle gap. Returns true after a quantum boundary was
/// handled and false, without invoking the policy, once the run is over.
/// Every run loop (runMachine, exp::RunSession) steps through this
/// function, so stepped, resumed and uninterrupted runs execute the same
/// arithmetic.
bool stepQuantum(Machine& machine, QuantumPolicy& policy,
                 const RunLimits& limits, util::Tick& nextQuantumAt,
                 bool holdOpen = false);

/// True while a run has work left: a live thread (or `holdOpen`) and the
/// tick limit not yet reached.
[[nodiscard]] bool runOpen(const Machine& machine, const RunLimits& limits,
                           bool holdOpen = false);

/// The outcome of a run whose loop has exited: stopped when a stop request
/// cut it short, timed out when work remains otherwise.
[[nodiscard]] RunOutcome runOutcome(const Machine& machine,
                                    bool holdOpen = false);

/// Publish the live quantum-length event for the quantum that just
/// completed (a no-op unless the live plane is on). Called by the
/// run-to-completion loops after each stepQuantum.
void publishQuantumLength(const QuantumPolicy& policy);

/// Drive the machine until every thread completes (or the tick limit hits,
/// or a stop is requested), invoking the policy at each quantum boundary.
RunOutcome runMachine(Machine& machine, QuantumPolicy& policy,
                      RunLimits limits = {});

}  // namespace dike::sim
