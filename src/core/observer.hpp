// Observer: thread classification and core identification (Section III-A).
//
// Per quantum the Observer reads each thread's memory access rate and LLC
// miss ratio from the counter sample, classifies threads as memory- or
// compute-intensive, maintains the per-core CoreBW bandwidth estimate, and
// partitions cores into higher- and lower-bandwidth halves. It also
// computes the current system fairness signal and the online workload-class
// estimate the Optimizer keys on.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "sched/scheduler.hpp"
#include "util/stats.hpp"

namespace dike::core {

/// One quantum's raw observations, built from a SchedulerView by
/// makeObservationInto — over the simulator or the Linux host backend
/// alike.
struct Observation {
  sim::QuantumSample sample;
  std::vector<int> coreOccupant;  ///< thread id per core, -1 when free
  std::vector<int> coreSocket;    ///< socket id per core
  /// Ascending ids of the cores this observation covers (a cluster-scoped
  /// view's domain). Empty means every core whose coreOccupant entry is
  /// not SchedulerView::kForeignCore. The per-core vectors above stay
  /// indexed by machine core id either way; the Observer only reads and
  /// writes the entries of covered cores.
  std::vector<int> cores;
};

/// Build an Observation from a scheduler view, refilling `out` in place so
/// its vectors (and the sample's per-thread rows) keep their capacity
/// across quanta.
/// A cluster-scoped view refreshes only its own cores' entries — O(cluster
/// cores) per quantum; the machine-sized vectors are (re)initialised, with
/// foreign entries reading kForeignCore / zero bandwidth, only when the
/// view's core count or domain differs from the one `out` last held.
void makeObservationInto(const sched::SchedulerView& view, Observation& out);

enum class ThreadClass { Compute, Memory };

/// Online estimate of the workload mix (Section III-F). This mirrors the
/// evaluation's B/UC/UM taxonomy but is inferred from counters, never from
/// ground truth.
enum class WorkloadType { Balanced, UnbalancedCompute, UnbalancedMemory };

[[nodiscard]] std::string_view toString(WorkloadType type) noexcept;

/// Observer's view of one live thread this quantum.
struct ThreadInfo {
  int threadId = -1;
  int processId = -1;
  int coreId = -1;
  double accessRate = 0.0;     ///< accesses per second, last quantum
  double avgAccessRate = 0.0;  ///< moving mean over threadRateWindow quanta
  double cumAccessRate = 0.0;  ///< accesses per second over the whole run
  /// Relative starvation versus the process mean cumulative rate:
  /// positive = this thread has been served less than its siblings,
  /// negative = more. Homogeneous threads with equal deficits will have
  /// equal completion times — deficit is the live analogue of Eqn 4.
  double deficit = 0.0;
  double llcMissRatio = 0.0;   ///< misses / accesses, last quantum
  ThreadClass cls = ThreadClass::Compute;
  /// Quanta since the thread's last trustworthy counter reading. 0 = this
  /// quantum's sample was good; N > 0 = the rate/miss-ratio fields above are
  /// a last-known-good hold that is N quanta stale (sample sanitization).
  int staleAge = 0;
};

class Observer {
 public:
  explicit Observer(ObserverConfig config = {});

  /// Ingest one quantum's counter sample.
  void observe(const Observation& obs);

  /// True once at least one quantum has been observed.
  [[nodiscard]] bool ready() const noexcept { return observedQuanta_ > 0; }
  [[nodiscard]] std::int64_t observedQuanta() const noexcept {
    return observedQuanta_;
  }

  /// Live threads observed in the most recent quantum, sorted by ascending
  /// access rate (the order the Selector consumes).
  [[nodiscard]] const std::vector<ThreadInfo>& threadsByAccessRate()
      const noexcept {
    return threads_;
  }

  /// O(1) lookup into threadsByAccessRate() by thread id, or nullptr when
  /// the thread was not observed in the most recent quantum. The pointer is
  /// invalidated by the next observe()/loadState() call.
  [[nodiscard]] const ThreadInfo* findThread(int threadId) const noexcept;

  /// CoreBW: the capability estimate for a core (accesses/second).
  [[nodiscard]] double coreBw(int coreId) const;

  /// Core identification: true if the core is in the higher-bandwidth half
  /// of currently occupied cores.
  [[nodiscard]] bool isHighBandwidthCore(int coreId) const;

  /// Fairness signal: the worst, over processes with at least two live
  /// threads (and a mean access rate above processRateFloor), coefficient
  /// of variation of their threads' cumulative access rates. Zero when
  /// every such group is uniform (fair). Homogeneous (data-parallel)
  /// threads should accumulate service at equal rates — and access rate
  /// tracks progress on heterogeneous cores where IPC misleads (Section
  /// III-A) — so divergence means some threads are being starved and will
  /// finish late (exactly what Eqn 4 penalises).
  [[nodiscard]] double systemUnfairness() const noexcept {
    return unfairness_;
  }

  [[nodiscard]] WorkloadType workloadType() const noexcept { return type_; }
  [[nodiscard]] int memoryThreadCount() const noexcept { return memCount_; }
  [[nodiscard]] int computeThreadCount() const noexcept { return compCount_; }

  [[nodiscard]] const ObserverConfig& config() const noexcept {
    return config_;
  }

  /// Samples replaced by a last-known-good hold so far (sanitization).
  [[nodiscard]] std::int64_t heldSamples() const noexcept {
    return heldSamples_;
  }
  /// Samples discarded because no hold was available (or it went stale).
  [[nodiscard]] std::int64_t discardedSamples() const noexcept {
    return discardedSamples_;
  }

  /// Divergence-watchdog recovery: drop every closed-loop estimate that a
  /// corrupt counter feed can poison — per-thread rate windows, CoreBW
  /// filters (current effective values are kept as the restart point so the
  /// core partition does not collapse), and the last-known-good holds.
  /// Whole-run progress accounting (cumulative accesses/seconds, the
  /// fairness signal's input) is deliberately preserved.
  void resetClosedLoopState();

  /// Serialize every mutable estimate — the closed-loop filters, sanitization
  /// holds, cumulative progress accounting, and the core partition. The
  /// moving-window filters carry their raw running sums (path dependent), so
  /// restore is bit-exact.
  void saveState(ckpt::BinWriter& w) const;
  void loadState(ckpt::BinReader& r);

 private:
  /// The covered cores of `obs` (see Observation::cores), ascending.
  [[nodiscard]] const std::vector<int>& domainOf(const Observation& obs);
  void updateCoreBw(const Observation& obs, const std::vector<int>& cores);
  void classifyThreads(const sim::QuantumSample& sample);
  void partitionCores(const Observation& obs, const std::vector<int>& cores);
  void computeUnfairness();
  void classifyWorkload();
  /// Accumulate per-process OnlineStats of cumAccessRate over threads_ in
  /// its current iteration order, into the reusable flat scratch.
  void accumulatePerProcess();
  /// Rebuild prevOrder_ and the slots' infoIndex from the (sorted) threads_.
  void recordThreadOrder();

  ObserverConfig config_;
  std::int64_t observedQuanta_ = 0;

  /// Last trustworthy reading per thread, for the sanitization hold.
  struct HeldSample {
    double accessRate = 0.0;
    double llcMissRatio = 0.0;
    int age = 0;  ///< quanta since the reading was taken
  };
  /// Everything the Observer keeps about one thread, in one slot. A slot
  /// is created on the thread's first sample row and never freed: a thread
  /// that leaves keeps its history. Each piece of state has its own
  /// presence (a non-empty rate window, hasHold, hasCum) because they come
  /// and go independently — a discarded first sample creates none of them,
  /// and resetClosedLoopState drops the window and the hold but keeps the
  /// cumulative progress — and the checkpoint lists each kind separately.
  struct ThreadSlot {
    explicit ThreadSlot(std::size_t rateWindow) : rate{rateWindow} {}
    util::MovingMean rate;  ///< avg-rate window; empty = no window yet
    HeldSample hold;
    bool hasHold = false;
    bool hasCum = false;  ///< cumulative progress recorded at least once
    double cumAccesses = 0.0;
    double cumSeconds = 0.0;
    // --- Scratch (never serialized). ---
    int processId = -1;    ///< process the cached processSlot belongs to
    int processSlot = -1;  ///< index into processes_, -1 = unresolved
    int infoIndex = -1;    ///< index into threads_, -1 = not observed now
  };
  /// Slot index of a thread, or -1 when it has none (or the id is
  /// negative — such rows are never observed).
  [[nodiscard]] int slotIndex(int threadId) const noexcept;
  /// Slot of a (non-negative) thread id, created on first use.
  ThreadSlot& slotFor(int threadId);
  /// Sanitized copy of one raw sample, or nullopt to skip the thread.
  [[nodiscard]] bool sanitize(const sim::ThreadSample& raw, ThreadSlot& slot,
                              double& accessRate, double& llcMissRatio,
                              int& staleAge);

  std::vector<ThreadInfo> threads_;       // live, ascending avg access rate
  std::vector<ThreadSlot> slots_;
  /// Thread id -> index into slots_ (-1 when absent). Dense by thread id:
  /// both backends number threads densely (the simulator's global ids, the
  /// host's denseId), so it grows with the threads this observer has seen,
  /// and it is never sized by a process id.
  std::vector<int> slotOfThread_;
  std::int64_t heldSamples_ = 0;
  std::int64_t discardedSamples_ = 0;
  std::vector<double> coreBwRaw_;         // per-core filtered estimate
  std::vector<double> coreBwEffective_;   // after socket blending
  std::vector<util::MovingMean> coreBwWindow_;  // symmetric variant storage
  std::vector<bool> highBandwidth_;
  double unfairness_ = 0.0;
  WorkloadType type_ = WorkloadType::Balanced;
  int memCount_ = 0;
  int compCount_ = 0;

  // --- Reusable per-quantum scratch (never serialized; pure caches). ---
  /// (processId, stats) pairs, first-encounter order over threads_. The
  /// accumulation order per process is the encounter order, and the
  /// unfairness reduction is a max — order-independent — so the fairness
  /// signal is bit-identical to the historical std::map version.
  std::vector<std::pair<int, util::OnlineStats>> perProcess_;
  /// One entry per process ever seen, found through a thread's cached
  /// processSlot; it records where the process sits in perProcess_ during
  /// the current accumulation pass, so each pass is O(threads).
  struct ProcessSlot {
    int perIndex = -1;         ///< index into perProcess_, valid for `pass`
    std::uint64_t pass = 0;    ///< accumulation pass that set perIndex
  };
  std::vector<ProcessSlot> processes_;
  /// Process id -> index into processes_. Hashed, not dense: the host
  /// backend reports real PIDs. Consulted only when a thread's cached
  /// process slot is unresolved or stale.
  std::unordered_map<int, int> processSlotOf_;
  std::uint64_t accumulatePass_ = 0;
  /// Thread ids in the previous quantum's sorted order. When the live set
  /// is unchanged, threads_ is permuted into this order and repaired with
  /// an adaptive insertion sort instead of a full re-sort; the comparator
  /// (avgAccessRate, threadId) is a strict total order, so every sorting
  /// algorithm produces the one and only sorted sequence — the repair path
  /// is bit-identical to the full sort by construction.
  std::vector<int> prevOrder_;
  std::vector<ThreadInfo> orderScratch_;  ///< permutation staging buffer
  std::vector<double> socketCapScratch_;  ///< updateCoreBw per-socket maxima
  std::vector<int> knownScratch_;         ///< partitionCores ranking buffer
  std::vector<int> domainScratch_;  ///< domainOf when obs.cores is empty
};

}  // namespace dike::core
