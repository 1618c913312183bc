// Observer: thread classification and core identification (Section III-A).
//
// Per quantum the Observer reads each thread's memory access rate and LLC
// miss ratio from the counter sample, classifies threads as memory- or
// compute-intensive, maintains the per-core CoreBW bandwidth estimate, and
// partitions cores into higher- and lower-bandwidth halves. It also
// computes the current system fairness signal and the online workload-class
// estimate the Optimizer keys on.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "sched/scheduler.hpp"
#include "util/stats.hpp"

namespace dike::core {

/// One quantum's raw observations, built from a SchedulerView by
/// makeObservationInto — over the simulator or the Linux host backend
/// alike. They cover the contiguous cores [firstCore, firstCore +
/// coreOccupant.size()); the per-core vectors are indexed locally, entry i
/// describing core firstCore + i.
struct Observation {
  /// The quantum's counter sample and the rows this observation reads. Not
  /// owned: makeObservationInto points it at the view's sample (no row is
  /// copied), so it must outlive the observe() call that reads it. Only the
  /// covered cores' coreAchievedBw entries are read.
  sched::SampleRows rows;
  int firstCore = 0;
  std::vector<int> coreOccupant;  ///< thread id per covered core, -1 = free
  std::vector<int> coreSocket;    ///< socket id per covered core
};

/// Build an Observation from a scheduler view, refilling `out` in place so
/// its vectors keep their capacity across quanta. It covers the view's own
/// cores (a cluster-scoped view's range), refreshing their occupants —
/// O(covered cores) per quantum; the socket map is rebuilt only when the
/// view's range differs from the one `out` last held.
void makeObservationInto(const sched::SchedulerView& view, Observation& out);

/// The contiguous machine cores one Observer estimates: [first, first +
/// count) of a machine of machineCores cores. count == 0 leaves the range
/// open: the whole machine, sized by the observations (or the restore).
struct CoreRange {
  int first = 0;
  int count = 0;
  int machineCores = 0;
};

enum class ThreadClass { Compute, Memory };
/// The last enumerator, for the checkpoint's range check.
[[nodiscard]] constexpr ThreadClass lastEnumerator(ThreadClass) noexcept {
  return ThreadClass::Memory;
}

/// Online estimate of the workload mix (Section III-F). This mirrors the
/// evaluation's B/UC/UM taxonomy but is inferred from counters, never from
/// ground truth.
enum class WorkloadType { Balanced, UnbalancedCompute, UnbalancedMemory };
[[nodiscard]] constexpr WorkloadType lastEnumerator(WorkloadType) noexcept {
  return WorkloadType::UnbalancedMemory;
}

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
  /// An Observer estimates the cores of `cores` and nothing else: its
  /// per-core state is sized by the range, not by the machine. With a
  /// fixed range, observations must cover exactly it.
  explicit Observer(ObserverConfig config = {}, CoreRange cores = {});

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

  /// CoreBW: the capability estimate for a core (accesses/second); 0 for
  /// a core outside this observer's range. Throws std::out_of_range for an
  /// id outside the machine.
  [[nodiscard]] double coreBw(int coreId) const;

  /// Core identification: true if the core is in the higher-bandwidth half
  /// of currently occupied cores; false outside this observer's range.
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
  /// restore is bit-exact. Per-core records are indexed by machine core id:
  /// cores outside the range save as zeros and empty windows.
  void saveState(ckpt::BinWriter& w) const;
  /// Restore saveState's records into this observer's range. Refuses, with
  /// a CheckpointError naming the field, a thread id at or above
  /// `threadCount`, per-core records of another machine size than a fixed
  /// range's, and any non-zero (or non-empty) entry outside the range.
  void loadState(ckpt::BinReader& r, int threadCount);

 private:
  /// Check `obs` against a fixed range, or grow an open one to it, and
  /// size the per-core state to the range.
  void coverCores(const Observation& obs);
  /// Local index of a machine core: -1 outside the range or before the
  /// per-core state is sized; std::out_of_range outside the machine.
  [[nodiscard]] int localCore(int coreId) const;
  /// Pass 1 over the sample rows: sanitize, update each thread's slot
  /// (rate window, hold, cumulative progress), classify, and accumulate the
  /// per-process means the deficits divide by — each row's slot resolved
  /// once.
  void ingestRows(const sched::SampleRows& rows);
  /// Sort the ingested rows by (avgAccessRate, threadId) through 16-byte
  /// keys, then gather them into threads_ with their deficits and
  /// accumulate the per-process statistics of the fairness signal in that
  /// order.
  void rankThreads();
  /// CoreBW filter, socket blending and the high/low partition, in two
  /// passes over the covered cores.
  void updateCores(const Observation& obs);
  void computeUnfairness();
  void classifyWorkload();
  /// Point the listed threads' slots at threads_ (restore).
  void indexThreads();
  /// The checkpoint field list, run by saveState and loadState; restored
  /// thread ids must lie below `threadCount`.
  template <class Self, class Field>
  static void stateFields(Self& self, Field&& field, int threadCount);
  /// The per-core records, machine-indexed (part of stateFields).
  template <class Self, class Field>
  static void coreFields(Self& self, Field&& field);

  ObserverConfig config_;
  /// The cores estimated below; the per-core vectors hold range_.count
  /// entries once the first observation (or a restore) sized them, entry i
  /// describing core range_.first + i.
  CoreRange range_;
  /// True when the constructor fixed the range; a restore keeps it.
  bool rangeFixed_ = false;
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
    /// Avg-rate window; its samples are the slot's ring in rateRings_.
    util::WindowedMean rate;
    double cumAccesses = 0.0;
    double cumSeconds = 0.0;
    HeldSample hold;
    bool hasHold = false;
    bool hasCum = false;  ///< cumulative progress recorded at least once
    // --- Scratch (never serialized). ---
    int processSlot = -1;  ///< index into processes_, -1 = unresolved
    /// Index into threads_ (into rows_ during observe); valid only while
    /// `seen` equals the observer's generation_.
    int infoIndex = -1;
    std::uint32_t seen = 0;  ///< generation that last listed the thread
  };
  /// Slot index of a thread, or -1 when it has none (or the id is
  /// negative — such rows are never observed).
  [[nodiscard]] int slotIndex(int threadId) const noexcept;
  /// Slot index of a (non-negative) thread id, created on first use.
  int slotFor(int threadId);
  int addSlot(int threadId);  ///< slotFor's first-use path
  /// A covered core's CoreBW ring in coreBwRings_ (by local index),
  /// allocated on first use.
  [[nodiscard]] std::span<double> coreBwRing(std::size_t core);
  /// A covered core's CoreBW ring, empty while the core was never fed.
  [[nodiscard]] std::span<const double> coreBwRing(
      std::size_t core) const noexcept;
  /// The slot's ring of threadRateWindow samples in rateRings_.
  [[nodiscard]] std::span<double> rateRing(int slot) noexcept;
  [[nodiscard]] std::span<const double> rateRing(int slot) const noexcept;
  /// True when a raw reading is a measurement the Observer ingests as is
  /// (and keeps as the thread's last-known-good hold).
  [[nodiscard]] bool plausible(const sim::ThreadSample& raw) const noexcept;
  /// Sample hygiene for an implausible reading: fill `info`'s rate, miss
  /// ratio and staleness from the hold (or pass the raw values through
  /// with sanitization off); false to skip the thread this quantum.
  [[nodiscard]] bool substitute(const sim::ThreadSample& raw,
                                ThreadSlot& slot, ThreadInfo& info);

  std::vector<ThreadInfo> threads_;       // live, ascending avg access rate
  std::vector<ThreadSlot> slots_;
  /// Every slot's rate ring, back to back: slot k owns the threadRateWindow
  /// doubles from k * threadRateWindow. One array instead of a heap ring
  /// per thread, so the window update stays in the slot's neighbourhood.
  std::vector<double> rateRings_;
  /// Thread id -> index into slots_ (-1 when absent). Dense by thread id:
  /// both backends number threads densely (the simulator's global ids, the
  /// host's denseId), so it grows with the threads this observer has seen,
  /// and it is never sized by a process id.
  std::vector<int> slotOfThread_;
  std::int64_t heldSamples_ = 0;
  std::int64_t discardedSamples_ = 0;
  // Per covered core, by local index.
  std::vector<double> coreBwRaw_;         // per-core filtered estimate
  std::vector<double> coreBwEffective_;   // after socket blending
  /// CoreBW moving means (the symmetric variant): the window bookkeeping,
  /// and where the core's ring sits in coreBwRings_ (-1 until the core is
  /// first fed, so an idle core costs no ring).
  std::vector<util::WindowedMean> coreBwWindow_;
  std::vector<int> coreBwRingOf_;
  std::vector<double> coreBwRings_;
  std::vector<std::uint8_t> highBandwidth_;
  double unfairness_ = 0.0;
  WorkloadType type_ = WorkloadType::Balanced;
  int memCount_ = 0;
  int compCount_ = 0;

  // --- Reusable per-quantum scratch (never serialized; pure caches). ---
  /// Bumped once per observe(); a slot whose `seen` differs is not listed
  /// this quantum, so nothing has to be unmarked between quanta.
  std::uint32_t generation_ = 0;
  /// This quantum's ingested rows in sample order, and each row's thread
  /// and process slots.
  std::vector<ThreadInfo> rows_;
  struct RowSlots {
    int thread;
    int process;
  };
  std::vector<RowSlots> rowSlots_;
  /// Sort key of one row: (avgAccessRate, threadId) is a strict total
  /// order, so every sorting algorithm yields the one sorted sequence.
  struct RankKey {
    double rate;
    int threadId;
    int row;  ///< index into rows_
  };
  std::vector<RankKey> keys_;    ///< sample order, built by ingestRows
  std::vector<RankKey> ranked_;  ///< sorted by rankThreads
  std::vector<int> bucketEnd_;   ///< rankThreads' bucket offsets
  /// Buckets larger than this are sorted by std::sort before the final
  /// insertion pass.
  static constexpr std::size_t kInsertionBucket = 16;
  /// Range of this quantum's avg rates, and whether all are finite.
  double rateLow_ = 0.0;
  double rateHigh_ = 0.0;
  bool ratesFinite_ = true;
  /// One entry per process ever seen, found through a thread's cached
  /// processSlot. Two means per quantum, both bit-identical to a plain
  /// per-process accumulation: the deficits divide by the mean over the
  /// process's threads in sample order, the fairness signal takes the CV
  /// over them in sorted order (Welford updates do not commute bit-exactly,
  /// so each keeps its order).
  struct ProcessSlot {
    int processId = -1;
    std::uint32_t seen = 0;  ///< generation the stats below belong to
    util::OnlineStats bySample;
    util::OnlineStats byRank;
  };
  std::vector<ProcessSlot> processes_;
  /// Process slots listed this quantum, first-encounter order.
  std::vector<int> liveProcesses_;
  /// Process id -> index into processes_. Hashed, not dense: the host
  /// backend reports real PIDs. Consulted only when a thread's cached
  /// process slot is unresolved or names another process.
  std::unordered_map<int, int> processSlotOf_;
  std::vector<double> socketCapScratch_;  ///< updateCores per-socket maxima
  /// Partition ranking buffer: each candidate core (local index) with its
  /// bandwidth.
  struct CoreRank {
    double bw;
    int core;
  };
  std::vector<CoreRank> knownScratch_;
};

}  // namespace dike::core
