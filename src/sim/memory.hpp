// Shared memory system: per-socket links feeding a single memory controller.
//
// The paper's platform has one memory controller shared by both sockets;
// contention for it (and for the on-chip interconnect) is the dominant cause
// of unfairness (Section II). Each stage applies max-min (water-filling)
// arbitration: demands at or below the fair share are served in full and the
// leftover capacity is split equally among the heavier demanders. This
// captures the first-order behaviour of real memory systems — threads with
// few misses are barely affected by bandwidth saturation (short queues),
// while streaming threads squeeze each other — which is exactly the
// asymmetry behind the paper's Figure 1 (compute apps degrade ~1.25x,
// memory apps 2-4.6x).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace dike::sim {

/// Capacities of the two arbitration stages, in LLC-missing accesses per
/// second. Defaults are calibrated so ~3 memory-intensive 8-thread apps
/// saturate the controller (matching the paper's Figure 1 slowdowns).
struct MemoryParams {
  double controllerAccessesPerSec = 3.2e8;
  double socketLinkAccessesPerSec = 2.2e8;
};

/// One thread's demand on the memory system for the current tick.
struct MemoryDemand {
  int socket = 0;
  double accesses = 0.0;  ///< accesses the thread would issue if unthrottled
};

/// One demand and its position in the input: waterFillInto's ranking
/// record, so the fill reads demands in rank order without an indirection.
struct RankedDemand {
  double demand = 0.0;
  std::size_t index = 0;
};

/// Reusable buffers for allocation-free arbitration. The engine calls
/// arbitrate once per simulated tick — millions of times per run — so the
/// intermediate vectors live here instead of being reallocated every call.
/// The per-stage rankings double as sorted-order hints: demands drift
/// slowly tick-to-tick, so the previous tick's ranking usually still sorts
/// the new demands and the O(n log n) re-sort is skipped (see waterFillInto
/// for why reusing a still-sorted permutation is bit-identical).
struct ArbitrationScratch {
  std::vector<double> afterLink;
  std::vector<double> socketDemands;
  std::vector<std::size_t> socketMembers;
  std::vector<std::vector<RankedDemand>> linkOrder;  ///< per-socket hints
  std::vector<RankedDemand> controllerOrder;         ///< stage-2 hint

  /// Memo of one water-filling stage: when the inputs (and capacity) are
  /// bitwise identical to the previous call's, the cached grants are the
  /// grants — water-filling is a pure function of them. Keyed per socket
  /// (and once for the controller stage) so one thread's drifting demand
  /// only re-fills its own socket.
  struct StageMemo {
    std::vector<double> demands;
    std::vector<double> granted;
    double capacity = 0.0;
    bool valid = false;
  };
  std::vector<StageMemo> linkMemo;
  StageMemo controllerMemo;
};

/// Max-min arbitration over one tick.
///
/// Stage 1 water-fills each socket's demands against its link capacity;
/// stage 2 water-fills the surviving demand against the controller capacity.
/// Returns the served accesses per input demand, in the same order.
/// Guarantees: served[i] <= demands[i].accesses, per-socket sums respect the
/// link capacity, the grand total respects the controller capacity, and
/// within a stage any unsatisfied demand receives at least as much as every
/// other unsatisfied demand (max-min fairness) — all within floating-point
/// tolerance.
[[nodiscard]] std::vector<double> arbitrate(std::span<const MemoryDemand> demands,
                                            const MemoryParams& params,
                                            int socketCount,
                                            double tickSeconds);

/// Allocation-free arbitrate: identical arithmetic (bit-for-bit results),
/// writing into `served` and reusing `scratch` across calls.
void arbitrateInto(std::span<const MemoryDemand> demands,
                   const MemoryParams& params, int socketCount,
                   double tickSeconds, ArbitrationScratch& scratch,
                   std::vector<double>& served);

/// Single-stage max-min water-filling: serve each demand up to the common
/// water level that exhausts `capacity` (demands below the level are served
/// in full). Exposed for direct testing.
[[nodiscard]] std::vector<double> waterFill(std::span<const double> demands,
                                            double capacity);

/// Allocation-free waterFill: identical arithmetic (bit-for-bit), reusing
/// `ranking` for the ranking pass and writing into `served`. `ranking` is
/// also an input: when it is a same-length ranking left by an earlier call
/// whose order still sorts the new demands it is reused as-is and the sort
/// is skipped. Callers that want that fast path must pass the same vector
/// for the same demand stream; a vector of another length fails the
/// sortedness check and a full sort runs.
void waterFillInto(std::span<const double> demands, double capacity,
                   std::vector<RankedDemand>& ranking,
                   std::vector<double>& served);

}  // namespace dike::sim
