#include "sim/memory.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "telemetry/registry.hpp"

namespace dike::sim {

namespace {

/// Bitwise equality of two double vectors (memo keys). Bit-level, not
/// operator==: -0.0 vs 0.0 must miss the memo rather than alias results.
[[nodiscard]] bool sameBits(std::span<const double> a,
                            const std::vector<double>& b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  }
  return true;
}

/// True when `ranking` (left behind by a previous call on a same-length
/// demand vector) still ranks `demands` ascending; each record's demand is
/// refreshed from `demands` on the way. Equal neighbours are accepted only
/// at 0.0: zero demands always rank first and contribute nothing — grant 0,
/// remaining capacity untouched — so any order among them yields
/// bit-identical grants. Nonzero ties are rejected because the water level
/// is recomputed after every grant and the per-rank shares of tied demands
/// can differ in their last bits, making the grant each index receives
/// depend on the permutation; a full sort then reproduces the historical
/// ordering exactly. On false the records are left half-refreshed, and the
/// caller rebuilds them.
[[nodiscard]] bool stillSorted(std::span<const double> demands,
                               std::vector<RankedDemand>& ranking) {
  if (ranking.size() != demands.size()) return false;
  double prev = -1.0;  // demands are validated non-negative
  for (RankedDemand& r : ranking) {
    const double d = demands[r.index];
    if (d < prev || (d == prev && d != 0.0)) return false;
    r.demand = d;
    prev = d;
  }
  return true;
}

}  // namespace

void waterFillInto(std::span<const double> demands, double capacity,
                   std::vector<RankedDemand>& ranking,
                   std::vector<double>& served) {
  served.resize(demands.size());
  if (demands.empty()) return;

  double total = 0.0;
  for (double d : demands) {
    if (d < 0.0) throw std::invalid_argument{"negative memory demand"};
    total += d;
  }
  if (total <= capacity) {
    std::copy(demands.begin(), demands.end(), served.begin());
    return;
  }

  // Water-filling: process demands in ascending order; a demand at or below
  // the running fair share is satisfied in full, the rest split the
  // remaining capacity equally. Demands drift slowly between consecutive
  // ticks, so the previous call's ranking usually still applies and the
  // sort is skipped (an ascending permutation of distinct keys is unique,
  // so the reused order is exactly what the sort would produce).
  //
  // The sort moves (demand, index) records under a demand-only comparator.
  // std::sort's comparisons and moves depend only on the comparator's
  // answers, which are those an index sort comparing demands[a] < demands[b]
  // gets, so tied demands land in the same order as that sort puts them.
  // The order matters: the shares of a tied saturated tail can differ by an
  // ulp, so which index gets which share reaches the output bits. The sort
  // algorithm is part of the model (DESIGN.md §9).
  if (stillSorted(demands, ranking)) {
    DIKE_COUNTER("sim.mem.waterfill_order_reuse");
  } else {
    DIKE_COUNTER("sim.mem.waterfill_sorts");
    ranking.resize(demands.size());
    for (std::size_t i = 0; i < demands.size(); ++i)
      ranking[i] = RankedDemand{demands[i], i};
    std::sort(ranking.begin(), ranking.end(),
              [](const RankedDemand& a, const RankedDemand& b) {
                return a.demand < b.demand;
              });
  }

  // Each rank grants std::min(d, remaining / left), which is d unless the
  // share rounds below d. The ascending prefix skips the division while
  // fl(d * left) < remaining. Proof that the test implies
  // fl(remaining / left) >= d, so the grant is d: round-to-nearest is
  // monotone and fixes representable values, so d * left >= remaining
  // (exact product) would give fl(d * left) >= remaining. The test thus
  // proves d * left < remaining exactly, hence remaining / left > d, and by
  // monotonicity again fl(remaining / left) >= d. No margin for the
  // product's rounding is needed, and none for subnormals: the argument
  // uses no error bound, only monotonicity, which holds across the
  // subnormal range and at overflow (an overflowing product is +inf, never
  // < remaining). left is below 2^53, so converting it is exact. NaN fails
  // the test and takes the division, as does every rank after the first
  // that fails it (the division is always the reference arithmetic).
  double remaining = capacity;
  std::size_t left = demands.size();
  std::size_t rank = 0;
  for (; rank < ranking.size(); ++rank) {
    const RankedDemand& r = ranking[rank];
    if (!(r.demand * static_cast<double>(left) < remaining)) break;
    served[r.index] = r.demand;
    remaining -= r.demand;
    --left;
  }
  for (; rank < ranking.size(); ++rank) {
    const RankedDemand& r = ranking[rank];
    const double share = remaining / static_cast<double>(left);
    const double grant = std::min(r.demand, share);
    served[r.index] = grant;
    remaining -= grant;
    --left;
  }
}

std::vector<double> waterFill(std::span<const double> demands,
                              double capacity) {
  std::vector<double> served;
  std::vector<RankedDemand> ranking;
  waterFillInto(demands, capacity, ranking, served);
  return served;
}

void arbitrateInto(std::span<const MemoryDemand> demands,
                   const MemoryParams& params, int socketCount,
                   double tickSeconds, ArbitrationScratch& scratch,
                   std::vector<double>& served) {
  if (socketCount <= 0) throw std::invalid_argument{"socketCount must be > 0"};
  DIKE_COUNTER("sim.mem.arbitrations");
  const double linkCap = params.socketLinkAccessesPerSec * tickSeconds;
  const double controllerCap = params.controllerAccessesPerSec * tickSeconds;

  for (const MemoryDemand& d : demands) {
    if (d.socket < 0 || d.socket >= socketCount)
      throw std::out_of_range{"demand names an unknown socket"};
  }

  // Stage 1: per-socket link, max-min within each socket. Each socket keeps
  // its own sorted-order hint so waterFillInto can skip the re-sort while
  // that socket's relative demand ranking is stable.
  if (scratch.linkOrder.size() < static_cast<std::size_t>(socketCount))
    scratch.linkOrder.resize(static_cast<std::size_t>(socketCount));
  if (scratch.linkMemo.size() < static_cast<std::size_t>(socketCount))
    scratch.linkMemo.resize(static_cast<std::size_t>(socketCount));
  scratch.afterLink.assign(demands.size(), 0.0);
  for (int s = 0; s < socketCount; ++s) {
    scratch.socketDemands.clear();
    scratch.socketMembers.clear();
    for (std::size_t i = 0; i < demands.size(); ++i) {
      if (demands[i].socket == s) {
        scratch.socketDemands.push_back(demands[i].accesses);
        scratch.socketMembers.push_back(i);
      }
    }
    if (scratch.socketMembers.empty()) continue;
    ArbitrationScratch::StageMemo& memo =
        scratch.linkMemo[static_cast<std::size_t>(s)];
    if (memo.valid && memo.capacity == linkCap &&
        sameBits(scratch.socketDemands, memo.demands)) {
      DIKE_COUNTER("sim.mem.link_memo_hits");
    } else {
      waterFillInto(scratch.socketDemands, linkCap,
                    scratch.linkOrder[static_cast<std::size_t>(s)],
                    memo.granted);
      memo.demands.assign(scratch.socketDemands.begin(),
                          scratch.socketDemands.end());
      memo.capacity = linkCap;
      memo.valid = true;
    }
    for (std::size_t k = 0; k < scratch.socketMembers.size(); ++k)
      scratch.afterLink[scratch.socketMembers[k]] = memo.granted[k];
  }

  // Stage 2: shared controller, max-min across everything that survived.
  // Saturated links often absorb upstream demand drift, so the controller
  // input — and therefore its output — repeats bitwise even when the raw
  // demands did not.
  ArbitrationScratch::StageMemo& cmemo = scratch.controllerMemo;
  if (cmemo.valid && cmemo.capacity == controllerCap &&
      sameBits(scratch.afterLink, cmemo.demands)) {
    DIKE_COUNTER("sim.mem.controller_memo_hits");
    served.assign(cmemo.granted.begin(), cmemo.granted.end());
  } else {
    waterFillInto(scratch.afterLink, controllerCap, scratch.controllerOrder,
                  served);
    cmemo.demands.assign(scratch.afterLink.begin(), scratch.afterLink.end());
    cmemo.granted.assign(served.begin(), served.end());
    cmemo.capacity = controllerCap;
    cmemo.valid = true;
  }
}

std::vector<double> arbitrate(std::span<const MemoryDemand> demands,
                              const MemoryParams& params, int socketCount,
                              double tickSeconds) {
  ArbitrationScratch scratch;
  std::vector<double> served;
  arbitrateInto(demands, params, socketCount, tickSeconds, scratch, served);
  return served;
}

}  // namespace dike::sim
