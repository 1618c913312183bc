#include "core/observer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/fields.hpp"
#include "telemetry/registry.hpp"
#include "util/types.hpp"

namespace dike::core {

std::string_view toString(WorkloadType type) noexcept {
  switch (type) {
    case WorkloadType::Balanced: return "balanced";
    case WorkloadType::UnbalancedCompute: return "unbalanced-compute";
    case WorkloadType::UnbalancedMemory: return "unbalanced-memory";
  }
  return "?";
}

void makeObservationInto(const sched::SchedulerView& view, Observation& out) {
  const std::span<const int> domain = view.clusterCores();
  const int cores = view.coreCount();
  const std::size_t n = static_cast<std::size_t>(cores);
  out.sample = &view.sample();
  // The per-core vectors are machine-sized and indexed by global core id.
  // Entries outside the view's domain never change, and neither does the
  // socket map, so they are written only when the shape changes; every
  // quantum then refreshes just the domain's occupants.
  if (out.coreOccupant.size() != n ||
      !std::equal(out.cores.begin(), out.cores.end(), domain.begin(),
                  domain.end())) {
    out.cores.assign(domain.begin(), domain.end());
    out.coreOccupant.assign(n, sched::SchedulerView::kForeignCore);
    out.coreSocket.resize(n);
    for (int c = 0; c < cores; ++c)
      out.coreSocket[static_cast<std::size_t>(c)] = view.socketOf(c);
  }
  view.forEachCore([&](int c) {
    out.coreOccupant[static_cast<std::size_t>(c)] = view.coreOccupant(c);
  });
}

Observer::Observer(ObserverConfig config) : config_(config) {
  // The windows' rings live in flat arrays of window-sized runs; an empty
  // window has no slot to hold a sample.
  if (config_.threadRateWindow == 0 ||
      (config_.symmetricMovingMean && config_.movingMeanWindow == 0))
    throw std::invalid_argument{"MovingMean window must be > 0"};
}

void Observer::observe(const Observation& obs) {
  // Per-core estimates are indexed by core id. They are sized by the first
  // observation and grow if a wider one arrives (new cores start
  // unexercised), so no covered core is ever indexed past them.
  const std::size_t cores = obs.coreOccupant.size();
  if (coreBwRaw_.size() < cores) coreBwRaw_.resize(cores, 0.0);
  if (coreBwEffective_.size() < cores) coreBwEffective_.resize(cores, 0.0);
  if (highBandwidth_.size() < cores) highBandwidth_.resize(cores, 0);
  if (config_.symmetricMovingMean && coreBwWindow_.size() < cores) {
    coreBwWindow_.resize(cores);
    coreBwRingOf_.resize(cores, -1);
  }

  // A new generation lists no thread yet. On the (once per 2^32 quanta)
  // wrap, clear every stamp so no slot reads as listed by accident.
  if (++generation_ == 0) {
    for (ThreadSlot& slot : slots_) slot.seen = 0;
    for (ProcessSlot& process : processes_) process.seen = 0;
    generation_ = 1;
  }
  const std::vector<int>& domain = domainOf(obs);
  ingestRows(*obs.sample);
  rankThreads();
  updateCores(obs, domain);
  computeUnfairness();
  classifyWorkload();
  ++observedQuanta_;
}

const std::vector<int>& Observer::domainOf(const Observation& obs) {
  if (!obs.cores.empty()) return obs.cores;
  domainScratch_.clear();
  for (int c = 0; c < util::isize(obs.coreOccupant); ++c)
    if (obs.coreOccupant[static_cast<std::size_t>(c)] >
        sched::SchedulerView::kForeignCore)
      domainScratch_.push_back(c);
  return domainScratch_;
}

int Observer::slotIndex(int threadId) const noexcept {
  if (threadId < 0 || threadId >= util::isize(slotOfThread_)) return -1;
  return slotOfThread_[static_cast<std::size_t>(threadId)];
}

int Observer::slotFor(int threadId) {
  const std::size_t id = static_cast<std::size_t>(threadId);
  if (id < slotOfThread_.size() && slotOfThread_[id] >= 0)
    return slotOfThread_[id];
  return addSlot(threadId);
}

int Observer::addSlot(int threadId) {
  const std::size_t id = static_cast<std::size_t>(threadId);
  if (id >= slotOfThread_.size()) slotOfThread_.resize(id + 1, -1);
  const int index = util::isize(slots_);
  slotOfThread_[id] = index;
  slots_.emplace_back();
  rateRings_.resize(rateRings_.size() + config_.threadRateWindow, 0.0);
  return index;
}

std::span<double> Observer::rateRing(int slot) noexcept {
  return std::span<double>{rateRings_}.subspan(
      static_cast<std::size_t>(slot) * config_.threadRateWindow,
      config_.threadRateWindow);
}

std::span<const double> Observer::rateRing(int slot) const noexcept {
  return std::span<const double>{rateRings_}.subspan(
      static_cast<std::size_t>(slot) * config_.threadRateWindow,
      config_.threadRateWindow);
}

bool Observer::plausible(const sim::ThreadSample& raw) const noexcept {
  const bool bad = raw.dropped || !std::isfinite(raw.accessRate) ||
                   raw.accessRate < 0.0 ||
                   raw.accessRate > config_.maxPlausibleRate ||
                   !std::isfinite(raw.llcMissRatio) || raw.llcMissRatio < 0.0;
  return !bad;
}

bool Observer::substitute(const sim::ThreadSample& raw, ThreadSlot& slot,
                          ThreadInfo& info) {
  if (!config_.sanitizeSamples) {
    // Hygiene off (ablation): dropped samples still cannot be ingested —
    // their fields are zeros, not measurements — but corrupt values pass.
    if (raw.dropped) {
      ++discardedSamples_;
      return false;
    }
    info.accessRate = raw.accessRate;
    info.llcMissRatio = raw.llcMissRatio;
    return true;
  }
  if (!slot.hasHold || slot.hold.age >= config_.maxSampleHoldQuanta) {
    // Nothing trustworthy to hold: treat the thread as unobserved this
    // quantum instead of feeding garbage into the moving means.
    ++discardedSamples_;
    DIKE_COUNTER("core.observer.sample_discarded");
    return false;
  }
  ++slot.hold.age;
  info.accessRate = slot.hold.accessRate;
  info.llcMissRatio = slot.hold.llcMissRatio;
  info.staleAge = slot.hold.age;
  ++heldSamples_;
  DIKE_COUNTER("core.observer.sample_held");
  return true;
}

void Observer::ingestRows(const sim::QuantumSample& sample) {
  rows_.clear();
  rowSlots_.clear();
  keys_.clear();
  liveProcesses_.clear();
  rateLow_ = std::numeric_limits<double>::infinity();
  rateHigh_ = -std::numeric_limits<double>::infinity();
  ratesFinite_ = true;
  memCount_ = 0;
  compCount_ = 0;
  // Guard zero-length quanta (adaptive policies can in principle sample
  // back-to-back): no time passed, so rates are undefined — skip the
  // cumulative-rate accrual rather than divide by zero.
  const double periodSec =
      sample.periodTicks > 0
          ? static_cast<double>(sample.periodTicks) * util::kTickSeconds
          : 0.0;
  for (const sim::ThreadSample& s : sample.threads) {
    // Rows without a core (finished) or without a valid id are unobserved.
    if (s.finished || s.coreId < 0 || s.threadId < 0) continue;
    ThreadInfo info;
    info.threadId = s.threadId;
    info.processId = s.processId;
    info.coreId = s.coreId;
    const int k = slotFor(s.threadId);
    ThreadSlot& slot = slots_[static_cast<std::size_t>(k)];
    if (plausible(s)) {
      info.accessRate = s.accessRate;
      // A miss *ratio* cannot exceed 1; clamp rather than reject (saturated
      // counters still carry the "memory-bound" signal).
      info.llcMissRatio = std::min(s.llcMissRatio, 1.0);
      slot.hold = HeldSample{info.accessRate, info.llcMissRatio, 0};
      slot.hasHold = true;
    } else if (!substitute(s, slot, info)) {
      continue;
    }
    slot.rate.add(rateRing(k), info.accessRate);
    info.avgAccessRate = slot.rate.value();
    slot.cumAccesses += info.accessRate * periodSec;
    slot.cumSeconds += periodSec;
    slot.hasCum = true;
    info.cumAccessRate =
        slot.cumSeconds > 0.0 ? slot.cumAccesses / slot.cumSeconds : 0.0;
    info.cls = info.llcMissRatio > config_.llcMissThreshold
                   ? ThreadClass::Memory
                   : ThreadClass::Compute;
    (info.cls == ThreadClass::Memory ? memCount_ : compCount_) += 1;

    // The process's sample-order mean, which the deficits divide by. The
    // slot caches its process slot; the process-id hash is consulted only
    // when that cache is unresolved or names another process.
    if (slot.processSlot < 0 ||
        processes_[static_cast<std::size_t>(slot.processSlot)].processId !=
            s.processId) {
      const auto [it, inserted] =
          processSlotOf_.try_emplace(s.processId, util::isize(processes_));
      if (inserted) {
        processes_.emplace_back();
        processes_.back().processId = s.processId;
      }
      slot.processSlot = it->second;
    }
    ProcessSlot& process =
        processes_[static_cast<std::size_t>(slot.processSlot)];
    if (process.seen != generation_) {
      process.seen = generation_;
      process.bySample.reset();
      process.byRank.reset();
      liveProcesses_.push_back(slot.processSlot);
    }
    process.bySample.add(info.cumAccessRate);

    slot.seen = generation_;
    slot.infoIndex = util::isize(rows_);
    const double rate = info.avgAccessRate;
    keys_.push_back(RankKey{rate, info.threadId, util::isize(rows_)});
    rateLow_ = std::min(rateLow_, rate);
    rateHigh_ = std::max(rateHigh_, rate);
    ratesFinite_ = ratesFinite_ && std::isfinite(rate);
    rows_.push_back(info);
    rowSlots_.push_back(RowSlots{k, slot.processSlot});
  }
}

void Observer::rankThreads() {
  const std::size_t n = keys_.size();
  // Interpolation bucket sort. The rates of one cluster's threads sit in a
  // narrow band that reshuffles every quantum (near-equal tenants), so the
  // previous order is no head start; instead each key drops into one of n
  // buckets by where its rate lies between the minimum and maximum. The
  // bucket index is monotone in the rate (subtraction, scaling and
  // truncation all round monotonically) and equal rates share a bucket,
  // so keys in different buckets are already in order and sorting within
  // each bucket by the exact comparator finishes the job: the result is
  // the one sequence the strict total order (avgAccessRate, threadId)
  // admits. Buckets hold about one key each here; a crowded bucket (a
  // skewed distribution) is sorted by std::sort first, and non-finite
  // rates (a corrupt feed with sanitization off) put every key in one.
  const auto byRate = [](const RankKey& a, const RankKey& b) {
    if (a.rate != b.rate) return a.rate < b.rate;
    return a.threadId < b.threadId;
  };
  const double span = rateHigh_ - rateLow_;
  const double scale =
      ratesFinite_ && span > 0.0 ? static_cast<double>(n - 1) / span : 0.0;
  const bool spread = std::isfinite(scale) && scale > 0.0;
  const auto bucketOf = [&](double rate) -> std::size_t {
    if (!spread) return 0;
    // In [0, n - 1] up to rounding; clamp the top.
    const auto b = static_cast<std::int64_t>((rate - rateLow_) * scale);
    return std::min(static_cast<std::size_t>(b), n - 1);
  };
  // bucketEnd_[b + 1] counts bucket b, then becomes its end offset.
  bucketEnd_.assign(n + 1, 0);
  for (const RankKey& key : keys_) ++bucketEnd_[bucketOf(key.rate) + 1];
  int largest = 0;
  for (std::size_t b = 1; b <= n; ++b) {
    largest = std::max(largest, bucketEnd_[b]);
    bucketEnd_[b] += bucketEnd_[b - 1];
  }
  ranked_.resize(n);
  for (const RankKey& key : keys_)
    ranked_[static_cast<std::size_t>(bucketEnd_[bucketOf(key.rate)]++)] = key;
  if (static_cast<std::size_t>(largest) > kInsertionBucket) {
    std::size_t begin = 0;
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t end = static_cast<std::size_t>(bucketEnd_[b]);
      if (end - begin > kInsertionBucket)
        std::sort(ranked_.begin() + static_cast<std::ptrdiff_t>(begin),
                  ranked_.begin() + static_cast<std::ptrdiff_t>(end), byRate);
      begin = end;
    }
  }
  // Every inversion left lies inside one small bucket: one insertion pass
  // over the whole sequence finishes them.
  for (std::size_t i = 1; i < n; ++i) {
    const RankKey key = ranked_[i];
    std::size_t j = i;
    for (; j > 0 && byRate(key, ranked_[j - 1]); --j)
      ranked_[j] = ranked_[j - 1];
    ranked_[j] = key;
  }

  // Gather: each row moves once, into its rank. The deficit divides by the
  // process's sample-order mean (complete after ingestRows); the fairness
  // signal's statistics accumulate here, in rank order.
  threads_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = static_cast<std::size_t>(ranked_[i].row);
    const RowSlots slots = rowSlots_[row];
    ProcessSlot& process = processes_[static_cast<std::size_t>(slots.process)];
    ThreadInfo& t = threads_[i];
    t = rows_[row];
    const double mean = process.bySample.mean();
    t.deficit = mean > config_.processRateFloor
                    ? 1.0 - t.cumAccessRate / mean
                    : 0.0;
    process.byRank.add(t.cumAccessRate);
    slots_[static_cast<std::size_t>(slots.thread)].infoIndex =
        static_cast<int>(i);
  }
}

void Observer::indexThreads() {
  for (int i = 0; i < util::isize(threads_); ++i) {
    ThreadSlot& slot = slots_[static_cast<std::size_t>(
        slotFor(threads_[static_cast<std::size_t>(i)].threadId))];
    slot.infoIndex = i;
    slot.seen = generation_;
  }
}

const ThreadInfo* Observer::findThread(int threadId) const noexcept {
  const int k = slotIndex(threadId);
  if (k < 0) return nullptr;
  const ThreadSlot& slot = slots_[static_cast<std::size_t>(k)];
  return slot.seen == generation_
             ? &threads_[static_cast<std::size_t>(slot.infoIndex)]
             : nullptr;
}

void Observer::updateCores(const Observation& obs,
                           const std::vector<int>& cores) {
  const std::vector<double>& achievedBw = obs.sample->coreAchievedBw;
  // Pass 1. Per-core filter: rise immediately to demonstrated bandwidth,
  // decay slowly when the core hosts an undemanding thread. Only covered
  // cores are visited: a cluster-scoped observation's foreign cores belong
  // to another cluster's observer, so their estimates here stay at zero.
  //
  // Socket blending's maxima accumulate in the same pass: a core can
  // deliver at least `socketShare` of what the best core on its
  // (homogeneous-silicon) socket has demonstrated. A socket may straddle a
  // cluster boundary; only covered cores enter the maxima, so a neighbour
  // cluster's capability never leaks onto cores this observer cannot
  // schedule.
  std::vector<double>& socketCap = socketCapScratch_;
  std::fill(socketCap.begin(), socketCap.end(), 0.0);
  for (const int core : cores) {
    const std::size_t c = static_cast<std::size_t>(core);
    const double achieved = achievedBw[c];
    // An idle core keeps its last estimate.
    if (obs.coreOccupant[c] >= 0 || achieved > 0.0) {
      if (config_.symmetricMovingMean) {
        coreBwWindow_[c].add(coreBwRing(c), achieved);
        coreBwRaw_[c] = coreBwWindow_[c].value();
      } else if (achieved >= coreBwRaw_[c]) {
        coreBwRaw_[c] = achieved;
      } else {
        coreBwRaw_[c] = config_.coreBwDecay * coreBwRaw_[c] +
                        (1.0 - config_.coreBwDecay) * achieved;
      }
    }
    const std::size_t socket = static_cast<std::size_t>(obs.coreSocket[c]);
    if (socket >= socketCap.size()) socketCap.resize(socket + 1, 0.0);
    socketCap[socket] = std::max(socketCap[socket], coreBwRaw_[c]);
  }

  // Pass 2: blend, then rank every covered core with a bandwidth estimate
  // (occupied now, or exercised earlier — a freed fast core keeps its
  // capability); the top half is "high bandwidth". Uncovered cores are
  // never ranked and stay false.
  std::vector<CoreRank>& known = knownScratch_;
  known.clear();
  for (const int core : cores) {
    const std::size_t c = static_cast<std::size_t>(core);
    const double blended =
        config_.socketShare *
        socketCap[static_cast<std::size_t>(obs.coreSocket[c])];
    coreBwEffective_[c] = std::max(coreBwRaw_[c], blended);
    highBandwidth_[c] = 0;
    if (obs.coreOccupant[c] >= 0 || coreBwEffective_[c] > 0.0)
      known.push_back(CoreRank{coreBwEffective_[c], core});
  }

  if (known.empty()) return;
  // Bandwidth, then core id, is a strict total order, so the top half is
  // one set however the selection reaches it: no full sort is needed.
  const std::size_t highCount = (known.size() + 1) / 2;
  std::nth_element(
      known.begin(),
      known.begin() + static_cast<std::ptrdiff_t>(highCount - 1), known.end(),
      [](const CoreRank& a, const CoreRank& b) {
        if (a.bw != b.bw) return a.bw > b.bw;
        return a.core < b.core;
      });
  for (std::size_t i = 0; i < highCount; ++i)
    highBandwidth_[static_cast<std::size_t>(known[i].core)] = 1;
}

std::span<double> Observer::coreBwRing(std::size_t core) {
  int& ring = coreBwRingOf_[core];
  if (ring < 0) {
    ring = static_cast<int>(coreBwRings_.size() / config_.movingMeanWindow);
    coreBwRings_.resize(coreBwRings_.size() + config_.movingMeanWindow, 0.0);
  }
  return std::span<double>{coreBwRings_}.subspan(
      static_cast<std::size_t>(ring) * config_.movingMeanWindow,
      config_.movingMeanWindow);
}

std::span<const double> Observer::coreBwRing(std::size_t core) const noexcept {
  const int ring = coreBwRingOf_[core];
  if (ring < 0) return {};
  return std::span<const double>{coreBwRings_}.subspan(
      static_cast<std::size_t>(ring) * config_.movingMeanWindow,
      config_.movingMeanWindow);
}

void Observer::computeUnfairness() {
  // CV of cumulative access rates across each process's live threads:
  // homogeneous data-parallel threads should accumulate service equally.
  // The signal is the *worst* process: one starving application is an
  // unfair system even when the others are uniform (a mean would dilute it
  // below theta_f).
  double worst = 0.0;
  for (const int p : liveProcesses_) {
    const util::OnlineStats& stats =
        processes_[static_cast<std::size_t>(p)].byRank;
    if (stats.count() < 2) continue;
    if (stats.mean() < config_.processRateFloor) continue;  // noise-dominated
    worst = std::max(worst, stats.coefficientOfVariation());
  }
  unfairness_ = worst;
}

void Observer::classifyWorkload() {
  const int total = memCount_ + compCount_;
  if (total == 0) {
    type_ = WorkloadType::Balanced;
    return;
  }
  const double tolerance = config_.balanceTolerance * total;
  const int diff = memCount_ - compCount_;
  if (std::abs(diff) <= tolerance)
    type_ = WorkloadType::Balanced;
  else
    type_ = diff < 0 ? WorkloadType::UnbalancedCompute
                     : WorkloadType::UnbalancedMemory;
}

void Observer::resetClosedLoopState() {
  for (ThreadSlot& slot : slots_) {
    slot.rate.reset();
    slot.hasHold = false;
  }
  if (config_.symmetricMovingMean && !coreBwWindow_.empty()) {
    // Restart each window from the current effective estimate: the filter
    // forgets poisoned history without zeroing the capability map.
    for (std::size_t c = 0; c < coreBwWindow_.size(); ++c) {
      coreBwWindow_[c].reset();
      if (coreBwRaw_[c] > 0.0)
        coreBwWindow_[c].add(coreBwRing(c), coreBwRaw_[c]);
    }
  }
  DIKE_COUNTER("core.observer.closed_loop_reset");
}

double Observer::coreBw(int coreId) const {
  return coreBwEffective_.at(static_cast<std::size_t>(coreId));
}

bool Observer::isHighBandwidthCore(int coreId) const {
  return highBandwidth_.at(static_cast<std::size_t>(coreId)) != 0;
}

namespace {

constexpr auto kThreadInfoFields = [](auto& t, auto&& field) {
  field.index("threadId", t.threadId);
  field("processId", t.processId);
  field("coreId", t.coreId);
  field("accessRate", t.accessRate);
  field("avgAccessRate", t.avgAccessRate);
  field("cumAccessRate", t.cumAccessRate);
  field("deficit", t.deficit);
  field("llcMissRatio", t.llcMissRatio);
  field("class", t.cls);
  field("staleAge", t.staleAge);
};

}  // namespace

template <class Self, class Field>
void Observer::stateFields(Self& s, Field&& field) {
  // Slots in ascending thread-id order, not creation order: the bytes
  // depend only on the state, never on the order threads were first seen.
  const auto slots = [&s](auto has, auto mark) {
    return ckpt::slotTable(
        s.slots_, s.slotOfThread_, [&s](auto id) { return s.slotFor(id); },
        has, mark);
  };
  field.section("observer", [&] {
    field("observedQuanta", s.observedQuanta_);
    field("heldSamples", s.heldSamples_);
    field("discardedSamples", s.discardedSamples_);
    field("unfairness", s.unfairness_);
    field("workloadType", s.type_);
    field("memCount", s.memCount_);
    field("compCount", s.compCount_);
    field.records("threadInfoCount", "info", s.threads_, kThreadInfoFields);

    field.keyedRecords(
        "threadRateCount", "rate", "threadId",
        slots([](const ThreadSlot& t) { return !t.rate.empty(); },
              [](auto&) {}),
        [&s](int id, auto& slot, auto&& f) {
          const int k = s.slotIndex(id);
          f.window("window", s.config_.threadRateWindow, slot.rate,
                   [&s, k] { return s.rateRing(k); });
        });
    field.keyedRecords(
        "holdCount", "hold", "threadId",
        slots([](const ThreadSlot& t) { return t.hasHold; },
              [](auto& t) { t.hasHold = true; }),
        [](int, auto& slot, auto&& f) {
          f("accessRate", slot.hold.accessRate);
          f("llcMissRatio", slot.hold.llcMissRatio);
          f("age", slot.hold.age);
        });
    field.keyed("cumThreadIds",
                slots([](const ThreadSlot& t) { return t.hasCum; },
                      [](auto& t) { t.hasCum = true; }),
                [](auto& slot, auto&& column) {
                  column("cumAccesses", slot.cumAccesses);
                  column("cumSeconds", slot.cumSeconds);
                });

    field("coreBwRaw", s.coreBwRaw_);
    field("coreBwEffective", s.coreBwEffective_);
    // One window record per core; a never-fed core has no ring and saves
    // an empty window, and restores without allocating one.
    const std::size_t windows =
        field.count("coreBwWindowCount", s.coreBwWindow_.size());
    for (std::size_t c = 0; c < windows; ++c) {
      if constexpr (ckpt::kLoading<Field>) {
        s.coreBwWindow_.emplace_back();
        s.coreBwRingOf_.push_back(-1);
      }
      field.window("coreBwWindow", s.config_.movingMeanWindow,
                   s.coreBwWindow_[c], [&s, c] { return s.coreBwRing(c); });
    }
    field("highBandwidth", s.highBandwidth_);
    // The per-core estimates are indexed by the same core ids (and
    // resetClosedLoopState reads coreBwRaw_ for every window).
    const std::size_t cores = s.coreBwRaw_.size();
    field.require(s.coreBwEffective_.size() == cores, "coreBwEffective",
                  "disagrees in length with coreBwRaw");
    field.require(windows == cores ||
                      (windows == 0 && !s.config_.symmetricMovingMean),
                  "coreBwWindowCount", "disagrees with coreBwRaw's length");
    field.require(s.highBandwidth_.size() == cores, "highBandwidth",
                  "disagrees in length with coreBwRaw");
  });
}

void Observer::saveState(ckpt::BinWriter& w) const {
  stateFields(*this, ckpt::FieldWriter{w});
}

void Observer::loadState(ckpt::BinReader& r) {
  Observer fresh{config_};
  stateFields(fresh, ckpt::FieldReader{r});
  *this = std::move(fresh);
  // The order/index caches are never serialized (pure scratch); rebuild
  // them from the restored thread list so findThread and the sort-repair
  // path work from the first post-restore quantum — exactly as they would
  // have in the uninterrupted run.
  generation_ = 1;
  indexThreads();
}

}  // namespace dike::core
