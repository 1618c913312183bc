#include "core/observer.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/state_io.hpp"
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
  const sim::QuantumSample& sample = view.sample();
  const std::span<const int> domain = view.clusterCores();
  const int cores = view.coreCount();
  const std::size_t n = static_cast<std::size_t>(cores);
  // The per-core vectors are machine-sized and indexed by global core id.
  // Entries outside the view's domain never change, so they are written
  // only when the shape changes; every quantum then refreshes just the
  // domain (copy-assignment of the thread rows reuses their capacity).
  if (out.coreOccupant.size() != n || out.sample.coreAchievedBw.size() != n ||
      !std::equal(out.cores.begin(), out.cores.end(), domain.begin(),
                  domain.end())) {
    out.cores.assign(domain.begin(), domain.end());
    out.coreOccupant.assign(n, sched::SchedulerView::kForeignCore);
    out.coreSocket.resize(n);
    for (int c = 0; c < cores; ++c)
      out.coreSocket[static_cast<std::size_t>(c)] = view.socketOf(c);
    out.sample.coreAchievedBw.assign(n, 0.0);
  }
  out.sample.periodTicks = sample.periodTicks;
  out.sample.threads = sample.threads;
  view.forEachCore([&](int c) {
    const std::size_t i = static_cast<std::size_t>(c);
    out.coreOccupant[i] = view.coreOccupant(c);
    out.coreSocket[i] = view.socketOf(c);
    out.sample.coreAchievedBw[i] = sample.coreAchievedBw[i];
  });
}

Observer::Observer(ObserverConfig config) : config_(config) {}

void Observer::observe(const Observation& obs) {
  // Per-core estimates are indexed by core id. They are sized by the first
  // observation and grow if a wider one arrives (new cores start
  // unexercised), so no covered core is ever indexed past them.
  const std::size_t cores = obs.coreOccupant.size();
  if (coreBwRaw_.size() < cores) coreBwRaw_.resize(cores, 0.0);
  if (coreBwEffective_.size() < cores) coreBwEffective_.resize(cores, 0.0);
  if (highBandwidth_.size() < cores) highBandwidth_.resize(cores, false);
  if (config_.symmetricMovingMean && coreBwWindow_.size() < cores)
    coreBwWindow_.resize(cores, util::MovingMean{config_.movingMeanWindow});

  const std::vector<int>& domain = domainOf(obs);
  classifyThreads(obs.sample);
  updateCoreBw(obs, domain);
  partitionCores(obs, domain);
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

Observer::ThreadSlot& Observer::slotFor(int threadId) {
  const std::size_t id = static_cast<std::size_t>(threadId);
  if (id >= slotOfThread_.size()) slotOfThread_.resize(id + 1, -1);
  int& index = slotOfThread_[id];
  if (index < 0) {
    index = util::isize(slots_);
    slots_.emplace_back(config_.threadRateWindow);
  }
  return slots_[static_cast<std::size_t>(index)];
}

bool Observer::sanitize(const sim::ThreadSample& raw, ThreadSlot& slot,
                        double& accessRate, double& llcMissRatio,
                        int& staleAge) {
  const bool bad = raw.dropped || !std::isfinite(raw.accessRate) ||
                   raw.accessRate < 0.0 ||
                   raw.accessRate > config_.maxPlausibleRate ||
                   !std::isfinite(raw.llcMissRatio) || raw.llcMissRatio < 0.0;
  if (!bad) {
    accessRate = raw.accessRate;
    // A miss *ratio* cannot exceed 1; clamp rather than reject (saturated
    // counters still carry the "memory-bound" signal).
    llcMissRatio = std::min(raw.llcMissRatio, 1.0);
    staleAge = 0;
    slot.hold = HeldSample{accessRate, llcMissRatio, 0};
    slot.hasHold = true;
    return true;
  }
  if (!config_.sanitizeSamples) {
    // Hygiene off (ablation): dropped samples still cannot be ingested —
    // their fields are zeros, not measurements — but corrupt values pass.
    if (raw.dropped) {
      ++discardedSamples_;
      return false;
    }
    accessRate = raw.accessRate;
    llcMissRatio = raw.llcMissRatio;
    staleAge = 0;
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
  accessRate = slot.hold.accessRate;
  llcMissRatio = slot.hold.llcMissRatio;
  staleAge = slot.hold.age;
  ++heldSamples_;
  DIKE_COUNTER("core.observer.sample_held");
  return true;
}

void Observer::classifyThreads(const sim::QuantumSample& sample) {
  // infoIndex is valid for the latest quantum only: unmark the previous
  // quantum's threads before rebuilding the list.
  for (const ThreadInfo& t : threads_)
    slots_[static_cast<std::size_t>(slotIndex(t.threadId))].infoIndex = -1;
  threads_.clear();
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
    ThreadSlot& slot = slotFor(s.threadId);
    if (!sanitize(s, slot, info.accessRate, info.llcMissRatio,
                  info.staleAge))
      continue;
    slot.rate.add(info.accessRate);
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
    slot.infoIndex = util::isize(threads_);
    threads_.push_back(info);
  }

  // Deficits: starvation relative to sibling threads of the same process.
  // Computed before the sort so the per-process accumulation order (sample
  // order) matches the historical behaviour exactly.
  accumulatePerProcess();
  for (ThreadInfo& t : threads_) {
    const ThreadSlot& slot =
        slots_[static_cast<std::size_t>(slotIndex(t.threadId))];
    const int perIndex =
        processes_[static_cast<std::size_t>(slot.processSlot)].perIndex;
    const double mean =
        perProcess_[static_cast<std::size_t>(perIndex)].second.mean();
    t.deficit = mean > config_.processRateFloor
                    ? 1.0 - t.cumAccessRate / mean
                    : 0.0;
  }

  const auto byRate = [](const ThreadInfo& a, const ThreadInfo& b) {
    if (a.avgAccessRate != b.avgAccessRate)
      return a.avgAccessRate < b.avgAccessRate;
    return a.threadId < b.threadId;
  };

  // Decide between the incremental repair path and a full sort.
  // Membership is unchanged when the previous order has the same length
  // and every id it names is live this quantum — distinct ids on both
  // sides make that a bijection.
  bool sameMembership = prevOrder_.size() == threads_.size();
  if (sameMembership)
    for (int id : prevOrder_) {
      const int k = slotIndex(id);
      if (k < 0 || slots_[static_cast<std::size_t>(k)].infoIndex < 0) {
        sameMembership = false;
        break;
      }
    }

  if (sameMembership) {
    // Rates drift slowly quantum to quantum, so the previous sorted order
    // is near-sorted for the new keys: permute into it and repair with an
    // adaptive insertion sort (O(n + inversions)). The comparator is a
    // strict total order, so this yields the identical sequence a full
    // sort would.
    DIKE_COUNTER("core.observer.sort_repair");
    orderScratch_.clear();
    for (int id : prevOrder_)
      orderScratch_.push_back(threads_[static_cast<std::size_t>(
          slots_[static_cast<std::size_t>(slotIndex(id))].infoIndex)]);
    threads_.swap(orderScratch_);
    for (std::size_t i = 1; i < threads_.size(); ++i) {
      ThreadInfo key = threads_[i];
      std::size_t j = i;
      while (j > 0 && byRate(key, threads_[j - 1])) {
        threads_[j] = threads_[j - 1];
        --j;
      }
      threads_[j] = key;
    }
  } else {
    DIKE_COUNTER("core.observer.sort_full");
    std::sort(threads_.begin(), threads_.end(), byRate);
  }
  recordThreadOrder();
}

void Observer::accumulatePerProcess() {
  // O(threads): each thread's slot caches its process slot, which records
  // the process's perProcess_ index for this pass — no scan over the
  // processes, and the process-id hash is consulted only on a cache miss.
  perProcess_.clear();
  ++accumulatePass_;
  for (const ThreadInfo& t : threads_) {
    ThreadSlot& slot = slotFor(t.threadId);
    if (slot.processSlot < 0 || slot.processId != t.processId) {
      const auto [it, inserted] =
          processSlotOf_.try_emplace(t.processId, util::isize(processes_));
      if (inserted) processes_.emplace_back();
      slot.processId = t.processId;
      slot.processSlot = it->second;
    }
    ProcessSlot& process =
        processes_[static_cast<std::size_t>(slot.processSlot)];
    if (process.pass != accumulatePass_) {
      process.pass = accumulatePass_;
      process.perIndex = util::isize(perProcess_);
      perProcess_.emplace_back(t.processId, util::OnlineStats{});
    }
    perProcess_[static_cast<std::size_t>(process.perIndex)].second.add(
        t.cumAccessRate);
  }
}

void Observer::recordThreadOrder() {
  prevOrder_.clear();
  for (int i = 0; i < util::isize(threads_); ++i) {
    const ThreadInfo& t = threads_[static_cast<std::size_t>(i)];
    prevOrder_.push_back(t.threadId);
    slotFor(t.threadId).infoIndex = i;
  }
}

const ThreadInfo* Observer::findThread(int threadId) const noexcept {
  const int k = slotIndex(threadId);
  if (k < 0) return nullptr;
  const int idx = slots_[static_cast<std::size_t>(k)].infoIndex;
  return idx >= 0 ? &threads_[static_cast<std::size_t>(idx)] : nullptr;
}

void Observer::updateCoreBw(const Observation& obs,
                            const std::vector<int>& cores) {
  // Per-core filter: rise immediately to demonstrated bandwidth, decay
  // slowly when the core hosts an undemanding thread. Only covered cores
  // are visited: a cluster-scoped observation's foreign cores belong to
  // another cluster's observer, so their estimates here stay at zero.
  for (const int core : cores) {
    const std::size_t c = static_cast<std::size_t>(core);
    const double achieved = obs.sample.coreAchievedBw[c];
    if (obs.coreOccupant[c] < 0 && achieved <= 0.0)
      continue;  // idle core: keep the last estimate
    if (config_.symmetricMovingMean) {
      coreBwWindow_[c].add(achieved);
      coreBwRaw_[c] = coreBwWindow_[c].value();
    } else if (achieved >= coreBwRaw_[c]) {
      coreBwRaw_[c] = achieved;
    } else {
      coreBwRaw_[c] = config_.coreBwDecay * coreBwRaw_[c] +
                      (1.0 - config_.coreBwDecay) * achieved;
    }
  }

  // Socket blending: a core can deliver at least `socketShare` of what the
  // best core on its (homogeneous-silicon) socket has demonstrated. A
  // socket may straddle a cluster boundary; only covered cores enter the
  // maxima, so a neighbour cluster's capability never leaks onto cores
  // this observer cannot schedule.
  int socketCount = 0;
  for (const int c : cores)
    socketCount =
        std::max(socketCount, obs.coreSocket[static_cast<std::size_t>(c)] + 1);
  socketCapScratch_.assign(static_cast<std::size_t>(socketCount), 0.0);
  for (const int core : cores) {
    const std::size_t c = static_cast<std::size_t>(core);
    double& cap = socketCapScratch_[static_cast<std::size_t>(obs.coreSocket[c])];
    cap = std::max(cap, coreBwRaw_[c]);
  }
  for (const int core : cores) {
    const std::size_t c = static_cast<std::size_t>(core);
    const double blended =
        config_.socketShare *
        socketCapScratch_[static_cast<std::size_t>(obs.coreSocket[c])];
    coreBwEffective_[c] = std::max(coreBwRaw_[c], blended);
  }
}

void Observer::partitionCores(const Observation& obs,
                              const std::vector<int>& cores) {
  // Rank every covered core with a bandwidth estimate (occupied now, or
  // exercised earlier — a freed fast core keeps its capability); top half
  // is "high bandwidth". Uncovered cores are never ranked and stay false.
  std::vector<int>& known = knownScratch_;
  known.clear();
  known.reserve(cores.size());
  for (const int c : cores) {
    const std::size_t i = static_cast<std::size_t>(c);
    highBandwidth_[i] = false;
    if (obs.coreOccupant[i] >= 0 || coreBwEffective_[i] > 0.0)
      known.push_back(c);
  }

  if (known.empty()) return;
  // Bandwidth, then core id, is a strict total order, so the top half is
  // one set however the selection reaches it: no full sort is needed.
  const std::size_t highCount = (known.size() + 1) / 2;
  std::nth_element(
      known.begin(),
      known.begin() + static_cast<std::ptrdiff_t>(highCount - 1), known.end(),
      [this](int a, int b) {
        const double ea = coreBwEffective_[static_cast<std::size_t>(a)];
        const double eb = coreBwEffective_[static_cast<std::size_t>(b)];
        if (ea != eb) return ea > eb;
        return a < b;
      });
  for (std::size_t i = 0; i < highCount; ++i)
    highBandwidth_[static_cast<std::size_t>(known[i])] = true;
}

void Observer::computeUnfairness() {
  // CV of cumulative access rates across each process's live threads:
  // homogeneous data-parallel threads should accumulate service equally.
  accumulatePerProcess();

  // The signal is the *worst* process: one starving application is an
  // unfair system even when the others are uniform (a mean would dilute it
  // below theta_f).
  double worst = 0.0;
  for (const auto& [pid, stats] : perProcess_) {
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
      if (coreBwRaw_[c] > 0.0) coreBwWindow_[c].add(coreBwRaw_[c]);
    }
  }
  DIKE_COUNTER("core.observer.closed_loop_reset");
}

double Observer::coreBw(int coreId) const {
  return coreBwEffective_.at(static_cast<std::size_t>(coreId));
}

bool Observer::isHighBandwidthCore(int coreId) const {
  return highBandwidth_.at(static_cast<std::size_t>(coreId));
}

void Observer::saveState(ckpt::BinWriter& w) const {
  w.beginSection("observer");
  w.i64("observedQuanta", observedQuanta_);
  w.i64("heldSamples", heldSamples_);
  w.i64("discardedSamples", discardedSamples_);
  w.f64("unfairness", unfairness_);
  w.i64("workloadType", static_cast<std::int64_t>(type_));
  w.i64("memCount", memCount_);
  w.i64("compCount", compCount_);

  w.i64("threadInfoCount", util::isize(threads_));
  for (const ThreadInfo& t : threads_) {
    w.beginSection("info");
    w.i64("threadId", t.threadId);
    w.i64("processId", t.processId);
    w.i64("coreId", t.coreId);
    w.f64("accessRate", t.accessRate);
    w.f64("avgAccessRate", t.avgAccessRate);
    w.f64("cumAccessRate", t.cumAccessRate);
    w.f64("deficit", t.deficit);
    w.f64("llcMissRatio", t.llcMissRatio);
    w.i64("class", static_cast<std::int64_t>(t.cls));
    w.i64("staleAge", t.staleAge);
    w.endSection();
  }

  // Slots in ascending thread-id order, not creation order: the bytes
  // depend only on the state, never on the order threads were first seen.
  std::vector<std::pair<std::int64_t, const ThreadSlot*>> byId;
  for (std::size_t id = 0; id < slotOfThread_.size(); ++id)
    if (slotOfThread_[id] >= 0)
      byId.emplace_back(static_cast<std::int64_t>(id),
                        &slots_[static_cast<std::size_t>(slotOfThread_[id])]);

  w.i64("threadRateCount",
        std::count_if(byId.begin(), byId.end(),
                      [](const auto& e) { return !e.second->rate.empty(); }));
  for (const auto& [id, slot] : byId) {
    if (slot->rate.empty()) continue;
    w.beginSection("rate");
    w.i64("threadId", id);
    ckpt::save(w, "window", slot->rate);
    w.endSection();
  }

  w.i64("holdCount",
        std::count_if(byId.begin(), byId.end(),
                      [](const auto& e) { return e.second->hasHold; }));
  for (const auto& [id, slot] : byId) {
    if (!slot->hasHold) continue;
    w.beginSection("hold");
    w.i64("threadId", id);
    w.f64("accessRate", slot->hold.accessRate);
    w.f64("llcMissRatio", slot->hold.llcMissRatio);
    w.i64("age", slot->hold.age);
    w.endSection();
  }

  {
    std::vector<std::int64_t> cumIds;
    std::vector<double> accesses;
    std::vector<double> seconds;
    for (const auto& [id, slot] : byId) {
      if (!slot->hasCum) continue;
      cumIds.push_back(id);
      accesses.push_back(slot->cumAccesses);
      seconds.push_back(slot->cumSeconds);
    }
    w.vecI64("cumThreadIds", cumIds);
    w.vecF64("cumAccesses", accesses);
    w.vecF64("cumSeconds", seconds);
  }

  w.vecF64("coreBwRaw", coreBwRaw_);
  w.vecF64("coreBwEffective", coreBwEffective_);
  w.i64("coreBwWindowCount", util::isize(coreBwWindow_));
  for (const util::MovingMean& mm : coreBwWindow_)
    ckpt::save(w, "coreBwWindow", mm);
  std::vector<std::int64_t> high(highBandwidth_.size());
  for (std::size_t i = 0; i < highBandwidth_.size(); ++i)
    high[i] = highBandwidth_[i] ? 1 : 0;
  w.vecI64("highBandwidth", high);
  w.endSection();
}

void Observer::loadState(ckpt::BinReader& r) {
  // Thread ids index the slot table: a negative or non-int id in the
  // stream is refused rather than used.
  const auto threadIdOf = [](std::int64_t v) {
    return util::checkedIndex<ckpt::CheckpointError>(
        v, "observer checkpoint: threadId");
  };
  Observer fresh{config_};
  r.beginSection("observer");
  fresh.observedQuanta_ = r.i64("observedQuanta");
  fresh.heldSamples_ = r.i64("heldSamples");
  fresh.discardedSamples_ = r.i64("discardedSamples");
  fresh.unfairness_ = r.f64("unfairness");
  fresh.type_ = static_cast<WorkloadType>(r.i64("workloadType"));
  fresh.memCount_ = static_cast<int>(r.i64("memCount"));
  fresh.compCount_ = static_cast<int>(r.i64("compCount"));

  const std::int64_t infoCount = r.i64("threadInfoCount");
  fresh.threads_.reserve(static_cast<std::size_t>(infoCount));
  for (std::int64_t i = 0; i < infoCount; ++i) {
    r.beginSection("info");
    ThreadInfo t;
    t.threadId = threadIdOf(r.i64("threadId"));
    t.processId = static_cast<int>(r.i64("processId"));
    t.coreId = static_cast<int>(r.i64("coreId"));
    t.accessRate = r.f64("accessRate");
    t.avgAccessRate = r.f64("avgAccessRate");
    t.cumAccessRate = r.f64("cumAccessRate");
    t.deficit = r.f64("deficit");
    t.llcMissRatio = r.f64("llcMissRatio");
    t.cls = static_cast<ThreadClass>(r.i64("class"));
    t.staleAge = static_cast<int>(r.i64("staleAge"));
    r.endSection();
    fresh.threads_.push_back(t);
  }

  const std::int64_t rateCount = r.i64("threadRateCount");
  for (std::int64_t i = 0; i < rateCount; ++i) {
    r.beginSection("rate");
    ThreadSlot& slot = fresh.slotFor(threadIdOf(r.i64("threadId")));
    ckpt::load(r, "window", slot.rate);
    r.endSection();
  }

  const std::int64_t holdCount = r.i64("holdCount");
  for (std::int64_t i = 0; i < holdCount; ++i) {
    r.beginSection("hold");
    ThreadSlot& slot = fresh.slotFor(threadIdOf(r.i64("threadId")));
    slot.hold.accessRate = r.f64("accessRate");
    slot.hold.llcMissRatio = r.f64("llcMissRatio");
    slot.hold.age = static_cast<int>(r.i64("age"));
    slot.hasHold = true;
    r.endSection();
  }

  const std::vector<std::int64_t> cumIds = r.vecI64("cumThreadIds");
  const std::vector<double> cumAccesses = r.vecF64("cumAccesses");
  const std::vector<double> cumSeconds = r.vecF64("cumSeconds");
  if (cumIds.size() != cumAccesses.size() ||
      cumIds.size() != cumSeconds.size())
    throw ckpt::CheckpointError{
        "observer checkpoint: cumulative id/accesses/seconds lists disagree "
        "in length"};
  for (std::size_t i = 0; i < cumIds.size(); ++i) {
    ThreadSlot& slot = fresh.slotFor(threadIdOf(cumIds[i]));
    slot.cumAccesses = cumAccesses[i];
    slot.cumSeconds = cumSeconds[i];
    slot.hasCum = true;
  }

  fresh.coreBwRaw_ = r.vecF64("coreBwRaw");
  fresh.coreBwEffective_ = r.vecF64("coreBwEffective");
  const std::int64_t windowCount = r.i64("coreBwWindowCount");
  fresh.coreBwWindow_.reserve(static_cast<std::size_t>(windowCount));
  for (std::int64_t i = 0; i < windowCount; ++i) {
    util::MovingMean mm{config_.movingMeanWindow};
    ckpt::load(r, "coreBwWindow", mm);
    fresh.coreBwWindow_.push_back(std::move(mm));
  }
  const std::vector<std::int64_t> high = r.vecI64("highBandwidth");
  fresh.highBandwidth_.resize(high.size());
  for (std::size_t i = 0; i < high.size(); ++i)
    fresh.highBandwidth_[i] = high[i] != 0;
  r.endSection();

  *this = std::move(fresh);
  // The order/index caches are never serialized (pure scratch); rebuild
  // them from the restored thread list so findThread and the sort-repair
  // path work from the first post-restore quantum — exactly as they would
  // have in the uninterrupted run.
  recordThreadOrder();
}

}  // namespace dike::core
