#include "fault/injector.hpp"

#include <utility>

#include "ckpt/fields.hpp"
#include "telemetry/registry.hpp"

namespace dike::fault {

namespace {

/// Per-category streams are forked in a fixed order from the plan seed, so
/// enabling one fault category never shifts another category's draws.
util::Rng forkAt(std::uint64_t seed, int slot) {
  util::Rng root{seed};
  util::Rng out = root.fork();
  for (int i = 0; i < slot; ++i) out = root.fork();
  return out;
}

void zeroCounters(sim::ThreadSample& t) {
  t.instructions = 0.0;
  t.accesses = 0.0;
  t.accessRate = 0.0;
  t.llcMissRatio = 0.0;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan),
      sampleRng_(forkAt(plan.seed, 0)),
      actuationRng_(forkAt(plan.seed, 1)),
      streamSource_(forkAt(plan.seed, 2)) {}

void FaultInjector::filterSample(sim::QuantumSample& sample, util::Tick now) {
  // Stuck episodes persist past the window (a wedged PMU stays wedged until
  // the episode runs out), but new faults only begin inside the window.
  const bool active = activeAt(now);
  const SampleFaults& f = plan_.samples;
  for (sim::ThreadSample& t : sample.threads) {
    if (t.finished || t.coreId < 0) continue;

    if (const auto it = stuck_.find(t.threadId); it != stuck_.end()) {
      zeroCounters(t);
      ++tally_.stuckSamples;
      DIKE_COUNTER("fault.sample.stuck");
      if (--it->second.quantaLeft <= 0) stuck_.erase(it);
      continue;
    }
    if (!active) continue;

    if (f.dropProbability > 0.0 &&
        sampleRng_.uniform() < f.dropProbability) {
      t.dropped = true;
      zeroCounters(t);
      ++tally_.droppedSamples;
      DIKE_COUNTER("fault.sample.dropped");
      continue;
    }
    if (f.stuckAtZeroProbability > 0.0 &&
        sampleRng_.uniform() < f.stuckAtZeroProbability) {
      stuck_[t.threadId] = StuckEpisode{f.stuckQuanta};
      zeroCounters(t);
      ++tally_.stuckSamples;
      ++tally_.stuckEpisodes;
      DIKE_COUNTER("fault.sample.stuck_episode");
      continue;
    }
    if (f.corruptProbability > 0.0 &&
        sampleRng_.uniform() < f.corruptProbability) {
      const double scale =
          sampleRng_.uniform(f.corruptScaleMin, f.corruptScaleMax);
      t.instructions *= scale;
      t.accesses *= scale;
      t.accessRate *= scale;
      ++tally_.corruptedSamples;
      DIKE_COUNTER("fault.sample.corrupted");
    }
    if (f.saturateMissRatioProbability > 0.0 &&
        sampleRng_.uniform() < f.saturateMissRatioProbability) {
      t.llcMissRatio = 1.0;
      ++tally_.saturatedMissRatios;
      DIKE_COUNTER("fault.sample.miss_ratio_saturated");
    }
  }
}

bool FaultInjector::onSwapAttempt(int /*threadA*/, int /*threadB*/,
                                  util::Tick now) {
  if (!activeAt(now) || plan_.actuation.swapFailProbability <= 0.0)
    return true;
  if (actuationRng_.uniform() < plan_.actuation.swapFailProbability) {
    ++tally_.failedSwaps;
    DIKE_COUNTER("fault.actuation.swap_failed");
    return false;
  }
  return true;
}

bool FaultInjector::onMigrationAttempt(int /*threadId*/, int /*coreId*/,
                                       util::Tick now) {
  if (!activeAt(now) || plan_.actuation.migrationFailProbability <= 0.0)
    return true;
  if (actuationRng_.uniform() < plan_.actuation.migrationFailProbability) {
    ++tally_.failedMigrations;
    DIKE_COUNTER("fault.actuation.migration_failed");
    return false;
  }
  return true;
}

template <class Self, class Field>
void FaultInjector::stateFields(Self& s, Field&& field) {
  field.section("faultInjector", [&] {
    field("sampleRng", s.sampleRng_);
    field("actuationRng", s.actuationRng_);
    field("streamSource", s.streamSource_);
    field.keyed("stuckThreadIds", s.stuck_, [](auto& episode, auto&& column) {
      column("stuckQuantaLeft", episode.quantaLeft);
    });
    kFaultTallyFields(s.tally_, field);
  });
}

void FaultInjector::saveState(ckpt::BinWriter& w) const {
  stateFields(*this, ckpt::FieldWriter{w});
}

void FaultInjector::loadState(ckpt::BinReader& r) {
  FaultInjector fresh = *this;
  stateFields(fresh, ckpt::FieldReader{r});
  *this = std::move(fresh);
}

}  // namespace dike::fault
