#include "fault/fault_policy.hpp"

#include <utility>
#include <vector>

#include "ckpt/fields.hpp"
#include "telemetry/registry.hpp"

namespace dike::fault {

FaultInjectionPolicy::FaultInjectionPolicy(sim::QuantumPolicy& inner,
                                           FaultInjector& injector)
    : inner_(&inner),
      injector_(&injector),
      coreRng_(injector.forkStream()) {}

void FaultInjectionPolicy::onQuantum(sim::Machine& machine) {
  const bool active = injector_->activeAt(machine.now());
  if (active != lastActive_) {
    lastActive_ = active;
    if (activeListener_) activeListener_(active);
  }
  applyCoreFaults(machine);
  inner_->onQuantum(machine);
}

void FaultInjectionPolicy::applyCoreFaults(sim::Machine& machine) {
  const CoreFaults& f = injector_->plan().cores;
  if (f.freqDipProbability <= 0.0 && dips_.empty()) return;

  const sim::MachineTopology& topo = machine.topology();
  // First vcore of each physical core, for reading the current frequency.
  std::vector<int> firstVcore(
      static_cast<std::size_t>(topo.physicalCoreCount()), -1);
  for (const sim::CoreDesc& c : topo.cores()) {
    auto& slot = firstVcore[static_cast<std::size_t>(c.physicalCore)];
    if (slot < 0) slot = c.id;
  }

  const bool active = injector_->activeAt(machine.now());
  // Fixed physical-core order keeps both the RNG draw sequence and the
  // expiry order deterministic (the map is only ever probed, never walked).
  for (int p = 0; p < topo.physicalCoreCount(); ++p) {
    if (const auto it = dips_.find(p); it != dips_.end()) {
      if (--it->second.quantaLeft <= 0) {
        machine.setPhysicalCoreFrequency(p, it->second.savedGhz);
        dips_.erase(it);
      }
      continue;  // a dipped core cannot dip again until it recovers
    }
    if (!active || f.freqDipProbability <= 0.0) continue;
    if (coreRng_.uniform() >= f.freqDipProbability) continue;
    const double current =
        machine.coreFrequencyGhz(firstVcore[static_cast<std::size_t>(p)]);
    dips_[p] = Dip{current, f.dipQuanta};
    machine.setPhysicalCoreFrequency(p, current * f.freqDipFactor);
    ++freqDips_;
    DIKE_COUNTER("fault.core.freq_dip");
  }
}

template <class Self, class Field>
void FaultInjectionPolicy::stateFields(Self& s, Field&& field) {
  field.section("faultPolicy", [&] {
    field("coreRng", s.coreRng_);
    field.keyed("dipCores", s.dips_, [](auto& dip, auto&& column) {
      column("dipSavedGhz", dip.savedGhz);
      column("dipQuantaLeft", dip.quantaLeft);
    });
    field("freqDips", s.freqDips_);
    field("lastActive", s.lastActive_);
  });
}

void FaultInjectionPolicy::saveState(ckpt::BinWriter& w) const {
  stateFields(*this, ckpt::FieldWriter{w});
}

void FaultInjectionPolicy::loadState(ckpt::BinReader& r) {
  FaultInjectionPolicy fresh = *this;
  stateFields(fresh, ckpt::FieldReader{r});
  *this = std::move(fresh);
}

}  // namespace dike::fault
