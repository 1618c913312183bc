// Test helper: construct synthetic core::Observation values without a
// simulator, so Observer/Selector/Predictor behaviour can be pinned exactly.
#pragma once

#include <vector>

#include "core/observer.hpp"

namespace dike::core::testing {

/// Builds Observations for a machine with `coreCount` cores split evenly
/// over `socketCount` sockets (socket-major, like MachineTopology).
class ObservationBuilder {
 public:
  ObservationBuilder(int coreCount, int socketCount, util::Tick periodTicks = 500)
      : coreCount_(coreCount), socketCount_(socketCount) {
    sample_.periodTicks = periodTicks;
    sample_.coreAchievedBw.assign(static_cast<std::size_t>(coreCount), 0.0);
    obs_.coreOccupant.assign(static_cast<std::size_t>(coreCount), -1);
    const int perSocket = coreCount / socketCount;
    for (int c = 0; c < coreCount; ++c)
      obs_.coreSocket.push_back(std::min(c / perSocket, socketCount - 1));
  }

  /// Add a live thread on `core` with the given quantum counters. The
  /// core's achieved bandwidth is set to the thread's access rate unless
  /// overridden later via coreBw().
  ObservationBuilder& thread(int threadId, int processId, int core,
                             double accessRate, double llcMissRatio) {
    sim::ThreadSample s;
    s.threadId = threadId;
    s.processId = processId;
    s.coreId = core;
    s.accessRate = accessRate;
    s.llcMissRatio = llcMissRatio;
    const double periodSec =
        static_cast<double>(sample_.periodTicks) * util::kTickSeconds;
    s.accesses = accessRate * periodSec;
    s.instructions = s.accesses * 50;  // arbitrary plausible ratio
    sample_.threads.push_back(s);
    obs_.coreOccupant[static_cast<std::size_t>(core)] = threadId;
    sample_.coreAchievedBw[static_cast<std::size_t>(core)] = accessRate;
    return *this;
  }

  /// Add a finished thread (must be ignored by the observer).
  ObservationBuilder& finishedThread(int threadId, int processId) {
    sim::ThreadSample s;
    s.threadId = threadId;
    s.processId = processId;
    s.coreId = -1;
    s.finished = true;
    sample_.threads.push_back(s);
    return *this;
  }

  /// Override a core's achieved bandwidth.
  ObservationBuilder& coreBw(int core, double bw) {
    sample_.coreAchievedBw[static_cast<std::size_t>(core)] = bw;
    return *this;
  }

  /// The i-th sample row added so far, for tests that corrupt a reading.
  sim::ThreadSample& row(std::size_t i) { return sample_.threads.at(i); }

  /// The observation, pointing at this builder's sample (valid while the
  /// builder lives and is not moved).
  [[nodiscard]] const Observation& get() noexcept {
    obs_.rows = sample_;
    return obs_;
  }

 private:
  int coreCount_;
  int socketCount_;
  sim::QuantumSample sample_;
  Observation obs_;
};

}  // namespace dike::core::testing
