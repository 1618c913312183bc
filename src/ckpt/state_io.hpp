// Archive adapters for the util-layer stateful types (RNG streams and
// statistics accumulators). These capture *exact* internal state — raw
// xoshiro words, the Box-Muller spare, Welford accumulators, moving-window
// running sums — because all of it is path dependent: re-deriving any of it
// from observable values would break bit-exact resume.
#pragma once

#include "ckpt/archive.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dike::ckpt {

inline void save(BinWriter& w, std::string_view name, const util::Rng& rng) {
  const util::Rng::State s = rng.state();
  w.beginSection(name);
  w.u64("s0", s.s[0]);
  w.u64("s1", s.s[1]);
  w.u64("s2", s.s[2]);
  w.u64("s3", s.s[3]);
  w.f64("spare", s.spare);
  w.boolean("haveSpare", s.haveSpare);
  w.endSection();
}

inline void load(BinReader& r, std::string_view name, util::Rng& rng) {
  util::Rng::State s;
  r.beginSection(name);
  s.s[0] = r.u64("s0");
  s.s[1] = r.u64("s1");
  s.s[2] = r.u64("s2");
  s.s[3] = r.u64("s3");
  s.spare = r.f64("spare");
  s.haveSpare = r.boolean("haveSpare");
  r.endSection();
  rng.setState(s);
}

inline void save(BinWriter& w, std::string_view name,
                 const util::OnlineStats& stats) {
  const util::OnlineStats::State s = stats.state();
  w.beginSection(name);
  w.u64("n", s.n);
  w.f64("mean", s.mean);
  w.f64("m2", s.m2);
  w.f64("min", s.min);
  w.f64("max", s.max);
  w.endSection();
}

inline void load(BinReader& r, std::string_view name,
                 util::OnlineStats& stats) {
  util::OnlineStats::State s;
  r.beginSection(name);
  s.n = r.u64("n");
  s.mean = r.f64("mean");
  s.m2 = r.f64("m2");
  s.min = r.f64("min");
  s.max = r.f64("max");
  r.endSection();
  stats.setState(s);
}

/// One sliding window's record: its window, samples oldest first, and raw
/// running sum. A MovingMean saves through it, and so does a window kept
/// outside one (the Observer's per-thread rate rings).
inline void saveWindow(BinWriter& w, std::string_view name,
                       std::size_t window, util::RingRuns runs, double sum) {
  w.beginSection(name);
  w.u64("window", window);
  w.vecF64("samples", runs.first, runs.second);
  w.f64("sum", sum);
  w.endSection();
}

inline void save(BinWriter& w, std::string_view name,
                 const util::MovingMean& mm) {
  saveWindow(w, name, mm.window(), mm.runs(), mm.rawSum());
}

/// A saveWindow record's samples and running sum. `window` is the
/// configured window — configuration, not state — and the checkpointed one
/// must agree, else the configs differ and the restore refuses.
struct WindowRecord {
  std::vector<double> samples;
  double sum = 0.0;
};
inline WindowRecord loadWindow(BinReader& r, std::string_view name,
                               std::size_t window) {
  r.beginSection(name);
  const std::uint64_t saved = r.u64("window");
  if (saved != window)
    throw CheckpointError{
        "checkpointed MovingMean '" + std::string{name} + "' has window " +
        std::to_string(saved) + " but this configuration uses " +
        std::to_string(window) +
        " — the checkpoint was taken under a different config"};
  WindowRecord record;
  record.samples = r.vecF64("samples");
  record.sum = r.f64("sum");
  r.endSection();
  return record;
}

/// The MovingMean must already be constructed with its configured window.
inline void load(BinReader& r, std::string_view name, util::MovingMean& mm) {
  const WindowRecord record = loadWindow(r, name, mm.window());
  mm.restore(record.samples, record.sum);
}

}  // namespace dike::ckpt
