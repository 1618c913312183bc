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

inline void save(BinWriter& w, std::string_view name,
                 const util::MovingMean& mm) {
  const util::MovingMean::Runs runs = mm.runs();
  w.beginSection(name);
  w.u64("window", mm.window());
  w.vecF64("samples", runs.first, runs.second);
  w.f64("sum", mm.rawSum());
  w.endSection();
}

/// The MovingMean must already be constructed with its configured window —
/// window size is configuration, not state — and the checkpointed window
/// must agree, else the configs differ and the restore refuses.
inline void load(BinReader& r, std::string_view name, util::MovingMean& mm) {
  r.beginSection(name);
  const std::uint64_t window = r.u64("window");
  if (window != mm.window())
    throw CheckpointError{
        "checkpointed MovingMean '" + std::string{name} + "' has window " +
        std::to_string(window) + " but this configuration uses " +
        std::to_string(mm.window()) +
        " — the checkpoint was taken under a different config"};
  const std::vector<double> samples = r.vecF64("samples");
  const double sum = r.f64("sum");
  r.endSection();
  mm.restore(samples, sum);
}

}  // namespace dike::ckpt
