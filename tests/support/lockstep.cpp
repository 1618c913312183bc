#include "lockstep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <type_traits>

#include "ckpt/archive.hpp"
#include "exp/replay.hpp"
#include "telemetry/quantum_stream.hpp"
#include "util/rng.hpp"
#include "workload/benchmarks.hpp"

namespace dike::test {

using exp::RunSession;
using exp::RunSpec;
using exp::SchedulerKind;

RunSpec smallSpec(SchedulerKind kind, std::uint64_t seed) {
  RunSpec spec;
  spec.workloadId = 3;
  spec.kind = kind;
  spec.scale = 0.1;
  spec.seed = seed;
  return spec;
}

fault::FaultPlan noisyPlan(std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.window.startTick = 200;
  plan.window.endTick = 0;  // until the run ends
  plan.samples.dropProbability = 0.05;
  plan.samples.corruptProbability = 0.05;
  plan.samples.stuckAtZeroProbability = 0.02;
  plan.samples.saturateMissRatioProbability = 0.05;
  plan.actuation.swapFailProbability = 0.10;
  plan.actuation.migrationFailProbability = 0.10;
  plan.cores.freqDipProbability = 0.05;
  return plan;
}

RunSpec scriptedSpec() {
  RunSpec spec = smallSpec(SchedulerKind::DikeAF);
  spec.arrivals = {exp::Arrival{1'500, "jacobi", 4, 0.05},
                   exp::Arrival{3'000, "stream_omp", 4, 0.05}};
  spec.dvfs = {exp::FrequencyChange{2'000, 1, 1.6}};
  return spec;
}

namespace {

/// `count` sockets alternating fast (2.33 GHz) and slow (1.21 GHz).
std::vector<sim::SocketSpec> alternatingSockets(int count, int cores,
                                                int smtWays) {
  std::vector<sim::SocketSpec> sockets;
  for (int s = 0; s < count; ++s)
    sockets.push_back(sim::SocketSpec{
        .physicalCores = cores,
        .smtWays = smtWays,
        .freqGhz = s % 2 == 0 ? 2.33 : 1.21,
        .type = s % 2 == 0 ? sim::CoreType::Fast : sim::CoreType::Slow});
  return sockets;
}

}  // namespace

RunSpec clusteredSpec(int clusters, int sockets, std::uint64_t seed) {
  RunSpec spec;
  spec.kind = SchedulerKind::Dike;
  spec.scale = 0.4;
  spec.seed = seed;
  wl::WorkloadSpec workload;
  workload.id = 0;
  workload.name = "cluster-test";
  workload.apps = {"stream_omp", "hotspot"};
  workload.includeKmeans = false;
  spec.customWorkload = workload;
  spec.topology = alternatingSockets(sockets, 4, 1);
  spec.dikeConfig = core::DikeConfig{};
  spec.dikeConfig->cluster.clusters = clusters;
  return spec;
}

sim::Machine machineFor(const RunSpec& spec) {
  return RunSession{spec}.machine();
}

RunSpec tenantsSpec(bool scaledMemory, int sockets) {
  RunSpec spec;
  spec.seed = 5;
  spec.topology = alternatingSockets(sockets, 16, 2);
  std::vector<std::string> models;
  for (const std::string& name : wl::benchmarkNames())
    if (name != "kmeans") models.push_back(name);
  wl::WorkloadSpec tenants;
  tenants.name = "tenants";
  tenants.name += std::to_string(4 * sockets);
  tenants.includeKmeans = false;
  for (std::size_t t = 0; t < 4 * static_cast<std::size_t>(sockets); ++t)
    tenants.apps.push_back(models[(t * 5) % models.size()]);
  spec.customWorkload = tenants;
  spec.kind = SchedulerKind::Dike;
  spec.dikeConfig = core::DikeConfig{};
  spec.dikeConfig->cluster.clusters = sockets;
  if (scaledMemory)
    spec.machine.memory.controllerAccessesPerSec *= sockets;
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

RunSpec generatedSpec(int index) {
  constexpr SchedulerKind kKinds[] = {
      SchedulerKind::Cfs,    SchedulerKind::Dio,
      SchedulerKind::Dike,   SchedulerKind::DikeAF,
      SchedulerKind::DikeAP, SchedulerKind::Random,
      SchedulerKind::StaticOracle, SchedulerKind::Suspension};
  constexpr int kClusterCounts[] = {0, 1, 2, 4};
  constexpr int kSwapSizes[] = {2, 4, 8};
  constexpr int kQuantaMs[] = {100, 250, 500};
  util::Rng rng{0x5EED0000ULL + static_cast<std::uint64_t>(index)};
  const SchedulerKind kind = kKinds[index % 8];
  // The first eight cases run on the paper testbed, the rest on the
  // 4-socket machine. Faults alternate, in opposite phase on the two
  // machines, so each sees them with Dike and without.
  RunSpec spec;
  if (index >= 8) {
    spec = clusteredSpec(0, 4, rng());
    spec.scale = 0.1 + 0.1 * static_cast<double>(rng.below(2));
  } else {
    spec.workloadId = static_cast<int>(rng.between(1, 16));
    spec.scale = 0.05 + 0.05 * static_cast<double>(rng.below(2));
    spec.seed = rng();
  }
  spec.kind = kind;
  spec.dikeConfig.reset();
  spec.params.swapSize = kSwapSizes[rng.below(3)];
  spec.params.quantaLengthMs = kQuantaMs[rng.below(3)];
  if (kind == SchedulerKind::Dike || kind == SchedulerKind::DikeAF ||
      kind == SchedulerKind::DikeAP) {
    spec.dikeConfig = core::DikeConfig{};
    spec.dikeConfig->cluster.clusters = kClusterCounts[(index + index / 8) % 4];
  }
  spec.machine.tickLeaping = rng.below(4) != 0;
  if ((index + index / 8) % 2 == 1) spec.faults = noisyPlan(rng());
  if (index % 5 == 3) {
    spec.arrivals = {
        exp::Arrival{rng.between(300, 1'500), "jacobi", 4, 0.05},
        exp::Arrival{rng.between(1'500, 3'000), "stream_omp", 4, 0.05}};
    spec.dvfs = {exp::FrequencyChange{rng.between(500, 2'500),
                                      static_cast<int>(rng.below(2)), 1.6}};
  }
  return spec;
}

namespace {

/// Where one excluded token sits in a payload: its header (tag, name and
/// any length prefix) and its value, [begin, end).
struct Span {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string head;
};

/// Walk both token streams to the first divergence outside `excluded`. On
/// agreement, record where the excluded tokens sit when asked.
std::optional<std::string> walkTokens(std::string_view a, std::string_view b,
                                      const Exclusions& excluded,
                                      std::vector<Span>* spansA = nullptr,
                                      std::vector<Span>* spansB = nullptr) {
  const std::vector<ckpt::Token> ta = ckpt::tokenize(a);
  const std::vector<ckpt::Token> tb = ckpt::tokenize(b);
  const auto span = [](std::string_view payload, const ckpt::Token& tok) {
    const bool lengthPrefixed = tok.tag == ckpt::Tag::Str ||
                                tok.tag == ckpt::Tag::VecF64 ||
                                tok.tag == ckpt::Tag::VecI64;
    const std::size_t name = tok.path.size() - tok.path.rfind('/') - 1;
    const std::size_t head = 1 + 4 + name + (lengthPrefixed ? 4 : 0);
    return Span{tok.offset, tok.offset + head + tok.bits.size(),
                std::string{payload.substr(tok.offset, head)}};
  };
  std::vector<Span> foundA;
  std::vector<Span> foundB;
  for (std::size_t i = 0; i < std::min(ta.size(), tb.size()); ++i) {
    if (ta[i].path != tb[i].path)
      return "record " + std::to_string(i) + " is " + ta[i].path + " vs " +
             tb[i].path;
    if (std::find(excluded.begin(), excluded.end(), ta[i].path) !=
        excluded.end()) {
      foundA.push_back(span(a, ta[i]));
      foundB.push_back(span(b, tb[i]));
    } else if (!(ta[i] == tb[i])) {
      return ckpt::describeDivergence(ta[i], tb[i]);
    }
  }
  if (ta.size() != tb.size())
    return "one payload ends after record " +
           std::to_string(std::min(ta.size(), tb.size()));
  if (spansA != nullptr) *spansA = std::move(foundA);
  if (spansB != nullptr) *spansB = std::move(foundB);
  return std::nullopt;
}

/// Compares the successive payload pairs of two runs. Walking the tokens
/// copies every record, so once a walk has found a pair differing only in
/// excluded tokens, later pairs compare the bytes around those tokens while
/// each one's header still sits at its offset (the excluded fields follow
/// fixed-size records), and walk again only when that fails.
class PayloadComparer {
 public:
  explicit PayloadComparer(const Exclusions& excluded) : excluded_(excluded) {}

  std::optional<std::string> operator()(std::string_view a,
                                        std::string_view b) {
    if (a == b || (!spansA_.empty() && agreeAround(a, b)))
      return std::nullopt;
    return walkTokens(a, b, excluded_, &spansA_, &spansB_);
  }

 private:
  bool agreeAround(std::string_view a, std::string_view b) const {
    std::size_t fromA = 0;
    std::size_t fromB = 0;
    for (std::size_t i = 0; i < spansA_.size(); ++i) {
      const Span& sa = spansA_[i];
      const Span& sb = spansB_[i];
      if (sa.end > a.size() || sb.end > b.size() ||
          a.substr(sa.begin, sa.head.size()) != sa.head ||
          b.substr(sb.begin, sb.head.size()) != sb.head ||
          a.substr(fromA, sa.begin - fromA) !=
              b.substr(fromB, sb.begin - fromB))
        return false;
      fromA = sa.end;
      fromB = sb.end;
    }
    return a.substr(fromA) == b.substr(fromB);
  }

  const Exclusions& excluded_;
  std::vector<Span> spansA_;
  std::vector<Span> spansB_;
};

}  // namespace

std::optional<std::string> payloadDivergence(std::string_view a,
                                             std::string_view b,
                                             const Exclusions& excluded) {
  if (a == b) return std::nullopt;
  return walkTokens(a, b, excluded);
}

std::optional<std::string> sampleDivergence(const sim::QuantumSample& a,
                                            const sim::QuantumSample& b) {
  std::optional<std::string> first;
  // Keeps the first field that differs, doubles compared by their bits.
  const auto check = [&first](const char* field, std::size_t row, auto x,
                              auto y) {
    bool same = x == y;
    if constexpr (std::is_same_v<decltype(x), double>)
      same = std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
    if (same || first) return;
    std::ostringstream out;
    out.precision(17);
    out << field << " of row " << row << ": " << x << " vs " << y;
    first = out.str();
  };
  check("periodTicks", 0, a.periodTicks, b.periodTicks);
  check("thread count", 0, a.threads.size(), b.threads.size());
  check("core count", 0, a.coreAchievedBw.size(), b.coreAchievedBw.size());
  for (std::size_t i = 0; !first && i < a.threads.size(); ++i) {
    const sim::ThreadSample& x = a.threads[i];
    const sim::ThreadSample& y = b.threads[i];
    check("threadId", i, x.threadId, y.threadId);
    check("processId", i, x.processId, y.processId);
    check("coreId", i, x.coreId, y.coreId);
    check("instructions", i, x.instructions, y.instructions);
    check("accesses", i, x.accesses, y.accesses);
    check("accessRate", i, x.accessRate, y.accessRate);
    check("llcMissRatio", i, x.llcMissRatio, y.llcMissRatio);
    check("finished", i, x.finished, y.finished);
    check("dropped", i, x.dropped, y.dropped);
  }
  for (std::size_t c = 0; !first && c < a.coreAchievedBw.size(); ++c)
    check("coreAchievedBw", c, a.coreAchievedBw[c], b.coreAchievedBw[c]);
  return first;
}

namespace {

/// The spec for failure messages: its JSON, plus the plan phase's worker
/// budget, which the JSON never records.
std::string describe(const RunSpec& spec) {
  std::string out = exp::runSpecToJson(spec).dump();
  if (spec.dikeConfig)
    out += ", decideJobs " +
           std::to_string(spec.dikeConfig->cluster.decideJobs);
  return out;
}

/// A per-test file under the test temp dir (ctest runs each test in its
/// own process, possibly concurrently).
std::string tempPath(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string{info->test_suite_name()} + "." +
                     info->name() + "." + tag;
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + "/" + name;
}

std::string readAndRemove(const std::string& path) {
  std::string bytes = slurp(path);
  std::filesystem::remove(path);
  return bytes;
}

/// The first line at which two texts differ, with both lines.
std::optional<std::string> lineDivergence(const std::string& a,
                                          const std::string& b) {
  if (a == b) return std::nullopt;
  const auto at = std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first;
  const auto lineBreaks = std::count(a.begin(), at, '\n');
  const std::size_t start =
      lineBreaks == 0 ? 0 : a.rfind('\n', at - a.begin() - 1) + 1;
  const auto line = [start](const std::string& s) {
    return "'" + s.substr(start, s.find('\n', start) - start) + "'";
  };
  return "line " + std::to_string(lineBreaks + 1) + ": " + line(a) + " vs " +
         line(b);
}

std::string report(const exp::RunMetrics& metrics) {
  return exp::runMetricsToJson(metrics).dump(2);
}

/// Keeps the sample the scheduler saw in the last quantum.
class SampleTap final : public sched::QuantumListener {
 public:
  void afterQuantum(const sim::Machine& /*machine*/,
                    const sched::SchedulerView& view,
                    sched::Scheduler& /*scheduler*/) override {
    sample = view.sample();
  }

  sim::QuantumSample sample;
};

/// One side of a lockstep pair: a session writing its NDJSON quantum
/// stream into memory, with the sample tap attached.
struct Side {
  explicit Side(const RunSpec& spec)
      : session{std::make_unique<RunSession>(spec)} {
    session->attachQuantumStream(writer);
    session->addQuantumListener(tap);
  }
  Side(const std::string& checkpoint, int decideJobs)
      : session{RunSession::restore(checkpoint, &writer, decideJobs)} {
    session->addQuantumListener(tap);
  }

  std::ostringstream stream;
  telemetry::QuantumStreamWriter writer{stream,
                                        telemetry::StreamFormat::JsonLines};
  SampleTap tap;
  std::unique_ptr<RunSession> session;
};

/// Step both sides to the end of the run, comparing after every quantum
/// and after the step that ends the run. Adds a failure naming the quantum
/// and the first divergence, and returns false, at the first disagreement.
bool stepTogether(Side& a, Side& b, const Exclusions& excluded) {
  PayloadComparer samePayload{excluded};
  for (bool more = true; more;) {
    more = a.session->stepQuantum();
    const std::string when =
        more ? "after quantum " + std::to_string(a.session->quantumIndex())
             : "at the end of the run";
    if (b.session->stepQuantum() != more) {
      ADD_FAILURE() << when << ", only run " << (more ? "b" : "a")
                    << " has ended";
      return false;
    }
    // The step that ends the run reaches no quantum boundary, so no
    // scheduler sees a new sample.
    if (const auto d = more ? sampleDivergence(a.tap.sample, b.tap.sample)
                            : std::nullopt) {
      ADD_FAILURE() << when << ": the samples differ at " << *d;
      return false;
    }
    if (const auto d = samePayload(a.session->checkpointPayload(),
                                   b.session->checkpointPayload())) {
      ADD_FAILURE() << when << ": " << *d;
      return false;
    }
  }
  return true;
}

}  // namespace

LockstepSummary expectLockstep(const RunSpec& a, const RunSpec& b,
                               const Exclusions& excluded) {
  SCOPED_TRACE("a: " + describe(a) + "\nb: " + describe(b));
  RunSpec specA = a;
  RunSpec specB = b;
  specA.telemetry = {};
  specB.telemetry = {};
  specA.telemetry.eventsCsvPath = tempPath("a.events.csv");
  specB.telemetry.eventsCsvPath = tempPath("b.events.csv");
  Side sideA{specA};
  Side sideB{specB};
  const bool agreed = stepTogether(sideA, sideB, excluded);
  const std::string reportA = report(sideA.session->finish());
  const std::string reportB = report(sideB.session->finish());
  const LockstepSummary summary{
      sideA.session->machine().stepStats(),
      sideB.session->machine().stepStats(),
      sideA.session->machine().swapCount(),
      readAndRemove(specA.telemetry.eventsCsvPath)};
  const std::string eventsB = readAndRemove(specB.telemetry.eventsCsvPath);
  if (!agreed) return summary;
  if (const auto d = lineDivergence(reportA, reportB))
    ADD_FAILURE() << "the reports differ at " << *d;
  if (const auto d = lineDivergence(sideA.stream.str(), sideB.stream.str()))
    ADD_FAILURE() << "the quantum streams differ at " << *d;
  if (const auto d = lineDivergence(summary.eventsCsv, eventsB))
    ADD_FAILURE() << "the events CSVs differ at " << *d;
  return summary;
}

void expectResumeLockstep(const RunSpec& spec, std::int64_t k,
                          int restoreDecideJobs) {
  SCOPED_TRACE(describe(spec) + ", restored at quantum " + std::to_string(k) +
               (restoreDecideJobs >= 0
                    ? " with decideJobs " + std::to_string(restoreDecideJobs)
                    : std::string{}));
  RunSpec plain = spec;
  plain.telemetry = {};
  Side uninterrupted{plain};
  for (std::int64_t q = 0; q < k; ++q)
    ASSERT_TRUE(uninterrupted.session->stepQuantum())
        << "the run ends after " << q << " quanta";
  const std::string path = tempPath("q" + std::to_string(k) + ".ckpt");
  uninterrupted.session->writeCheckpoint(path);
  const std::size_t streamAtRestore = uninterrupted.stream.str().size();
  Side restored{path, restoreDecideJobs};
  std::filesystem::remove(path);
  if (const auto d =
          payloadDivergence(uninterrupted.session->checkpointPayload(),
                            restored.session->checkpointPayload())) {
    ADD_FAILURE() << "at the restore point: " << *d;
    return;
  }
  if (!stepTogether(uninterrupted, restored, {})) return;
  const std::string expected = report(uninterrupted.session->finish());
  if (const auto d =
          lineDivergence(expected, report(restored.session->finish())))
    ADD_FAILURE() << "the restored run's report differs at " << *d;
  if (const auto d =
          lineDivergence(expected, report(RunSession{plain}.finish())))
    ADD_FAILURE() << "a run never checkpointed reports differently at " << *d;
  if (const auto d = lineDivergence(
          uninterrupted.stream.str().substr(streamAtRestore),
          restored.stream.str()))
    ADD_FAILURE() << "the resumed quantum stream differs at " << *d;
}

}  // namespace dike::test
