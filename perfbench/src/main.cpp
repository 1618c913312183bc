// perfbench: runs one workload in passes for a time budget and writes the
// raw measurements as JSON. perfbench/run.py builds this binary, drives it,
// checks the digests and prints the metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//             [--passes N]
//
// --trace 0 runs untraced passes only. --trace 1 alternates untraced and
// traced passes, so the tracing overhead is measured within one process.
// --passes N runs exactly N untraced passes, whatever the time budget.
#include <sched.h>
#include <sys/resource.h>

#include <array>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "probes.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using dike::util::JsonArray;
using dike::util::JsonObject;
using dike::util::JsonValue;
using perfbench::PassResult;
using perfbench::Span;
using perfbench::SpanKind;

constexpr auto kKinds = static_cast<std::size_t>(SpanKind::Count);
/// CPUs each pass is pinned to: the two busy threads a workload keeps.
constexpr std::size_t kPinWidth = 2;

std::vector<int> allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Pin every thread of the process to kPinWidth of `cpus`, starting at index
/// `step`, so successive steps visit every CPU alike. On a shared
/// host CPUs differ in speed for seconds at a time; rotating keeps one slow
/// CPU from setting a whole run's figures.
void pinPass(const std::vector<int>& cpus, std::size_t step) {
  if (cpus.size() <= kPinWidth) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t k = 0; k < kPinWidth; ++k)
    CPU_SET(cpus[(step + k) % cpus.size()], &set);
  for (const auto& task :
       std::filesystem::directory_iterator{"/proc/self/task"}) {
    const auto tid = static_cast<pid_t>(std::stol(task.path().filename()));
    // A thread that exited meanwhile cannot be pinned and needs not be.
    (void)sched_setaffinity(tid, sizeof set, &set);
  }
}

JsonArray toArray(const std::vector<double>& values) {
  return JsonArray(values.begin(), values.end());
}

/// Per-pass ledger: self time per span kind (a span's duration minus its
/// direct children's), duration samples of the kinds reported as
/// percentiles, and the share of thread time no span accounts for.
JsonObject ledger(const PassResult& r) {
  std::array<std::int64_t, kKinds> selfNs{};
  std::array<JsonArray, kKinds> samples;
  std::int64_t attributedNs = 0;
  for (const std::vector<Span>& spans : r.spanLogs) {
    std::vector<std::int64_t> childNs(spans.size(), 0);
    for (const Span& s : spans)
      if (s.parent >= 0)
        childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto kind = static_cast<std::size_t>(s.kind);
      const std::int64_t self = s.endNs - s.startNs - childNs[i];
      selfNs[kind] += self;
      if (s.kind != SpanKind::Pass) attributedNs += self;
      samples[kind].emplace_back(static_cast<double>(s.endNs - s.startNs));
    }
  }
  JsonObject self;
  JsonObject layers;
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto kind = static_cast<SpanKind>(k);
    const double s = static_cast<double>(selfNs[k]) * 1e-9;
    self.emplace(std::string{perfbench::spanName(kind)}, s);
    if (kind == SpanKind::Pass) continue;
    const std::string layer{perfbench::layerOf(kind)};
    const auto it = layers.find(layer);
    const double before = it == layers.end() ? 0.0 : it->second.asNumber();
    layers.insert_or_assign(layer, before + s);
  }
  JsonObject sampleNs;
  for (const SpanKind kind : {SpanKind::Decide, SpanKind::Payload,
                              SpanKind::CkptWrite, SpanKind::CkptScan,
                              SpanKind::CkptRestore})
    sampleNs.emplace(std::string{perfbench::spanName(kind)},
                     std::move(samples[static_cast<std::size_t>(kind)]));

  const double threadNs = static_cast<double>(r.threads) * r.wallS * 1e9;
  JsonObject out;
  out.emplace("self_s", std::move(self));
  out.emplace("layer_self_s", std::move(layers));
  out.emplace("samples_ns", std::move(sampleNs));
  out.emplace("unattributed_pct",
              100.0 * (threadNs - static_cast<double>(attributedNs)) / threadNs);
  const perfbench::TraceCounts& c = r.counts;
  JsonObject counts;
  counts.emplace("swaps", c.swaps);
  counts.emplace("migrations", c.migrations);
  counts.emplace("dike_quanta", c.dikeQuanta);
  counts.emplace("acted_quanta", c.actedQuanta);
  counts.emplace("pairs_considered", c.pairsConsidered);
  counts.emplace("swaps_executed", c.swapsExecuted);
  counts.emplace("stream_bytes", c.streamBytes);
  counts.emplace("checkpoint_bytes", c.checkpointBytes);
  counts.emplace("checkpoint_writes", c.checkpointWrites);
  counts.emplace("restores", c.restores);
  out.emplace("counts", std::move(counts));
  out.emplace("run_s", toArray(r.runS));
  return out;
}

JsonObject toJson(const PassResult& r) {
  JsonObject pass;
  pass.emplace("traced", r.traced);
  pass.emplace("threads", r.threads);
  pass.emplace("setup_s", r.setupS);
  pass.emplace("wall_s", r.wallS);
  pass.emplace("ticks", r.ticks);
  pass.emplace("quantum_ms", toArray(r.quantumMs));
  JsonArray ops;
  for (const perfbench::OpResult& op : r.ops) {
    JsonObject o;
    o.emplace("digest", op.digest);
    o.emplace("error", op.error);
    ops.emplace_back(std::move(o));
  }
  pass.emplace("ops", std::move(ops));
  if (r.traced) pass.emplace("trace", ledger(r));
  return pass;
}

/// Spans of every traced pass, one CSV row each.
void writeSpans(const std::string& path,
                const std::vector<PassResult>& passes) {
  std::ofstream out{path};
  out << "pass,log,index,name,layer,start_ns,end_ns,parent,run\n";
  for (std::size_t p = 0; p < passes.size(); ++p)
    for (std::size_t l = 0; l < passes[p].spanLogs.size(); ++l) {
      const std::vector<Span>& spans = passes[p].spanLogs[l];
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << p << ',' << l << ',' << i << ',' << perfbench::spanName(s.kind)
            << ',' << perfbench::layerOf(s.kind) << ',' << s.startNs << ','
            << s.endNs << ',' << s.parent << ',' << s.run << '\n';
      }
    }
  if (!out) throw std::runtime_error{"cannot write " + path};
}

int run(const dike::util::CliArgs& args) {
  const std::string name = args.getOr("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.getInt64("seed", 1));
  const double seconds = args.getDouble("seconds", 10.0);
  const bool trace = args.getInt("trace", 0) != 0;
  const int fixedPasses = args.getInt("passes", 0);
  const std::string outDir = args.getOr("out", "");
  if (name.empty() || outDir.empty() || seconds <= 0.0 || fixedPasses < 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR [--passes N]\n");
    return 2;
  }
  std::filesystem::create_directories(outDir);
  const auto workload =
      perfbench::makeWorkload(name, seed, outDir + "/work");

  const std::vector<int> cpus = allowedCpus();
  std::vector<PassResult> passes;
  double peakRssMb = 0.0;
  const auto runPass = [&](bool traced) {
    // Passes go in pairs on the same CPUs, so in traced mode each traced
    // pass runs where the untraced pass before it ran.
    pinPass(cpus, passes.size() / 2);
    passes.push_back(workload->run(traced));
    // Peak memory is taken once the first pass is done: later passes only
    // add allocator drift that depends on how many fit the time budget.
    if (passes.size() == 1) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  };
  const std::int64_t start = perfbench::nowNs();
  const auto elapsed = [&] {
    return static_cast<double>(perfbench::nowNs() - start) * 1e-9;
  };
  if (fixedPasses > 0) {
    for (int i = 0; i < fixedPasses; ++i) runPass(false);
  } else {
    // At least one pass of each kind the mode runs, then until the budget
    // is spent; traced mode alternates so drift hits both kinds alike.
    const std::size_t minimum = trace ? 2 : 1;
    while (passes.size() < minimum || elapsed() < seconds)
      runPass(trace && passes.size() % 2 == 1);
  }

  JsonArray passJson;
  for (const PassResult& r : passes) passJson.emplace_back(toJson(r));
  JsonObject host;
  host.emplace("build_type", PERFBENCH_BUILD_TYPE);
  host.emplace("compiler", PERFBENCH_COMPILER);
  JsonObject doc;
  doc.emplace("workload", name);
  doc.emplace("seed", std::to_string(seed));
  doc.emplace("host", std::move(host));
  doc.emplace("peak_rss_mb", peakRssMb);
  doc.emplace("elapsed_s", elapsed());
  doc.emplace("passes", std::move(passJson));

  const std::string summary = outDir + "/summary.json";
  {
    std::ofstream out{summary};
    out << JsonValue{std::move(doc)}.dump() << '\n';
    if (!out) throw std::runtime_error{"cannot write " + summary};
  }
  if (trace) writeSpans(outDir + "/spans.csv", passes);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  return run(dike::util::CliArgs{argc, argv});
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench: %s\n", e.what());
  return 1;
}
