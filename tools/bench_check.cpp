// bench_check: the throughput regression gate.
//
// Compares a freshly measured BENCH_sim.json against a baseline (normally
// the committed one) on the single-threaded leap ticks/sec of each
// workload, and fails — exit 1 — when the geometric-mean ratio has
// regressed by more than the allowed percentage. Wall-clock measurements
// are noisy, so the gate is a budget, not an equality check: run it on the
// machine that produced the baseline (the `bench` preset + `ctest -L
// bench` wires this up).
//
// It also budgets the candidate's live observability-plane overhead
// (live_overhead_pct, measured by bench_sim_throughput as live-on vs
// live-off wall time): runs with --live-metrics may cost at most
// --max-live-overhead-pct (default 5%) over a plain run. Baselines
// predating the field are accepted — only the candidate is checked.
//
// It also gates the clustered scheduler's large-machine scaling claim:
// every thread_scaling row at >= 8 clusters on a >= 4096-thread machine
// must show the clustered decide-latency p99 beating the flat pipeline by
// at least --min-cluster-speedup (default 5x). Both files are checked when
// they carry the section; files without it (older baselines, capped smoke
// runs) are accepted. --min-cluster-speedup=0 disables the check.
//
// Finally, it gates intra-quantum plan parallelism at the point the claim
// is made (EXPERIMENTS.md, "Intra-quantum parallelism"): when the
// candidate's decide_parallel_scaling curve was measured at >= 4096
// threads and >= 8 clusters, every row with jobs >= 4 must show the
// wall-clock decide p99 beating the serial (jobs=1) run by at least
// --min-decide-parallel-speedup (default 2x). A curve measured at a
// smaller point (a --max-threads capped smoke run) is printed row by row
// but not gated, under a loud "not gated" banner; a curve without jobs >= 4
// rows — in particular the single-point curve a low-core host produces —
// passes vacuously, and any scaling curve with fewer than two points
// prints a prominent warning so nobody mistakes a degenerate measurement
// for a demonstrated claim. --min-decide-parallel-speedup=0 disables the
// check. A non-empty decide_parallel_scaling section must be well formed
// in both files: decide_parallel_threads and decide_parallel_clusters set,
// jobs starting at 1 and strictly increasing, a positive decide_p99_ns in
// every row.
//
//   bench_check <baseline.json> <candidate.json> [--max-regression-pct P]
//               [--max-live-overhead-pct P] [--min-cluster-speedup S]
//               [--min-decide-parallel-speedup S] [--out verdict.json]
//
// --out writes a small machine-readable verdict ({"ok": ..., ...}) for
// harnesses that archive gate results instead of scraping stdout. Its
// "decide_parallel_gated" is true only when at least one decide row was
// held to the floor, so a capped or degenerate run never reads as having
// met it.
//
// Exit codes: 0 within budget, 1 regression beyond budget, 2 usage or
// malformed input.
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace {

/// The machine size both speedup claims are made at: rows measured on a
/// smaller machine are printed but never gated.
constexpr int kClaimMinThreads = 4096;
constexpr int kClaimMinClusters = 8;

/// workload id -> leap ticks/sec, from a BENCH_sim.json document.
std::map<int, double> leapRates(const dike::util::JsonValue& doc,
                                const std::string& label) {
  const auto per = doc.get("leap_per_workload");
  if (!per || !per->isArray())
    throw std::runtime_error{label +
                             ": missing \"leap_per_workload\" array — not a "
                             "bench_sim_throughput report?"};
  std::map<int, double> rates;
  for (const dike::util::JsonValue& row : per->asArray()) {
    const int workload = row.intOr("workload", -1);
    const double rate = row.numberOr("leap_ticks_per_sec", -1.0);
    if (workload < 0 || rate <= 0.0)
      throw std::runtime_error{
          label + ": malformed leap_per_workload row (workload id or "
                  "leap_ticks_per_sec missing/non-positive)"};
    rates[workload] = rate;
  }
  if (rates.empty())
    throw std::runtime_error{label + ": leap_per_workload is empty"};
  return rates;
}

/// Check a report's thread_scaling rows against the cluster-speedup floor.
/// Returns false (after printing the offenders) when a gated row is below
/// the floor; reports without the section pass vacuously.
bool checkClusterSpeedups(const dike::util::JsonValue& doc,
                          const std::string& label, double minSpeedup) {
  const auto curve = doc.get("thread_scaling");
  if (!curve || !curve->isArray()) return true;
  bool ok = true;
  for (const dike::util::JsonValue& row : curve->asArray()) {
    const int threads = row.intOr("threads", 0);
    const int clusters = row.intOr("clusters", 0);
    const double speedup = row.numberOr("speedup_p99", 0.0);
    if (clusters < kClaimMinClusters || threads < kClaimMinThreads) continue;
    std::printf("%s: n=%d, %d clusters: clustered decide p99 %.2fx flat "
                "(floor %.2fx)\n",
                label.c_str(), threads, clusters, speedup, minSpeedup);
    if (speedup < minSpeedup) {
      std::fprintf(stderr,
                   "FAIL: %s thread_scaling n=%d (%d clusters) speedup "
                   "%.2fx < %.2fx floor\n",
                   label.c_str(), threads, clusters, speedup, minSpeedup);
      ok = false;
    }
  }
  return ok;
}

/// Loud degenerate-curve warning: a scaling section with fewer than two
/// points proves nothing (the committed BENCH_sim.json once carried a
/// hardware_concurrency=1 sweep that read like a measured claim). The
/// banner keeps a vacuous gate pass from looking like a demonstrated one.
void warnIfSinglePoint(const dike::util::JsonValue& doc,
                       const std::string& label, const char* section) {
  const auto curve = doc.get(section);
  if (!curve || !curve->isArray()) return;
  const std::size_t points = curve->asArray().size();
  if (points >= 2) return;
  std::fprintf(stderr,
               "**************************************************\n"
               "* WARNING: %s \"%s\" has %zu point(s).\n"
               "* The curve is degenerate (low-core host?); any\n"
               "* parallel-speedup gate on it passes VACUOUSLY and\n"
               "* demonstrates nothing. Regenerate the baseline on\n"
               "* a multi-core machine before citing it.\n"
               "**************************************************\n",
               label.c_str(), section, points);
}

/// One decide_parallel_scaling row.
struct DecideRow {
  int jobs = 0;
  double p99Ns = 0.0;
  double speedup = 0.0;
};

/// A report's decide_parallel_scaling curve and the scaling point it was
/// measured at. `rows` is empty when the section is absent or empty.
struct DecideCurve {
  int threads = 0;
  int clusters = 0;
  std::vector<DecideRow> rows;
};

/// Read and shape-check a report's decide_parallel_scaling section; a
/// malformed one throws (exit 2), as a malformed leap_per_workload does.
DecideCurve decideCurve(const dike::util::JsonValue& doc,
                        const std::string& label) {
  DecideCurve curve;
  const auto section = doc.get("decide_parallel_scaling");
  if (!section) return curve;
  if (!section->isArray())
    throw std::runtime_error{label +
                             ": \"decide_parallel_scaling\" is not an array"};
  if (section->asArray().empty()) return curve;
  curve.threads = doc.intOr("decide_parallel_threads", 0);
  curve.clusters = doc.intOr("decide_parallel_clusters", 0);
  if (curve.threads <= 0 || curve.clusters <= 0)
    throw std::runtime_error{
        label + ": non-empty decide_parallel_scaling without a positive "
                "decide_parallel_threads and decide_parallel_clusters"};
  for (const dike::util::JsonValue& row : section->asArray()) {
    DecideRow parsed{row.intOr("jobs", 0), row.numberOr("decide_p99_ns", 0.0),
                     row.numberOr("speedup_vs_serial", 0.0)};
    const bool inOrder = curve.rows.empty()
                             ? parsed.jobs == 1
                             : parsed.jobs > curve.rows.back().jobs;
    if (!inOrder)
      throw std::runtime_error{
          label + ": malformed decide_parallel_scaling row (jobs must start "
                  "at 1 and strictly increase)"};
    if (!(parsed.p99Ns > 0.0))
      throw std::runtime_error{
          label + ": malformed decide_parallel_scaling row (decide_p99_ns "
                  "missing/non-positive)"};
    curve.rows.push_back(parsed);
  }
  return curve;
}

struct DecideVerdict {
  bool ok = true;
  bool gated = false;  // at least one row was held to the floor
};

/// Print every row of the candidate's decide curve with its measured ratio
/// and gate the jobs >= 4 rows against the wall-clock speedup floor — but
/// only when the curve was measured at the claimed scale. A capped curve
/// gets a loud banner instead of a gate; an empty curve passes vacuously.
DecideVerdict checkDecideParallelSpeedup(const DecideCurve& curve,
                                         const std::string& label,
                                         double minSpeedup) {
  DecideVerdict verdict;
  if (curve.rows.empty()) return verdict;
  const bool atClaim = curve.threads >= kClaimMinThreads &&
                       curve.clusters >= kClaimMinClusters;
  for (const DecideRow& row : curve.rows) {
    const bool gated = atClaim && row.jobs >= 4;
    std::printf("%s: decide n=%d, %d clusters, jobs=%d: wall p99 %.1f us, "
                "%.2fx serial",
                label.c_str(), curve.threads, curve.clusters, row.jobs,
                row.p99Ns / 1e3, row.speedup);
    if (!gated) {
      std::printf(" (not gated)\n");
      continue;
    }
    std::printf(" (floor %.2fx)\n", minSpeedup);
    verdict.gated = true;
    if (row.speedup < minSpeedup) {
      std::fprintf(stderr,
                   "FAIL: %s decide_parallel_scaling jobs=%d speedup "
                   "%.2fx < %.2fx floor\n",
                   label.c_str(), row.jobs, row.speedup, minSpeedup);
      verdict.ok = false;
    }
  }
  if (!atClaim)
    std::fprintf(stderr,
                 "**************************************************\n"
                 "* WARNING: %s \"decide_parallel_scaling\"\n"
                 "* not gated: n=%d, %d clusters is below the %d-thread\n"
                 "* claim (>= %d threads, >= %d clusters). Its rows\n"
                 "* are measured but not held to the %.2fx floor;\n"
                 "* only a full-size run can demonstrate it.\n"
                 "**************************************************\n",
                 label.c_str(), curve.threads, curve.clusters,
                 kClaimMinThreads, kClaimMinThreads, kClaimMinClusters,
                 minSpeedup);
  return verdict;
}

/// Write the machine-readable verdict (--out). Failure to write is a usage
/// error (exit 2), reported by the caller.
bool writeVerdict(const std::string& path, bool ok, double geomeanRatio,
                  bool decideGated, const std::string& reason) {
  dike::util::JsonObject verdict;
  verdict.emplace("ok", ok);
  verdict.emplace("leap_geomean_ratio", geomeanRatio);
  verdict.emplace("decide_parallel_gated", decideGated);
  if (!reason.empty()) verdict.emplace("reason", reason);
  const dike::util::JsonValue doc{std::move(verdict)};
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    const std::string text = doc.dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const dike::util::CliArgs args{argc, argv};
  const std::vector<std::string>& positional = args.positional();
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: %s <baseline.json> <candidate.json> "
                 "[--max-regression-pct P] [--max-live-overhead-pct P] "
                 "[--min-cluster-speedup S] "
                 "[--min-decide-parallel-speedup S] [--out verdict.json]\n",
                 argv[0]);
    return 2;
  }
  const double maxRegressionPct = args.getDouble("max-regression-pct", 10.0);
  const double maxLiveOverheadPct =
      args.getDouble("max-live-overhead-pct", 5.0);
  const double minClusterSpeedup = args.getDouble("min-cluster-speedup", 5.0);
  const double minDecideParallelSpeedup =
      args.getDouble("min-decide-parallel-speedup", 2.0);
  const std::string outPath = args.getOr("out", "");

  double geo = 0.0;
  bool decideGated = false;
  std::string reason;
  int code = 0;
  try {
    const dike::util::JsonValue baselineDoc =
        dike::util::parseJsonFile(positional[0]);
    const dike::util::JsonValue candidateDoc =
        dike::util::parseJsonFile(positional[1]);
    const auto baseline = leapRates(baselineDoc, positional[0]);
    const auto candidate = leapRates(candidateDoc, positional[1]);
    decideCurve(baselineDoc, positional[0]);  // shape check only
    const DecideCurve candidateCurve = decideCurve(candidateDoc, positional[1]);

    std::vector<double> ratios;
    std::printf("%-10s %18s %18s %8s\n", "workload", "baseline ticks/s",
                "candidate ticks/s", "ratio");
    for (const auto& [workload, baseRate] : baseline) {
      const auto it = candidate.find(workload);
      if (it == candidate.end()) {
        std::fprintf(stderr,
                     "candidate is missing workload %d present in the "
                     "baseline\n",
                     workload);
        return 2;
      }
      const double ratio = it->second / baseRate;
      ratios.push_back(ratio);
      std::printf("wl%-8d %18.0f %18.0f %7.3fx\n", workload, baseRate,
                  it->second, ratio);
    }

    geo = dike::util::geometricMean(ratios);
    const double regressionPct = (1.0 - geo) * 100.0;
    std::printf("geomean ratio: %.3fx (%+.1f%%, budget -%.1f%%)\n", geo,
                (geo - 1.0) * 100.0, maxRegressionPct);
    if (regressionPct > maxRegressionPct) {
      std::fprintf(stderr,
                   "FAIL: leap throughput regressed %.1f%% > %.1f%% budget\n",
                   regressionPct, maxRegressionPct);
      reason = "leap throughput regression beyond budget";
      code = 1;
    }

    if (code == 0) {
      if (const auto live = candidateDoc.get("live_overhead_pct");
          live && live->isNumber()) {
        const double liveOverheadPct = live->asNumber();
        std::printf("live-plane overhead: %+.1f%% (budget +%.1f%%)\n",
                    liveOverheadPct, maxLiveOverheadPct);
        if (liveOverheadPct > maxLiveOverheadPct) {
          std::fprintf(
              stderr,
              "FAIL: live observability overhead %.1f%% > %.1f%% budget\n",
              liveOverheadPct, maxLiveOverheadPct);
          reason = "live observability overhead beyond budget";
          code = 1;
        }
      }
    }

    if (code == 0 && minClusterSpeedup > 0.0) {
      if (!checkClusterSpeedups(baselineDoc, "baseline", minClusterSpeedup) ||
          !checkClusterSpeedups(candidateDoc, "candidate",
                                minClusterSpeedup)) {
        reason = "clustered decide-latency speedup below floor";
        code = 1;
      }
    }

    // Degenerate curves pass every gate vacuously — say so, loudly, for
    // both files and both scaling sections.
    warnIfSinglePoint(baselineDoc, "baseline", "sweep_scaling");
    warnIfSinglePoint(candidateDoc, "candidate", "sweep_scaling");
    warnIfSinglePoint(baselineDoc, "baseline", "decide_parallel_scaling");
    warnIfSinglePoint(candidateDoc, "candidate", "decide_parallel_scaling");

    if (code == 0 && minDecideParallelSpeedup > 0.0) {
      const DecideVerdict decide = checkDecideParallelSpeedup(
          candidateCurve, "candidate", minDecideParallelSpeedup);
      decideGated = decide.gated;
      if (!decide.ok) {
        reason = "intra-quantum decide parallel speedup below floor";
        code = 1;
      }
    }

    if (code == 0) std::printf("OK: within regression budget\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_check: %s\n", e.what());
    reason = e.what();
    code = 2;
  }

  if (!outPath.empty() &&
      !writeVerdict(outPath, code == 0, geo, decideGated, reason)) {
    std::fprintf(stderr, "bench_check: cannot write %s\n", outPath.c_str());
    return 2;
  }
  return code;
}
