// Simulation-engine throughput: how fast the engine turns wall-clock time
// into simulated ticks, and how fast a Figure-6-shaped sweep completes.
//
// Three configurations are timed on the same work:
//   serial/no-leap  — per-tick stepping, one run at a time (the seed
//                     engine's behaviour; the baseline),
//   serial/leap     — event-batched stepping (tick leaping), still serial,
//   parallel/leap   — tick leaping plus the exp::runWorkloadsParallel pool.
// Tick leaping is bit-identical to per-tick stepping (tests/sim golden
// test), so all three produce the same metrics and the comparison is pure
// engine speed. Results are written to --json=<path> (default
// BENCH_sim.json in the working directory) so future changes can be
// checked against the recorded trajectory. --help prints the flags and
// exits; an unknown flag exits 2. Neither runs the bench or writes --json.
#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "core/clustered_scheduler.hpp"
#include "sched/placement.hpp"
#include "sim/replay_kernel.hpp"
#include "telemetry/live.hpp"
#include "telemetry/registry.hpp"
#include "util/json.hpp"
#include "workload/workloads.hpp"

namespace {

using dike::bench::BenchOptions;
using dike::exp::RunMetrics;
using dike::exp::SchedulerKind;

const std::vector<int> kWorkloads{2, 7, 13};
const std::vector<SchedulerKind> kSweepKinds{
    SchedulerKind::Cfs, SchedulerKind::Dio, SchedulerKind::Dike,
    SchedulerKind::DikeAF, SchedulerKind::DikeAP};

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Simulated ticks per wall-clock second for one workload under Dike,
/// with and without tick leaping.
void runLeapThroughput(const BenchOptions& opts, dike::util::JsonObject& out) {
  std::printf("=== Engine throughput: simulated ticks per second ===\n");
  dike::util::TextTable table{{"workload", "ticks", "no-leap Mticks/s",
                               "leap Mticks/s", "leap speedup"}};
  dike::util::JsonArray perWorkload;
  std::vector<double> speedups;
  for (const int workloadId : kWorkloads) {
    dike::exp::RunSpec spec;
    spec.workloadId = workloadId;
    spec.kind = SchedulerKind::Dike;
    spec.scale = opts.scale;
    spec.seed = opts.seed;

    spec.machine.tickLeaping = false;
    auto start = std::chrono::steady_clock::now();
    const RunMetrics slow = dike::exp::runWorkload(spec);
    const double noLeapSec = secondsSince(start);

    spec.machine.tickLeaping = true;
    start = std::chrono::steady_clock::now();
    const RunMetrics fast = dike::exp::runWorkload(spec);
    const double leapSec = secondsSince(start);

    const double ticks = static_cast<double>(slow.makespan);
    const double noLeapRate = ticks / noLeapSec;
    const double leapRate = static_cast<double>(fast.makespan) / leapSec;
    const double speedup = noLeapSec / leapSec;
    speedups.push_back(speedup);
    table.newRow()
        .cell("wl" + std::to_string(workloadId))
        .cell(ticks, 0)
        .cell(noLeapRate / 1e6, 2)
        .cell(leapRate / 1e6, 2)
        .cell(speedup, 2);

    dike::util::JsonObject row;
    row.emplace("workload", workloadId);
    row.emplace("ticks", ticks);
    row.emplace("no_leap_ticks_per_sec", noLeapRate);
    row.emplace("leap_ticks_per_sec", leapRate);
    row.emplace("leap_speedup", speedup);
    perWorkload.emplace_back(std::move(row));
  }
  const double geo = dike::util::geometricMean(speedups);
  table.print();
  std::printf("\nTick-leaping speedup (geomean, single-threaded): %.2fx\n\n",
              geo);
  out.emplace("leap_per_workload", std::move(perWorkload));
  out.emplace("leap_speedup_geomean", geo);
}

/// Cost of the telemetry registry and of the live plane on the simulation
/// hot loop. The same workloads run under Dike in three modes: off (the
/// default; each registry site is one relaxed atomic load), registry on,
/// and live on (registry plus the live publisher, what `dike_run
/// --live-metrics` adds). One pass is tens of milliseconds, so passes
/// alternate off, registry, live until each mode has run for at least a
/// second; a mode's time is its mean pass, so drift in the host's speed
/// falls on every mode alike. The live budget is bench_check's
/// --max-live-overhead-pct.
void runOverhead(const BenchOptions& opts, dike::util::JsonObject& out) {
  enum Mode { Off, Registry, Live, kModes };
  auto timePass = [&opts](Mode mode) {
    dike::telemetry::setEnabled(mode != Off);
    dike::telemetry::setLiveEnabled(mode == Live);
    const auto start = std::chrono::steady_clock::now();
    for (const int workloadId : kWorkloads) {
      dike::exp::RunSpec spec;
      spec.workloadId = workloadId;
      spec.kind = SchedulerKind::Dike;
      spec.scale = opts.scale;
      spec.seed = opts.seed;
      spec.telemetry.livePublish = mode == Live;
      const RunMetrics m = dike::exp::runWorkload(spec);
      benchmark::DoNotOptimize(m.fairness);
    }
    const double sec = secondsSince(start);
    dike::telemetry::setLiveEnabled(false);
    dike::telemetry::setEnabled(false);
    return sec;
  };
  constexpr double kMinSecondsPerMode = 1.0;
  double total[kModes] = {};
  int passes = 0;
  while (*std::min_element(total, total + kModes) < kMinSecondsPerMode) {
    for (const Mode mode : {Off, Registry, Live}) total[mode] += timePass(mode);
    ++passes;
  }
  const auto meanPass = [&](Mode mode) { return total[mode] / passes; };
  const auto overheadPct = [&](Mode mode) {
    return (total[mode] / total[Off] - 1.0) * 100.0;
  };
  std::printf(
      "=== Telemetry and live-plane overhead (%zu workloads under Dike, "
      "%d alternating passes per mode) ===\n"
      "mean pass: off %.3fs   registry on %.3fs (%+.1f%%)   live on %.3fs "
      "(%+.1f%%)\n\n",
      kWorkloads.size(), passes, meanPass(Off), meanPass(Registry),
      overheadPct(Registry), meanPass(Live), overheadPct(Live));
  out.emplace("telemetry_off_sec", meanPass(Off));
  out.emplace("telemetry_on_sec", meanPass(Registry));
  out.emplace("telemetry_overhead_pct", overheadPct(Registry));
  out.emplace("live_off_sec", meanPass(Off));
  out.emplace("live_on_sec", meanPass(Live));
  out.emplace("live_overhead_pct", overheadPct(Live));
}

/// End-to-end Figure-6-shaped sweep (16 workloads x 5 schedulers) timed
/// serial/no-leap vs serial/leap vs parallel/leap.
void runSweepThroughput(const BenchOptions& opts,
                        dike::util::JsonObject& out) {
  std::vector<dike::exp::RunSpec> specs;
  for (int workloadId = 1; workloadId <= 16; ++workloadId) {
    for (const SchedulerKind kind : kSweepKinds) {
      dike::exp::RunSpec spec;
      spec.workloadId = workloadId;
      spec.kind = kind;
      spec.scale = opts.scale;
      spec.seed = opts.seed;
      specs.push_back(spec);
    }
  }

  auto timeSweep = [&specs](bool leap, int jobs) {
    std::vector<dike::exp::RunSpec> configured = specs;
    for (dike::exp::RunSpec& spec : configured)
      spec.machine.tickLeaping = leap;
    const auto start = std::chrono::steady_clock::now();
    const std::vector<RunMetrics> results =
        dike::exp::runWorkloadsParallel(configured, jobs);
    benchmark::DoNotOptimize(results.data());
    return secondsSince(start);
  };

  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int jobs = opts.jobs > 0 ? opts.jobs : hw;
  const double serialNoLeap = timeSweep(false, 1);
  const double serialLeap = timeSweep(true, 1);
  const double parallelLeap = jobs == 1 ? serialLeap : timeSweep(true, jobs);

  std::printf(
      "=== Figure-6-shaped sweep (%zu runs, scale=%.2f) ===\n"
      "serial/no-leap: %.2fs   serial/leap: %.2fs (%.2fx)   "
      "parallel/leap (%d jobs): %.2fs (%.2fx)\n",
      specs.size(), opts.scale, serialNoLeap, serialLeap,
      serialNoLeap / serialLeap, jobs, parallelLeap,
      serialNoLeap / parallelLeap);

  // Scaling curve: the leap sweep at every power-of-two job count up to
  // hardware_concurrency (always including both endpoints). On a 1-CPU
  // host this degenerates to the single jobs=1 point — the curve reports
  // what the machine can actually show, not an extrapolation.
  dike::util::JsonArray scaling;
  std::vector<int> jobCounts;
  for (int j = 1; j < hw; j *= 2) jobCounts.push_back(j);
  jobCounts.push_back(hw);
  std::printf("scaling curve (leap sweep): ");
  for (const int j : jobCounts) {
    const double sec = j == 1       ? serialLeap
                       : j == jobs  ? parallelLeap
                                    : timeSweep(true, j);
    std::printf("%dj=%.2fs ", j, sec);
    dike::util::JsonObject point;
    point.emplace("jobs", j);
    point.emplace("sweep_sec", sec);
    point.emplace("speedup_vs_1job", serialLeap / sec);
    scaling.emplace_back(std::move(point));
  }
  std::printf("\n");

  out.emplace("sweep_runs", static_cast<double>(specs.size()));
  out.emplace("sweep_scale", opts.scale);
  out.emplace("sweep_jobs", jobs);
  out.emplace("hardware_concurrency", hw);
  // Doubles per register of the leap replay's literal lanes (2, 4 or 8,
  // picked from the CPU at startup): leap speed-ups depend on it.
  out.emplace("replay_lane_width",
              static_cast<int>(dike::sim::literalKernel().width));
  out.emplace("sweep_serial_no_leap_sec", serialNoLeap);
  out.emplace("sweep_serial_leap_sec", serialLeap);
  out.emplace("sweep_parallel_leap_sec", parallelLeap);
  out.emplace("sweep_leap_speedup", serialNoLeap / serialLeap);
  out.emplace("sweep_total_speedup", serialNoLeap / parallelLeap);
  out.emplace("sweep_scaling", std::move(scaling));
}

/// One point of the thread-count scaling curve: an n-thread machine whose
/// sockets map one-to-one onto clusters in the clustered configuration.
struct ScalingPoint {
  int threads;        ///< == vcores; apps * threadsPerApp fills the machine
  int sockets;
  int physicalCores;  ///< per socket (x2 SMT ways)
  int clusters;       ///< one Dike instance per socket
};

constexpr ScalingPoint kScalingPoints[] = {
    {40, 2, 10, 2},     // the paper testbed shape
    {256, 8, 16, 8},
    {1024, 16, 32, 16},
    {4096, 32, 64, 32},
};

/// Mimics SchedulerAdapter::onQuantum (sample -> view -> decide) while
/// recording per-quantum decide latency: wall-clocked around onQuantum for
/// flat schedulers, lastDecideNs() (max-over-clusters per-instance latency)
/// for the clustered one, whose row-routing cost — simulator plumbing
/// with no deployed counterpart — lands in scatterNs instead.
class DecideLatencyPolicy final : public dike::sim::QuantumPolicy {
 public:
  /// `clustered` is `scheduler` itself when it is the clustered Dike,
  /// else nullptr.
  DecideLatencyPolicy(dike::sched::Scheduler& scheduler,
                      dike::core::ClusteredDikeScheduler* clustered)
      : scheduler_(&scheduler), clustered_(clustered) {}

  [[nodiscard]] dike::util::Tick quantumTicks() const override {
    return scheduler_->quantumTicks();
  }

  void onQuantum(dike::sim::Machine& machine) override {
    machine.sampleAndResetInto(sample_);
    dike::sched::MachineBackend backend{machine};
    dike::sched::SchedulerView view{backend, sample_};
    if (clustered_ != nullptr) {
      clustered_->onQuantum(view);
      decideNs.push_back(clustered_->lastDecideNs());
      decideWallNs.push_back(clustered_->lastDecideWallNs());
      scatterNs.push_back(clustered_->lastScatterNs());
    } else {
      const auto start = std::chrono::steady_clock::now();
      scheduler_->onQuantum(view);
      decideNs.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count());
      decideWallNs.push_back(decideNs.back());
    }
  }

  std::vector<std::int64_t> decideNs;
  std::vector<std::int64_t> decideWallNs;  ///< whole-quantum critical path
  std::vector<std::int64_t> scatterNs;

 private:
  dike::sched::Scheduler* scheduler_;
  dike::core::ClusteredDikeScheduler* clustered_;
  dike::sim::QuantumSample sample_;
};

std::int64_t percentile(std::vector<std::int64_t> v, int pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) * pct / 100];
}

/// A machine-filling workload: four alternating memory/compute apps at
/// threads/4 threads each (no kmeans), so every vcore is occupied.
dike::wl::WorkloadSpec scalingWorkload(int threads) {
  dike::wl::WorkloadSpec spec;
  spec.id = 0;
  spec.name = "scale" + std::to_string(threads);
  spec.apps = {"stream_omp", "hotspot", "jacobi", "srad"};
  spec.includeKmeans = false;
  return spec;
}

struct ScalingRun {
  std::int64_t decideP99Ns = 0;
  std::int64_t decideP50Ns = 0;
  std::int64_t decideWallP99Ns = 0;
  std::int64_t scatterP99Ns = 0;
  double ticksPerSec = 0.0;
};

ScalingRun runScalingPointOnce(const ScalingPoint& point, int clusters,
                               std::uint64_t seed, int decideJobs = 1) {
  std::vector<dike::sim::SocketSpec> sockets;
  for (int s = 0; s < point.sockets; ++s) {
    dike::sim::SocketSpec socket;
    socket.physicalCores = point.physicalCores;
    socket.smtWays = 2;
    // Alternate fast/slow sockets (the paper testbed's frequencies) so the
    // curve exercises the heterogeneous paths: class partitioning, pairing.
    const bool fast = s % 2 == 0;
    socket.freqGhz = fast ? 2.33 : 1.21;
    socket.type = fast ? dike::sim::CoreType::Fast : dike::sim::CoreType::Slow;
    sockets.push_back(socket);
  }

  dike::sim::MachineConfig machineCfg;
  machineCfg.seed = seed;
  dike::sim::Machine machine{dike::sim::MachineTopology{sockets}, machineCfg};

  const dike::wl::WorkloadSpec workload = scalingWorkload(point.threads);
  dike::wl::addWorkloadProcesses(machine, workload, /*scale=*/1.0,
                                 /*threadsPerApp=*/point.threads / 4);
  dike::sched::placeRandom(machine, seed);

  dike::core::DikeConfig cfg;
  cfg.cluster.clusters = clusters;
  cfg.cluster.decideJobs = decideJobs;
  std::unique_ptr<dike::sched::Scheduler> scheduler;
  dike::core::ClusteredDikeScheduler* clustered = nullptr;
  if (clusters >= 2) {
    auto owned = std::make_unique<dike::core::ClusteredDikeScheduler>(cfg);
    clustered = owned.get();
    scheduler = std::move(owned);
  } else {
    scheduler = std::make_unique<dike::core::DikeScheduler>(cfg);
  }

  DecideLatencyPolicy policy{*scheduler, clustered};
  constexpr int kWarmupQuanta = 4;
  constexpr int kMeasuredQuanta = 32;
  dike::sim::RunLimits limits;
  limits.maxTicks =
      scheduler->quantumTicks() * (kWarmupQuanta + kMeasuredQuanta);

  const auto start = std::chrono::steady_clock::now();
  const dike::sim::RunOutcome outcome = dike::sim::runMachine(machine, policy, limits);
  const double sec = secondsSince(start);

  auto dropWarmup = [](std::vector<std::int64_t>& samples) {
    if (samples.size() > kWarmupQuanta)
      samples.erase(samples.begin(), samples.begin() + kWarmupQuanta);
  };
  dropWarmup(policy.decideNs);
  dropWarmup(policy.decideWallNs);
  dropWarmup(policy.scatterNs);

  ScalingRun run;
  run.decideP99Ns = percentile(policy.decideNs, 99);
  run.decideP50Ns = percentile(policy.decideNs, 50);
  run.decideWallP99Ns = percentile(policy.decideWallNs, 99);
  run.scatterP99Ns = percentile(policy.scatterNs, 99);
  run.ticksPerSec = static_cast<double>(outcome.finishTick) / sec;
  return run;
}

/// Best-of-N over whole runs: a single preempted quantum inflates that
/// run's p99 (for the clustered scheduler the metric is a max over K
/// serial per-cluster timings, so any hiccup lands in it); the minimum
/// across repetitions is the machine's actual cost.
ScalingRun runScalingPoint(const ScalingPoint& point, int clusters,
                           std::uint64_t seed, int decideJobs = 1) {
  constexpr int kReps = 3;
  ScalingRun best = runScalingPointOnce(point, clusters, seed, decideJobs);
  for (int rep = 1; rep < kReps; ++rep) {
    const ScalingRun next =
        runScalingPointOnce(point, clusters, seed, decideJobs);
    best.decideP99Ns = std::min(best.decideP99Ns, next.decideP99Ns);
    best.decideP50Ns = std::min(best.decideP50Ns, next.decideP50Ns);
    best.decideWallP99Ns =
        std::min(best.decideWallP99Ns, next.decideWallP99Ns);
    best.scatterP99Ns = std::min(best.scatterP99Ns, next.scatterP99Ns);
    best.ticksPerSec = std::max(best.ticksPerSec, next.ticksPerSec);
  }
  return best;
}

/// Thread-count scaling curve: per-quantum decide latency (p99) and engine
/// throughput for the flat pipeline vs the clustered one, n = 40 -> 4096.
/// The clustered decide latency is per-instance (max over clusters), which
/// is what each socket's scheduler would spend when deployed; bench_check
/// gates the >= 8-cluster speedups (--min-cluster-speedup).
void runThreadScaling(const BenchOptions& opts, int maxThreads,
                      dike::util::JsonObject& out) {
  std::printf("=== Thread-count scaling: flat vs clustered decide p99 ===\n");
  dike::util::TextTable table{{"threads", "clusters", "flat p99 us",
                               "clustered p99 us", "speedup",
                               "scatter p99 us", "flat Mticks/s",
                               "clustered Mticks/s"}};
  dike::util::JsonArray curve;
  for (const ScalingPoint& point : kScalingPoints) {
    if (point.threads > maxThreads) {
      std::printf("(skipping n=%d: --max-threads=%d)\n", point.threads,
                  maxThreads);
      continue;
    }
    const ScalingRun flat = runScalingPoint(point, 0, opts.seed);
    const ScalingRun clustered =
        runScalingPoint(point, point.clusters, opts.seed);
    const double speedup =
        static_cast<double>(flat.decideP99Ns) /
        static_cast<double>(std::max<std::int64_t>(1, clustered.decideP99Ns));
    table.newRow()
        .cell(point.threads)
        .cell(point.clusters)
        .cell(static_cast<double>(flat.decideP99Ns) / 1e3, 1)
        .cell(static_cast<double>(clustered.decideP99Ns) / 1e3, 1)
        .cell(speedup, 2)
        .cell(static_cast<double>(clustered.scatterP99Ns) / 1e3, 1)
        .cell(flat.ticksPerSec / 1e6, 2)
        .cell(clustered.ticksPerSec / 1e6, 2);

    dike::util::JsonObject row;
    row.emplace("threads", point.threads);
    row.emplace("cores", point.threads);
    row.emplace("clusters", point.clusters);
    row.emplace("flat_decide_p99_ns", static_cast<double>(flat.decideP99Ns));
    row.emplace("flat_decide_p50_ns", static_cast<double>(flat.decideP50Ns));
    row.emplace("clustered_decide_p99_ns",
                static_cast<double>(clustered.decideP99Ns));
    row.emplace("clustered_decide_p50_ns",
                static_cast<double>(clustered.decideP50Ns));
    row.emplace("speedup_p99", speedup);
    row.emplace("scatter_p99_ns",
                static_cast<double>(clustered.scatterP99Ns));
    row.emplace("flat_ticks_per_sec", flat.ticksPerSec);
    row.emplace("clustered_ticks_per_sec", clustered.ticksPerSec);
    curve.emplace_back(std::move(row));
  }
  table.print();
  std::printf("\n");
  out.emplace("thread_scaling", std::move(curve));
}

/// Intra-quantum parallelism curve: the largest clustered scaling point
/// that fits --max-threads, decided with decideJobs = 1, 2, 4, ... up to
/// hardware_concurrency. The metric is the *wall-clock* decide p99
/// (lastDecideWallNs: concurrent plans + serial commits + rebalance) — the
/// quantity the shared task pool actually shortens; the modeled
/// max-over-clusters latency in thread_scaling is jobs-invariant by
/// design. bench_check gates the jobs >= 4 speedup
/// (--min-decide-parallel-speedup); on hosts without enough cores the
/// curve degenerates honestly and the gate passes vacuously (with a loud
/// warning).
void runDecideParallelScaling(const BenchOptions& opts, int maxThreads,
                              dike::util::JsonObject& out) {
  const ScalingPoint* point = nullptr;
  for (const ScalingPoint& candidate : kScalingPoints)
    if (candidate.threads <= maxThreads) point = &candidate;
  if (point == nullptr) {
    std::printf("=== Intra-quantum decide parallelism ===\n"
                "(skipped: --max-threads=%d below the smallest scaling "
                "point)\n\n",
                maxThreads);
    out.emplace("decide_parallel_scaling", dike::util::JsonArray{});
    return;
  }

  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<int> jobCounts;
  for (int j = 1; j < hw; j *= 2) jobCounts.push_back(j);
  jobCounts.push_back(hw);

  std::printf("=== Intra-quantum decide parallelism (n=%d, %d clusters) "
              "===\n",
              point->threads, point->clusters);
  dike::util::TextTable table{
      {"decide jobs", "decide p99 us", "speedup vs serial"}};
  dike::util::JsonArray curve;
  double serialP99 = 0.0;
  for (const int jobs : jobCounts) {
    const ScalingRun run =
        runScalingPoint(*point, point->clusters, opts.seed, jobs);
    const double p99 = static_cast<double>(run.decideWallP99Ns);
    if (jobs == 1) serialP99 = p99;
    const double speedup = serialP99 / std::max(1.0, p99);
    table.newRow().cell(jobs).cell(p99 / 1e3, 1).cell(speedup, 2);

    dike::util::JsonObject row;
    row.emplace("jobs", jobs);
    row.emplace("decide_p99_ns", p99);
    row.emplace("speedup_vs_serial", speedup);
    curve.emplace_back(std::move(row));
  }
  table.print();
  if (jobCounts.size() < 2)
    std::printf("(single-point curve: hardware_concurrency=%d — the host "
                "cannot demonstrate plan-phase parallelism)\n",
                hw);
  std::printf("\n");
  out.emplace("decide_parallel_threads", point->threads);
  out.emplace("decide_parallel_clusters", point->clusters);
  out.emplace("decide_parallel_scaling", std::move(curve));
}

void BM_RunLeap(benchmark::State& state) {
  for (auto _ : state) {
    dike::exp::RunSpec spec;
    spec.workloadId = 2;
    spec.kind = SchedulerKind::Dike;
    spec.scale = 0.25;
    const RunMetrics m = dike::exp::runWorkload(spec);
    benchmark::DoNotOptimize(m.fairness);
  }
}
BENCHMARK(BM_RunLeap)->Unit(benchmark::kMillisecond);

void BM_RunNoLeap(benchmark::State& state) {
  for (auto _ : state) {
    dike::exp::RunSpec spec;
    spec.workloadId = 2;
    spec.kind = SchedulerKind::Dike;
    spec.scale = 0.25;
    spec.machine.tickLeaping = false;
    const RunMetrics m = dike::exp::runWorkload(spec);
    benchmark::DoNotOptimize(m.fairness);
  }
}
BENCHMARK(BM_RunNoLeap)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts =
      dike::bench::parseOptions(argc, argv, {"json", "max-threads"});
  const dike::util::CliArgs args{argc, argv};
  const std::string jsonPath = args.getOr("json", "BENCH_sim.json");
  // Cap the scaling curve (smoke runs pass a small cap; the 4096-thread
  // point is the expensive one and only the full refresh/gate needs it).
  const int maxThreads = args.getInt("max-threads", 4096);

  dike::util::JsonObject out;
  out.emplace("bench", "sim_throughput");
  out.emplace("scale", opts.scale);
  out.emplace("seed", static_cast<std::int64_t>(opts.seed));
  runLeapThroughput(opts, out);
  runOverhead(opts, out);
  runSweepThroughput(opts, out);
  runThreadScaling(opts, maxThreads, out);
  runDecideParallelScaling(opts, maxThreads, out);

  const dike::util::JsonValue doc{std::move(out)};
  if (FILE* f = std::fopen(jsonPath.c_str(), "w")) {
    const std::string text = doc.dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nJSON written to %s\n", jsonPath.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
    return 1;
  }

  if (opts.runGoogleBenchmark) dike::bench::runRegisteredBenchmarks(argv[0]);
  return 0;
}
