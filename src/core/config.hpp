// Dike configuration: the two key scheduling parameters (swapSize,
// quantaLength), the fairness threshold, and the adaptation goal.
#pragma once

#include <array>
#include <cstdint>

namespace dike::core {

/// What the Optimizer tunes for (Section III-F). None = non-adaptive Dike
/// with fixed parameters.
enum class AdaptationGoal { None, Fairness, Performance };

/// The legal quantaLength values (milliseconds) — the paper's ladder.
inline constexpr std::array<int, 4> kQuantaLadderMs{100, 200, 500, 1000};

/// swapSize bounds: any even number from 2; Algorithm 2 caps growth at 16.
inline constexpr int kMinSwapSize = 2;
inline constexpr int kMaxSwapSize = 16;

/// The two key scheduling parameters as a value type (a "scheduler
/// configuration" in the paper's terms — 32 possible combinations).
struct DikeParams {
  int swapSize = 8;          ///< threads migrated per quantum (even)
  int quantaLengthMs = 500;  ///< time between scheduling decisions

  [[nodiscard]] friend bool operator==(const DikeParams&,
                                       const DikeParams&) = default;
};

/// Default (non-adaptive) configuration: the paper's <8, 500>.
[[nodiscard]] constexpr DikeParams defaultParams() noexcept {
  return DikeParams{8, 500};
}

/// Observer tuning.
struct ObserverConfig {
  /// LLC miss-ratio boundary between memory- and compute-intensive threads
  /// (the established 10% threshold the paper adopts from Xie & Loh).
  double llcMissThreshold = 0.10;
  /// CoreBW estimate. The default is the paper-literal moving mean over
  /// movingMeanWindow quanta; clearing symmetricMovingMean switches to an
  /// asymmetric high-water filter (rise immediately to demonstrated
  /// bandwidth, decay by coreBwDecay per quantum) explored in the ablation
  /// bench. Socket blending (socketShare) supplies capability information
  /// either way.
  double coreBwDecay = 0.90;
  bool symmetricMovingMean = true;
  std::size_t movingMeanWindow = 8;
  /// Cores of one socket are identical silicon: a core's capability estimate
  /// is at least this share of the best estimate seen on its socket.
  double socketShare = 0.8;
  /// Workload-class boundary: |#M - #C| <= tolerance * total => Balanced.
  double balanceTolerance = 0.125;
  /// Window (in quanta) of the per-thread moving-mean access rate the
  /// fairness signal is computed over. Smoothing over a few quanta makes
  /// rotation effective: alternating a thread between core types equalises
  /// the moving averages, so the fairness check can actually reach theta_f.
  std::size_t threadRateWindow = 6;
  /// Processes whose mean access rate is below this (accesses/second) are
  /// ignored by the fairness signal — their rates are noise-dominated.
  double processRateFloor = 1e5;
  /// Sample hygiene (resilience layer). When set, dropped or implausible
  /// counter readings (NaN, negative, above maxPlausibleRate) are replaced
  /// by the thread's last-known-good reading for up to maxSampleHoldQuanta
  /// quanta (the staleness age is exported on ThreadInfo); beyond that the
  /// thread is treated as unobserved for the quantum rather than poisoning
  /// the moving means.
  bool sanitizeSamples = true;
  int maxSampleHoldQuanta = 8;
  /// Access rates above this (accesses/second) are physically implausible
  /// for any machine this simulator models and are treated as corrupt.
  double maxPlausibleRate = 1e15;
};

/// Self-healing knobs (see docs/RESILIENCE.md for the degradation ladder).
struct ResilienceConfig {
  /// Divergence watchdog: when the mean signed prediction error stays at or
  /// beyond divergenceErrorThreshold for divergenceQuanta consecutive
  /// scored quanta, the closed-loop state (per-thread rate windows, CoreBW
  /// filters, sample holds) is reset and rebuilt from fresh observations.
  bool divergenceWatchdog = true;
  double divergenceErrorThreshold = 0.6;
  int divergenceQuanta = 8;
  /// Fairness watchdog: armed only while the fault layer reports injection
  /// active (setFaultsActiveHint). When unfairness stays above theta_f for
  /// fairnessStallQuanta consecutive quanta, Dike falls back to a blind
  /// round-robin rotation for fallbackQuanta quanta (or until the fairness
  /// signal recovers below theta_f, whichever is sooner), then resumes the
  /// predictive pipeline.
  bool fairnessWatchdog = true;
  int fairnessStallQuanta = 24;
  int fallbackQuanta = 16;
  /// Quanta a thread sits out after a failed swap/migration before the
  /// Decider lets it be actuated again (scaled by its consecutive-failure
  /// count, capped at 8x — a bounded backoff against a flapping actuator).
  int failedActuationCooldownQuanta = 1;
};

/// Clustered-scheduling knobs (large-machine mode; see DESIGN.md). With
/// `clusters <= 1` the flat single-instance DikeScheduler runs (so 0 and 1
/// are byte-identical — the equivalence the scale test tier enforces);
/// `clusters >= 2` splits the machine into that many contiguous core
/// ranges, each served by its own Dike instance over cluster-local
/// observations, with a top-level rebalancer migrating whole threads
/// between clusters on sustained fairness imbalance.
struct ClusterConfig {
  int clusters = 0;
  /// Rebalancer cadence: inspect per-cluster unfairness every N quanta.
  int rebalanceQuanta = 8;
  /// Imbalance trigger: max-min per-cluster unfairness must exceed this.
  double rebalanceThreshold = 0.02;
  /// Consecutive over-threshold inspections required before acting
  /// (transient skew across clusters must not cause migration churn).
  int rebalanceStreak = 3;
  /// Threads moved per rebalance action (whole-thread migrations).
  int rebalanceBudget = 2;
  /// Worker budget for the intra-quantum plan phase: the K cluster plans
  /// may run concurrently on the shared util::TaskPool. 1 (default) is the
  /// serial fast path, 0 resolves to util::defaultJobs() (the DIKE_JOBS
  /// knob), N caps the concurrent plans at N. Purely an execution knob:
  /// every value yields byte-identical decisions, reports, and checkpoints.
  int decideJobs = 1;

  /// decideJobs is deliberately excluded: it is how a run *executes*, not
  /// what it computes. Two configs differing only in decideJobs are the
  /// same logical configuration (the replay codec omits the knob for the
  /// same reason, so checkpoints byte-match across jobs counts).
  [[nodiscard]] friend bool operator==(const ClusterConfig& a,
                                       const ClusterConfig& b) {
    return a.clusters == b.clusters &&
           a.rebalanceQuanta == b.rebalanceQuanta &&
           a.rebalanceThreshold == b.rebalanceThreshold &&
           a.rebalanceStreak == b.rebalanceStreak &&
           a.rebalanceBudget == b.rebalanceBudget;
  }
};

/// Full Dike configuration.
struct DikeConfig {
  DikeParams params = defaultParams();
  /// theta_f: the system is fair when the coefficient of variation of
  /// homogeneous threads' access rates is below this (user-settable; the
  /// paper defaults to 0.1 on instantaneous rates — we default to 0.03
  /// because the signal is computed on cumulative rates, which disperse
  /// far less than instantaneous ones).
  double fairnessThreshold = 0.03;
  AdaptationGoal goal = AdaptationGoal::None;
  ObserverConfig observer{};
  ResilienceConfig resilience{};
  /// swapOH: average time a thread loses to a swap, in milliseconds (Eqn 2's
  /// overhead term) — the context switch plus the cache-refill penalty, as a
  /// system profiler would measure it end to end.
  double swapOhMs = 25.0;
  /// Do not swap a thread again for this many quanta (Section III-D: "Dike
  /// does not swap a thread in consecutive quanta").
  int cooldownQuanta = 1;
  /// Wall-clock floor on the cool-down window (see DeciderConfig).
  int minCooldownMs = 600;
  /// Decider rejects pairs with negative totalProfit (ablation switch).
  bool requirePositiveProfit = true;
  /// When the placement rule cannot be met (e.g. more memory threads than
  /// high-bandwidth cores), rotate by pairing the extreme threads on the
  /// wrong side — how Dike obeys the rule "on average, across several
  /// quanta" (Section III-B).
  bool rotateWhenNoViolator = true;
  /// Selector skips pairs whose moving-mean rates differ by less than this
  /// relative margin (swapping equals is churn).
  double pairRateMargin = 0.03;
  /// When applications finish, their cores free up; with this enabled Dike
  /// promotes starved threads into free high-bandwidth cores (and, when no
  /// high-bandwidth core is free, demotes surplus compute threads into free
  /// low-bandwidth cores to open one). Single migrations, not swaps.
  bool useFreeCores = true;
  /// Large-machine clustered mode (off by default: clusters == 0).
  ClusterConfig cluster{};
};

}  // namespace dike::core
