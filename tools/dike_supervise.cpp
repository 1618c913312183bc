// dike_supervise: crash-tolerant execution of a single checkpointed run.
//
//   dike_supervise <config.json> --dir out/  [policy flags] [--json o.json]
//                  [--live-metrics PORT [--live-port-file p.txt]]
//   dike_supervise <config.json> --dir out/ --chaos-kills N --chaos-stops M
//                  [--chaos-seed S]
//
// Runs the experiment's first cell (like dike_run --checkpoint-out) inside
// a forked, heartbeat-monitored child: crashes and hangs are detected and
// the run auto-resumes from the newest valid checkpoint until it completes
// or the restart budget is spent. Artifacts land in --dir: report.json,
// stream.ndjson (per-quantum metrics), ckpt/ (rolling checkpoints), and
// supervise_events.ndjson (restart provenance).
//
// Chaos mode turns the tool into its own proof: it SIGKILLs / SIGSTOPs the
// child at seeded random quanta, then byte-compares the final artifacts
// against an uninterrupted twin run.
//
// --live-metrics serves /metrics and /healthz from the *supervisor*, which
// mirrors the child's heartbeats — so /healthz reports the run's liveness
// (last quantum, heartbeat age) even while the child is being killed and
// restarted underneath it.

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "exp/config_io.hpp"
#include "exp/replay.hpp"
#include "exp/supervise.hpp"
#include "telemetry/promhttp.hpp"
#include "telemetry/registry.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

dike::exp::SuperviseSpec specFromArgs(const dike::util::CliArgs& args) {
  const dike::util::JsonValue document =
      dike::util::parseJsonFile(args.positional().front());
  dike::exp::SuperviseSpec spec;
  spec.run = dike::exp::firstCellRunSpec(
      dike::exp::parseExperimentConfig(document));

  const auto dir = args.get("dir");
  if (!dir || dir->empty())
    throw std::runtime_error{"--dir <artifact directory> is required"};
  spec.dir = *dir;

  const auto intFlag = [&args](const char* flag, std::int64_t fallback,
                               std::int64_t min) {
    const std::int64_t v = args.getInt64(flag, fallback);
    if (v < min)
      throw std::runtime_error{std::string{"--"} + flag + " must be >= " +
                               std::to_string(min)};
    return v;
  };
  spec.checkpointEvery = intFlag("checkpoint-every", spec.checkpointEvery, 1);
  spec.keepCheckpoints =
      static_cast<int>(intFlag("keep-checkpoints", spec.keepCheckpoints, 1));
  spec.heartbeatDeadlineMs = static_cast<int>(
      intFlag("heartbeat-deadline-ms", spec.heartbeatDeadlineMs, 1));
  spec.termGraceMs =
      static_cast<int>(intFlag("term-grace-ms", spec.termGraceMs, 1));
  spec.maxRestarts =
      static_cast<int>(intFlag("max-restarts", spec.maxRestarts, 0));
  spec.initialBackoffMs =
      static_cast<int>(intFlag("backoff-ms", spec.initialBackoffMs, 0));
  spec.maxBackoffMs =
      static_cast<int>(intFlag("max-backoff-ms", spec.maxBackoffMs, 0));
  return spec;
}

dike::util::JsonValue restartToJson(const dike::exp::RestartEvent& r) {
  dike::util::JsonObject o;
  o.emplace("attempt", r.attempt);
  o.emplace("cause", std::string{toString(r.cause)});
  o.emplace("termSignal", r.termSignal);
  o.emplace("exitCode", r.exitCode);
  o.emplace("lastQuantum", static_cast<double>(r.lastQuantum));
  o.emplace("resumeQuantum", static_cast<double>(r.resumeQuantum));
  o.emplace("corruptCheckpoints", static_cast<double>(r.corruptCheckpoints));
  o.emplace("backoffMs", r.backoffMs);
  return dike::util::JsonValue{std::move(o)};
}

dike::util::JsonValue outcomeToJson(const dike::exp::SuperviseOutcome& out) {
  dike::util::JsonObject o;
  o.emplace("succeeded", out.succeeded);
  o.emplace("gaveUp", out.gaveUp);
  o.emplace("attempts", out.attempts);
  o.emplace("finalQuantum", static_cast<double>(out.finalQuantum));
  o.emplace("orphansLeft", out.orphansLeft);
  dike::util::JsonArray restarts;
  for (const dike::exp::RestartEvent& r : out.restarts)
    restarts.push_back(restartToJson(r));
  o.emplace("restarts", std::move(restarts));
  if (out.succeeded) o.emplace("metrics", dike::exp::runMetricsToJson(out.metrics));
  return dike::util::JsonValue{std::move(o)};
}

void maybeWriteJson(const dike::util::CliArgs& args,
                    const dike::util::JsonValue& doc) {
  if (const auto path = args.get("json"))
    dike::util::writeFileAtomic(*path, doc.dump(2) + "\n");
}

/// Optional /metrics + /healthz endpoint served by the supervisor itself.
/// The supervisor stamps telemetry::heartbeat from the child's pipe beats,
/// so /healthz stays truthful across child deaths and restarts.
class SupervisorHttp {
 public:
  SupervisorHttp(int port, const std::string& portFile) {
    dike::telemetry::setEnabled(true);  // supervise.* counters register
    server_.start(static_cast<std::uint16_t>(port));
    std::printf("supervisor metrics: http://127.0.0.1:%u/metrics "
                "(liveness: /healthz)\n",
                static_cast<unsigned>(server_.port()));
    if (!portFile.empty()) {
      std::ofstream out{portFile, std::ios::trunc};
      out << server_.port() << '\n';
      if (!out)
        throw std::runtime_error{"failed writing --live-port-file: " +
                                 portFile};
    }
  }
  ~SupervisorHttp() { server_.stop(); }
  SupervisorHttp(const SupervisorHttp&) = delete;
  SupervisorHttp& operator=(const SupervisorHttp&) = delete;

 private:
  dike::telemetry::PromHttpServer server_;
};

}  // namespace

int main(int argc, char** argv) {
  const dike::util::CliArgs args{argc, argv};
  if (args.positional().empty()) {
    std::fprintf(
        stderr,
        "usage: %s <config.json> --dir out/ [--checkpoint-every N]\n"
        "          [--keep-checkpoints N] [--heartbeat-deadline-ms N]\n"
        "          [--term-grace-ms N] [--max-restarts N] [--backoff-ms N]\n"
        "          [--max-backoff-ms N] [--json outcome.json]\n"
        "          [--live-metrics PORT [--live-port-file p.txt]]\n"
        "       %s <config.json> --dir out/ --chaos-kills N --chaos-stops M\n"
        "          [--chaos-seed S] [--json report.json]\n",
        args.programName().c_str(), args.programName().c_str());
    return 2;
  }
  try {
    dike::exp::SuperviseSpec spec = specFromArgs(args);

    std::optional<SupervisorHttp> http;
    if (args.has("live-metrics")) {
      const std::int64_t port = args.getInt64("live-metrics", -1);
      if (port < 0 || port > 65535)
        throw std::runtime_error{
            "--live-metrics port must be in [0, 65535] (0 = ephemeral)"};
      http.emplace(static_cast<int>(port),
                   args.get("live-port-file").value_or(""));
    }

    if (args.has("chaos-kills") || args.has("chaos-stops")) {
      dike::exp::ChaosSpec chaos;
      chaos.spec = spec;
      chaos.kills = static_cast<int>(args.getInt64("chaos-kills", 0));
      chaos.stops = static_cast<int>(args.getInt64("chaos-stops", 0));
      chaos.seed = static_cast<std::uint64_t>(args.getInt64("chaos-seed", 1));
      if (chaos.kills < 0 || chaos.stops < 0 || chaos.kills + chaos.stops < 1)
        throw std::runtime_error{
            "chaos mode needs --chaos-kills/--chaos-stops >= 0, sum >= 1"};
      const dike::exp::ChaosReport report = dike::exp::runChaos(chaos);
      std::printf(
          "chaos: %d kill(s) + %d stop(s) over %lld quanta -> %d attempt(s); "
          "report %s, stream %s, checkpoints %s%s%s\n",
          report.killsDelivered, report.stopsDelivered,
          static_cast<long long>(report.twinQuanta), report.outcome.attempts,
          report.reportIdentical ? "identical" : "DIFFERS",
          report.streamIdentical ? "identical" : "DIFFERS",
          report.checkpointsIdentical ? "identical" : "DIFFER",
          report.firstDifference.empty() ? "" : "\nfirst difference: ",
          report.firstDifference.c_str());
      dike::util::JsonObject o;
      o.emplace("killsDelivered", report.killsDelivered);
      o.emplace("stopsDelivered", report.stopsDelivered);
      o.emplace("twinQuanta", static_cast<double>(report.twinQuanta));
      o.emplace("reportIdentical", report.reportIdentical);
      o.emplace("streamIdentical", report.streamIdentical);
      o.emplace("checkpointsIdentical", report.checkpointsIdentical);
      o.emplace("firstDifference", report.firstDifference);
      o.emplace("passed", report.passed());
      o.emplace("outcome", outcomeToJson(report.outcome));
      maybeWriteJson(args, dike::util::JsonValue{std::move(o)});
      return report.passed() ? 0 : 1;
    }

    const dike::exp::SuperviseOutcome outcome = dike::exp::supervise(spec);
    maybeWriteJson(args, outcomeToJson(outcome));
    if (outcome.succeeded) {
      std::printf("%s", dike::exp::runMetricsToJson(outcome.metrics)
                            .dump(2)
                            .c_str());
      std::printf("\nsupervised run complete: %d attempt(s), %zu restart(s), "
                  "final quantum %lld\n",
                  outcome.attempts, outcome.restarts.size(),
                  static_cast<long long>(outcome.finalQuantum));
      return 0;
    }
    std::fprintf(stderr,
                 "supervised run FAILED after %d attempt(s)%s (last quantum "
                 "%lld)\n",
                 outcome.attempts, outcome.gaveUp ? " (gave up)" : "",
                 static_cast<long long>(outcome.finalQuantum));
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
