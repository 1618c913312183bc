#include "exp/supervise.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "ckpt/checkpoint.hpp"
#include "telemetry/health.hpp"
#include "telemetry/quantum_stream.hpp"
#include "telemetry/registry.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace dike::exp {

namespace fs = std::filesystem;

namespace {

std::int64_t steadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// 8-byte little-endian heartbeat record: the last completed quantum.
/// Single writes below PIPE_BUF are atomic, so the supervisor never sees a
/// torn record (it still buffers, since reads have no such guarantee).
void writeHeartbeat(int fd, std::int64_t quantum) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i)
    buf[i] = static_cast<unsigned char>(
        (static_cast<std::uint64_t>(quantum) >> (8 * i)) & 0xFF);
  for (;;) {
    const ssize_t n = ::write(fd, buf, sizeof buf);
    if (n == sizeof buf || (n < 0 && errno != EINTR)) return;
  }
}

/// Remove all but the newest `keep` checkpoints (lexicographic == quantum
/// order for canonical names).
void pruneCheckpoints(const std::string& ckptDir, int keep) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator{ckptDir, ec}) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".ckpt")) names.push_back(name);
  }
  std::sort(names.begin(), names.end(), std::greater<>{});
  for (std::size_t i = static_cast<std::size_t>(std::max(keep, 1));
       i < names.size(); ++i)
    ::unlink((ckptDir + "/" + names[i]).c_str());
}

}  // namespace

std::string_view toString(RestartCause cause) noexcept {
  switch (cause) {
    case RestartCause::Crash: return "crash";
    case RestartCause::Hang: return "hang";
    case RestartCause::CorruptCheckpoint: return "corrupt-checkpoint";
  }
  return "?";
}

std::string checkpointDir(const std::string& dir) { return dir + "/ckpt"; }
std::string streamPartPath(const std::string& dir) {
  return dir + "/stream.ndjson.part";
}
std::string streamFinalPath(const std::string& dir) {
  return dir + "/stream.ndjson";
}
std::string reportPath(const std::string& dir) { return dir + "/report.json"; }
std::string eventsPath(const std::string& dir) {
  return dir + "/supervise_events.ndjson";
}

int runSupervisedChild(const SuperviseSpec& spec, int heartbeatFd,
                       int attempt) try {
  const std::string ckptDir = checkpointDir(spec.dir);
  fs::create_directories(ckptDir);

  const ckpt::CheckpointDirScan scan = ckpt::findLatestValidCheckpoint(ckptDir);
  // First beat before the (comparatively slow) restore, so the supervisor
  // sees liveness from launch, not from the first completed quantum.
  if (heartbeatFd >= 0)
    writeHeartbeat(heartbeatFd, std::max<std::int64_t>(scan.quantum, 0));

  // A kill between the stream's final rename and the report write leaves
  // "final exists, part missing": move it back and let the resume re-step
  // (and re-trim) it into consistency.
  const std::string part = streamPartPath(spec.dir);
  const std::string final_ = streamFinalPath(spec.dir);
  if (!fs::exists(part) && fs::exists(final_))
    if (::rename(final_.c_str(), part.c_str()) != 0)
      throw std::runtime_error{"cannot move published stream back to " + part};

  // The stream writer fills a per-quantum buffer that the child appends to
  // the part file after each step — records reach the fd whole, so a kill
  // can tear at most the last line, which the next resume trims away.
  std::ostringstream buf;
  telemetry::QuantumStreamWriter writer{buf,
                                        telemetry::StreamFormat::JsonLines};
  std::unique_ptr<RunSession> session;
  if (!scan.path.empty()) {
    session = RunSession::restoreFromPayload(scan.payload, &writer);
    // The checkpoint claims quantumIndex() completed quanta; the stream was
    // fsynced before the checkpoint committed, so at least that many lines
    // exist. Anything beyond (later quanta, a torn tail) is re-derived.
    util::trimFileToLines(part, session->quantumIndex());
  } else {
    session = std::make_unique<RunSession>(spec.run);
    session->attachQuantumStream(writer);
    util::writeFileAtomic(part, "");
  }

  util::AppendFile stream{part};
  while (session->stepQuantum()) {
    const std::int64_t q = session->quantumIndex();
    stream.append(buf.view());
    buf.str("");
    if (attempt == 1 && spec.stallAtQuantum >= 0 && q == spec.stallAtQuantum) {
      // Hang-injection hook: the run wedges mid-quantum — this quantum's
      // heartbeat never goes out — and shrugs off SIGTERM, so the
      // supervisor must classify a hang and escalate to SIGKILL.
      ::signal(SIGTERM, SIG_IGN);
      for (;;) ::pause();
    }
    telemetry::heartbeat(q);
    if (heartbeatFd >= 0) writeHeartbeat(heartbeatFd, q);
    if (attempt == 1 && spec.crashAtQuantum >= 0 && q == spec.crashAtQuantum)
      return 13;  // crash-injection hook: die abruptly, mid-run
    if (spec.checkpointEvery > 0 && q % spec.checkpointEvery == 0) {
      // Order is the resume invariant: records 0..q-1 are durable before a
      // checkpoint claiming quantum q can exist under its final name.
      stream.flushSync();
      session->writeCheckpoint(ckptDir + "/" + ckpt::checkpointFileName(q));
      pruneCheckpoints(ckptDir, spec.keepCheckpoints);
    }
  }

  const RunMetrics metrics = session->finish();
  stream.append(buf.view());
  stream.flushSync();
  if (::rename(part.c_str(), final_.c_str()) != 0)
    throw std::runtime_error{"cannot publish quantum stream to " + final_};
  util::writeFileAtomic(reportPath(spec.dir),
                        runMetricsToJson(metrics).dump(2) + "\n");
  return 0;
} catch (const std::exception& e) {
  const std::string msg =
      std::string{"supervised child failed: "} + e.what() + "\n";
  (void)!::write(STDERR_FILENO, msg.data(), msg.size());
  return 12;
}

namespace {

/// Everything the supervisor tracks about one child launch.
struct ChildWatch {
  pid_t pid = -1;
  int pipeFd = -1;
  std::int64_t lastQuantum = -1;
  std::int64_t lastBeatMs = 0;
  std::string pending;  ///< partial heartbeat bytes (reads can split records)
};

/// Drain available heartbeat records; returns false on EOF (child gone).
bool drainHeartbeats(ChildWatch& watch, int attempt, const ChaosHook& chaos) {
  char buf[512];
  for (;;) {
    const ssize_t n = ::read(watch.pipeFd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      return true;  // EAGAIN etc.: nothing more right now
    }
    if (n == 0) return false;
    watch.pending.append(buf, static_cast<std::size_t>(n));
    while (watch.pending.size() >= 8) {
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(watch.pending[i]))
             << (8 * i);
      watch.pending.erase(0, 8);
      watch.lastQuantum = static_cast<std::int64_t>(v);
      watch.lastBeatMs = steadyNowMs();
      // Mirror the child's liveness into this process's /healthz, so a
      // dike_supervise --live-metrics endpoint reports child staleness.
      telemetry::heartbeat(watch.lastQuantum);
      if (chaos)
        if (const int sig = chaos(attempt, watch.lastQuantum); sig != 0)
          ::kill(-watch.pid, sig);
    }
    if (n < static_cast<ssize_t>(sizeof buf)) return true;
  }
}

/// Put a wedged child group down: SIGTERM, grace, SIGKILL; reap the leader.
/// Returns the raw wait status.
int terminateGroup(const ChildWatch& watch, int termGraceMs) {
  ::kill(-watch.pid, SIGTERM);
  const std::int64_t deadline = steadyNowMs() + termGraceMs;
  int status = 0;
  for (;;) {
    const pid_t reaped = ::waitpid(watch.pid, &status, WNOHANG);
    if (reaped == watch.pid) break;
    if (steadyNowMs() >= deadline) {
      // A SIGSTOPped child never sees the pending SIGTERM; SIGKILL cannot
      // be blocked, caught, or stopped out of.
      ::kill(-watch.pid, SIGKILL);
      while (::waitpid(watch.pid, &status, 0) < 0 && errno == EINTR) {}
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  return status;
}

/// True when no process in the child's group survives (ESRCH). Retries
/// briefly: group death is asynchronous after the leader is reaped.
bool groupIsGone(pid_t pgid) {
  const std::int64_t deadline = steadyNowMs() + 1000;
  for (;;) {
    if (::kill(-pgid, 0) != 0 && errno == ESRCH) return true;
    if (steadyNowMs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
}

void appendEvent(util::AppendFile& events, util::JsonObject fields) {
  events.append(util::JsonValue{std::move(fields)}.dump() + "\n");
  events.flushSync();
}

}  // namespace

SuperviseOutcome supervise(const SuperviseSpec& spec, const ChaosHook& chaos) {
  if (spec.dir.empty())
    throw std::runtime_error{"supervise: spec.dir must name a directory"};
  fs::create_directories(checkpointDir(spec.dir));
  util::AppendFile events{eventsPath(spec.dir)};

  SuperviseOutcome outcome;
  int backoffMs = 0;
  std::int64_t progressMark = -1;
  for (int attempt = 1;; ++attempt) {
    outcome.attempts = attempt;
    DIKE_COUNTER("supervise.attempts");

    // Pre-launch scan: what the child will resume from, and how many
    // damaged files the discovery had to step over (counted loudly).
    const ckpt::CheckpointDirScan scan =
        ckpt::findLatestValidCheckpoint(checkpointDir(spec.dir));
    const std::int64_t resumeQuantum = std::max<std::int64_t>(scan.quantum, 0);
    DIKE_COUNTER_ADD("supervise.corrupt_checkpoints",
                     static_cast<std::uint64_t>(scan.skipped.size()));
    DIKE_COUNTER_ADD("supervise.partial_checkpoints",
                     static_cast<std::uint64_t>(scan.partials.size()));
    for (const std::string& reason : scan.skipped)
      util::logWarn("supervise: skipping damaged checkpoint: ", reason);
    for (const std::string& reason : scan.partials)
      util::logWarn("supervise: ignoring interrupted checkpoint write: ",
                    reason);

    {
      util::JsonObject ev;
      ev.emplace("event", "launch");
      ev.emplace("attempt", attempt);
      ev.emplace("resumeQuantum", static_cast<double>(resumeQuantum));
      ev.emplace("corruptCheckpoints",
                 static_cast<double>(scan.skipped.size()));
      ev.emplace("partialCheckpoints",
                 static_cast<double>(scan.partials.size()));
      appendEvent(events, std::move(ev));
    }

    int pipeFds[2];
    if (::pipe(pipeFds) != 0)
      throw std::runtime_error{"supervise: pipe() failed"};
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(pipeFds[0]);
      ::close(pipeFds[1]);
      throw std::runtime_error{"supervise: fork() failed"};
    }
    if (pid == 0) {
      // Child: own process group, so crash cleanup and chaos signals reach
      // every descendant with one kill(-pgid). _exit skips atexit/stdio
      // teardown inherited from the parent image.
      ::setpgid(0, 0);
      ::close(pipeFds[0]);
      ::_exit(runSupervisedChild(spec, pipeFds[1], attempt));
    }
    ::setpgid(pid, pid);  // both sides set it: no race on the group id
    ::close(pipeFds[1]);

    ChildWatch watch;
    watch.pid = pid;
    watch.pipeFd = pipeFds[0];
    watch.lastBeatMs = steadyNowMs();
    watch.lastQuantum = resumeQuantum;

    bool hang = false;
    bool childGone = false;
    int status = 0;
    while (!childGone && !hang) {
      const std::int64_t ageMs = steadyNowMs() - watch.lastBeatMs;
      const int waitMs =
          std::max(1, spec.heartbeatDeadlineMs - static_cast<int>(ageMs));
      pollfd pfd{watch.pipeFd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, waitMs);
      if (ready > 0) {
        if (!drainHeartbeats(watch, attempt, chaos)) {
          childGone = true;
          while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
        }
      } else if (steadyNowMs() - watch.lastBeatMs >= spec.heartbeatDeadlineMs) {
        hang = true;
        status = terminateGroup(watch, spec.termGraceMs);
      }
    }
    ::close(watch.pipeFd);
    if (!groupIsGone(pid)) {
      outcome.orphansLeft = true;
      ::kill(-pid, SIGKILL);  // last resort; still reported as a failure
    }
    outcome.finalQuantum = std::max(outcome.finalQuantum, watch.lastQuantum);

    const bool exitedOk = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!hang && exitedOk && fs::exists(reportPath(spec.dir))) {
      outcome.succeeded = true;
      outcome.metrics =
          runMetricsFromJson(util::parseJsonFile(reportPath(spec.dir)));
      util::JsonObject ev;
      ev.emplace("event", "success");
      ev.emplace("attempts", attempt);
      ev.emplace("finalQuantum", static_cast<double>(outcome.finalQuantum));
      appendEvent(events, std::move(ev));
      return outcome;
    }

    // Classify the death for provenance. Corrupt checkpoints found by the
    // *next* scan belong to the next launch event; the skip count recorded
    // here is what this launch already stepped over.
    RestartEvent restart;
    restart.attempt = attempt;
    restart.cause = hang ? RestartCause::Hang : RestartCause::Crash;
    if (!hang && !scan.skipped.empty())
      restart.cause = RestartCause::CorruptCheckpoint;
    restart.termSignal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    restart.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    restart.lastQuantum = watch.lastQuantum;
    restart.resumeQuantum = resumeQuantum;
    restart.corruptCheckpoints = static_cast<std::int64_t>(scan.skipped.size());
    // Separate macro sites: DIKE_COUNTER caches its registry lookup in a
    // function-local static, so one site must not serve two names.
    if (hang) {
      DIKE_COUNTER("supervise.hangs");
    } else {
      DIKE_COUNTER("supervise.crashes");
    }

    if (attempt > spec.maxRestarts) {
      outcome.gaveUp = true;
      outcome.restarts.push_back(restart);
      DIKE_COUNTER("supervise.give_ups");
      util::JsonObject ev;
      ev.emplace("event", "give-up");
      ev.emplace("attempts", attempt);
      ev.emplace("cause", std::string{toString(restart.cause)});
      appendEvent(events, std::move(ev));
      return outcome;
    }

    // Bounded exponential backoff, reset whenever the run made progress
    // between deaths (same escalation shape as oslinux/retry.hpp).
    if (watch.lastQuantum > progressMark) {
      progressMark = watch.lastQuantum;
      backoffMs = 0;
    }
    backoffMs = backoffMs == 0
                    ? spec.initialBackoffMs
                    : std::min(backoffMs * 2, spec.maxBackoffMs);
    restart.backoffMs = backoffMs;
    outcome.restarts.push_back(restart);
    DIKE_COUNTER("supervise.restarts");
    {
      util::JsonObject ev;
      ev.emplace("event", "restart");
      ev.emplace("attempt", attempt);
      ev.emplace("cause", std::string{toString(restart.cause)});
      ev.emplace("termSignal", restart.termSignal);
      ev.emplace("exitCode", restart.exitCode);
      ev.emplace("lastQuantum", static_cast<double>(restart.lastQuantum));
      ev.emplace("resumeQuantum", static_cast<double>(restart.resumeQuantum));
      ev.emplace("corruptCheckpoints",
                 static_cast<double>(restart.corruptCheckpoints));
      ev.emplace("backoffMs", restart.backoffMs);
      appendEvent(events, std::move(ev));
    }
    util::logWarn("supervise: child died (", toString(restart.cause),
                  ", last quantum ", restart.lastQuantum, "); restarting from ",
                  resumeQuantum, " after ", backoffMs, "ms (attempt ",
                  attempt + 1, "/", spec.maxRestarts + 1, ")");
    std::this_thread::sleep_for(std::chrono::milliseconds{backoffMs});
  }
}

namespace {

std::string readWholeFile(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return in ? buf.str() : std::string{};
}

std::vector<std::string> checkpointNames(const std::string& ckptDir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator{ckptDir, ec}) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".ckpt")) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

ChaosReport runChaos(const ChaosSpec& chaos) {
  ChaosReport report;

  // Uninterrupted twin, in-process, through the exact child code path so
  // its artifacts are byte-comparable by construction.
  SuperviseSpec twinSpec = chaos.spec;
  twinSpec.dir = chaos.spec.dir + ".twin";
  twinSpec.crashAtQuantum = -1;
  twinSpec.stallAtQuantum = -1;
  fs::create_directories(twinSpec.dir);
  if (const int code = runSupervisedChild(twinSpec, -1, 1); code != 0)
    throw std::runtime_error{"chaos twin run failed with code " +
                             std::to_string(code)};
  {
    const std::string text = readWholeFile(streamFinalPath(twinSpec.dir));
    report.twinQuanta = static_cast<std::int64_t>(
        std::count(text.begin(), text.end(), '\n'));
  }
  if (report.twinQuanta < 4)
    throw std::runtime_error{
        "chaos run is too short to interrupt: the twin completed in " +
        std::to_string(report.twinQuanta) + " quanta"};

  // Seeded schedule: distinct target quanta, strictly ascending, each
  // paired with SIGKILL or SIGSTOP (assignment shuffled by the same seed).
  struct Injection {
    std::int64_t quantum;
    int sig;
  };
  std::mt19937_64 rng{chaos.seed};
  const int total = chaos.kills + chaos.stops;
  std::vector<std::int64_t> quanta;
  {
    std::uniform_int_distribution<std::int64_t> pick{1, report.twinQuanta - 2};
    while (static_cast<int>(quanta.size()) < total) {
      const std::int64_t q = pick(rng);
      if (std::find(quanta.begin(), quanta.end(), q) == quanta.end())
        quanta.push_back(q);
    }
    std::sort(quanta.begin(), quanta.end());
  }
  std::vector<int> sigs(static_cast<std::size_t>(chaos.kills), SIGKILL);
  sigs.insert(sigs.end(), static_cast<std::size_t>(chaos.stops), SIGSTOP);
  std::shuffle(sigs.begin(), sigs.end(), rng);
  std::vector<Injection> plan;
  plan.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i)
    plan.push_back({quanta[static_cast<std::size_t>(i)],
                    sigs[static_cast<std::size_t>(i)]});

  SuperviseSpec spec = chaos.spec;
  spec.maxRestarts = std::max(spec.maxRestarts, total + 4);
  fs::create_directories(spec.dir);
  std::size_t next = 0;
  const ChaosHook hook = [&](int, std::int64_t quantum) -> int {
    if (next >= plan.size() || quantum < plan[next].quantum) return 0;
    const int sig = plan[next].sig;
    ++next;
    if (sig == SIGKILL)
      ++report.killsDelivered;
    else
      ++report.stopsDelivered;
    return sig;
  };
  report.outcome = supervise(spec, hook);

  // Differential comparison: report, stream, and surviving checkpoints
  // must be byte-identical to the twin's.
  const auto compare = [&report](const std::string& what,
                                 const std::string& a, const std::string& b,
                                 bool& flag) {
    const std::string bytesA = readWholeFile(a);
    const std::string bytesB = readWholeFile(b);
    flag = !bytesA.empty() && bytesA == bytesB;
    if (!flag && report.firstDifference.empty())
      report.firstDifference =
          what + ": " + (bytesA.empty() ? "missing/empty " + a
                                        : "bytes differ (" + a + " vs " + b +
                                              ")");
  };
  compare("report", reportPath(spec.dir), reportPath(twinSpec.dir),
          report.reportIdentical);
  compare("stream", streamFinalPath(spec.dir), streamFinalPath(twinSpec.dir),
          report.streamIdentical);
  const std::vector<std::string> mine = checkpointNames(checkpointDir(spec.dir));
  const std::vector<std::string> twins =
      checkpointNames(checkpointDir(twinSpec.dir));
  report.checkpointsIdentical = !mine.empty() && mine == twins;
  if (!report.checkpointsIdentical) {
    if (report.firstDifference.empty())
      report.firstDifference = "checkpoints: surviving file sets differ (" +
                               std::to_string(mine.size()) + " vs " +
                               std::to_string(twins.size()) + ")";
  } else {
    for (const std::string& name : mine) {
      bool same = false;
      compare("checkpoint " + name, checkpointDir(spec.dir) + "/" + name,
              checkpointDir(twinSpec.dir) + "/" + name, same);
      report.checkpointsIdentical = report.checkpointsIdentical && same;
    }
  }
  return report;
}

}  // namespace dike::exp
