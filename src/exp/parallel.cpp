#include "exp/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "exp/replay.hpp"
#include "telemetry/live.hpp"
#include "telemetry/registry.hpp"
#include "util/json.hpp"

namespace dike::exp {

void parallelFor(std::size_t count,
                 const std::function<void(std::size_t)>& fn, int jobs) {
  if (count == 0) return;
  if (jobs <= 0) jobs = util::defaultJobs();
  jobs = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs), count));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Task telemetry lives here, not in the pool: util cannot depend on the
  // telemetry layer, and only experiment fan-out wants per-job accounting.
  const auto instrumented = [&fn](std::size_t i) {
    DIKE_SCOPE_TIMER("exp.pool.task_time");
    const bool live = telemetry::liveEnabled();
    const auto jobStart = live ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
    fn(i);
    if (live) {
      // Process-wide job ordinal: the pool is shared, but the live plane
      // only needs a distinguishing id per record.
      static std::atomic<std::uint32_t> jobOrdinal{0};
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - jobStart;
      telemetry::publish(telemetry::EventKind::SweepJobSeconds,
                         jobOrdinal.fetch_add(1, std::memory_order_relaxed),
                         0, elapsed.count());
    }
    DIKE_COUNTER("exp.pool.tasks");
  };
  util::TaskPool::shared().forEach(count, instrumented, jobs);
}

std::vector<RunMetrics> runWorkloadsParallel(std::span<const RunSpec> specs,
                                             int jobs) {
  std::vector<RunMetrics> results(specs.size());
  parallelFor(
      specs.size(),
      [&](std::size_t i) { results[i] = runWorkload(specs[i]); }, jobs);
  return results;
}

std::uint64_t sweepFingerprint(std::span<const RunSpec> specs) {
  util::JsonArray encoded;
  encoded.reserve(specs.size());
  for (const RunSpec& spec : specs) encoded.push_back(runSpecToJson(spec));
  return ckpt::fnv1a64(util::JsonValue{std::move(encoded)}.dump());
}

namespace {

void writeFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    if (!out)
      throw std::runtime_error{"failed to write sweep state file: " + tmp};
  }
  std::filesystem::rename(tmp, path);
}

}  // namespace

std::vector<RunMetrics> runWorkloadsParallel(std::span<const RunSpec> specs,
                                             int jobs,
                                             const std::string& stateFile) {
  if (stateFile.empty()) return runWorkloadsParallel(specs, jobs);

  const std::string fingerprint = std::to_string(sweepFingerprint(specs));
  util::JsonObject completed;  // index (decimal string) -> metrics JSON
  if (std::filesystem::exists(stateFile)) {
    const util::JsonValue state = util::parseJsonFile(stateFile);
    const std::string theirs = state.stringOr("sweepFingerprint", "");
    if (theirs != fingerprint)
      throw std::runtime_error{
          "sweep state file '" + stateFile +
          "' was written for a different spec list (fingerprint " + theirs +
          ", this sweep is " + fingerprint +
          ") — delete it or rerun the original sweep"};
    if (const auto done = state.get("completed"))
      completed = done->asObject();
  }

  std::vector<RunMetrics> results(specs.size());
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = completed.find(std::to_string(i));
    if (it != completed.end())
      results[i] = runMetricsFromJson(it->second);
    else
      pending.push_back(i);
  }

  std::mutex stateMu;
  const auto snapshotState = [&] {  // callers hold stateMu
    util::JsonObject state;
    state["sweepFingerprint"] = fingerprint;
    state["completed"] = util::JsonValue{completed};
    writeFileAtomic(stateFile, util::JsonValue{std::move(state)}.dump(2));
  };

  parallelFor(
      pending.size(),
      [&](std::size_t p) {
        const std::size_t i = pending[p];
        RunMetrics metrics = runWorkload(specs[i]);
        {
          const std::lock_guard lock{stateMu};
          completed[std::to_string(i)] = runMetricsToJson(metrics);
          snapshotState();
        }
        results[i] = std::move(metrics);
      },
      jobs);

  std::filesystem::remove(stateFile);
  return results;
}

}  // namespace dike::exp
