#include "exp/chrome_trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/csv.hpp"

namespace dike::exp {

namespace {

constexpr int kCoresPid = 1;
constexpr int kThreadsPid = 2;
constexpr int kSchedulerPid = 3;

/// 1 tick = 1 ms of simulated time; trace_event timestamps are in µs.
double toMicros(util::Tick tick) { return static_cast<double>(tick) * 1000.0; }

util::JsonObject makeEvent(std::string name, std::string_view ph, int pid,
                           int tid, util::Tick tick) {
  util::JsonObject e;
  e.emplace("name", std::move(name));
  e.emplace("ph", std::string{ph});
  e.emplace("pid", pid);
  e.emplace("tid", tid);
  e.emplace("ts", toMicros(tick));
  return e;
}

util::JsonObject makeSlice(std::string name, std::string_view cat, int pid,
                           int tid, util::Tick from, util::Tick to) {
  util::JsonObject e = makeEvent(std::move(name), "X", pid, tid, from);
  e.emplace("cat", std::string{cat});
  e.emplace("dur", toMicros(std::max<util::Tick>(0, to - from)));
  return e;
}

util::JsonObject makeMetadata(std::string_view metaName, int pid, int tid,
                              std::string label) {
  util::JsonObject e = makeEvent(std::string{metaName}, "M", pid, tid, 0);
  util::JsonObject args;
  args.emplace("name", std::move(label));
  e.emplace("args", std::move(args));
  return e;
}

util::JsonValue numberOrNull(double v) {
  if (std::isnan(v)) return util::JsonValue{nullptr};
  return util::JsonValue{v};
}

/// Per-thread builder state while walking the event stream.
struct ThreadState {
  int processId = -1;
  int core = -1;                ///< current core, -1 when unplaced/finished
  util::Tick residencyFrom = 0;
  int phase = -1;               ///< current phase index, -1 when none open
  util::Tick phaseFrom = 0;
  int barrier = -1;             ///< open barrier id, -1 when none
  util::Tick barrierFrom = 0;
  int interruptedPhase = 0;     ///< phase to resume after a barrier release
  bool finished = false;
};

/// "<prefix><id>", e.g. "p3". Appended rather than `"p" + to_string(id)`,
/// whose inlined insert GCC 12 misreports under -O3 as an overlapping copy
/// (-Wrestrict).
std::string prefixedId(char prefix, int id) {
  std::string out(1, prefix);
  out += std::to_string(id);
  return out;
}

}  // namespace

ChromeTraceMeta metaFromMachine(const sim::Machine& machine) {
  ChromeTraceMeta meta;
  const sim::MachineTopology& topo = machine.topology();
  meta.coreCount = topo.coreCount();
  meta.coreSocket.reserve(static_cast<std::size_t>(meta.coreCount));
  meta.coreFast.reserve(static_cast<std::size_t>(meta.coreCount));
  for (int c = 0; c < meta.coreCount; ++c) {
    meta.coreSocket.push_back(topo.core(c).socket);
    meta.coreFast.push_back(topo.core(c).type == sim::CoreType::Fast);
  }
  for (const sim::SimProcess& p : machine.processes())
    meta.processNames.push_back(p.name);
  meta.endTick = machine.now();
  return meta;
}

ChromeTraceMeta metaFromEvents(const std::vector<sim::TraceEvent>& events) {
  ChromeTraceMeta meta;
  int maxProcess = -1;
  for (const sim::TraceEvent& e : events) {
    meta.coreCount = std::max(meta.coreCount, std::max(e.fromCore, e.toCore) + 1);
    maxProcess = std::max(maxProcess, e.processId);
    meta.endTick = std::max(meta.endTick, e.tick);
  }
  for (int p = 0; p <= maxProcess; ++p)
    meta.processNames.push_back(prefixedId('p', p));
  return meta;
}

util::JsonValue buildChromeTrace(const std::vector<sim::TraceEvent>& events,
                                 const ChromeTraceMeta& meta,
                                 const telemetry::DecisionTrace* decisions) {
  util::JsonArray out;
  // Upper-bound estimate of the emission count: fixed metadata, at most two
  // entries per machine event (a close + an open), the end-of-window closes,
  // and two entries per decision record. One reservation instead of
  // log2(n) reallocation-and-move cycles of the whole event array.
  out.reserve(2 + static_cast<std::size_t>(std::max(0, meta.coreCount)) +
              events.size() * 2 +
              (decisions != nullptr ? decisions->records().size() * 2 + 2
                                    : 0));

  const auto processName = [&meta](int processId) -> std::string {
    if (processId >= 0 &&
        processId < static_cast<int>(meta.processNames.size()))
      return meta.processNames[static_cast<std::size_t>(processId)];
    return prefixedId('p', processId);
  };

  // Track-naming metadata. Core tracks are ordered by core id; labels carry
  // the (observable) topology when the meta has it.
  out.emplace_back(makeMetadata("process_name", kCoresPid, 0, "cores"));
  out.emplace_back(makeMetadata("process_name", kThreadsPid, 0, "threads"));
  for (int c = 0; c < meta.coreCount; ++c) {
    std::string label = "core " + std::to_string(c);
    if (static_cast<std::size_t>(c) < meta.coreFast.size())
      label += meta.coreFast[static_cast<std::size_t>(c)] ? " [fast" : " [slow";
    if (static_cast<std::size_t>(c) < meta.coreSocket.size())
      label += " s" +
               std::to_string(meta.coreSocket[static_cast<std::size_t>(c)]) +
               "]";
    else if (static_cast<std::size_t>(c) < meta.coreFast.size())
      label += "]";
    out.emplace_back(makeMetadata("thread_name", kCoresPid, c, std::move(label)));
  }

  std::map<int, ThreadState> threads;

  const auto closeResidency = [&](int threadId, ThreadState& t,
                                  util::Tick upTo) {
    if (t.core < 0) return;
    util::JsonObject slice =
        makeSlice(prefixedId('t', threadId), "residency", kCoresPid,
                  t.core, t.residencyFrom, upTo);
    util::JsonObject args;
    args.emplace("thread", threadId);
    args.emplace("process", t.processId);
    slice.emplace("args", std::move(args));
    out.emplace_back(std::move(slice));
    t.core = -1;
  };
  const auto closePhase = [&](int threadId, ThreadState& t, util::Tick upTo) {
    if (t.phase < 0) return;
    out.emplace_back(makeSlice("phase " + std::to_string(t.phase), "phase",
                               kThreadsPid, threadId, t.phaseFrom, upTo));
    t.phase = -1;
  };
  const auto closeBarrier = [&](int threadId, ThreadState& t,
                                util::Tick upTo) {
    if (t.barrier < 0) return;
    out.emplace_back(makeSlice("barrier " + std::to_string(t.barrier),
                               "barrier", kThreadsPid, threadId, t.barrierFrom,
                               upTo));
    t.barrier = -1;
  };

  for (const sim::TraceEvent& e : events) {
    ThreadState& t = threads[e.threadId];
    if (t.processId < 0 && e.processId >= 0) {
      t.processId = e.processId;
      out.emplace_back(makeMetadata(
          "thread_name", kThreadsPid, e.threadId,
          "t" + std::to_string(e.threadId) + " " + processName(e.processId)));
    }
    switch (e.kind) {
      case sim::TraceEventKind::Placement:
        t.core = e.toCore;
        t.residencyFrom = e.tick;
        t.phase = 0;
        t.phaseFrom = e.tick;
        break;
      case sim::TraceEventKind::Migration:
        closeResidency(e.threadId, t, e.tick);
        t.core = e.toCore;
        t.residencyFrom = e.tick;
        break;
      case sim::TraceEventKind::PhaseChange: {
        closePhase(e.threadId, t, e.tick);
        t.phase = e.detail;
        t.phaseFrom = e.tick;
        break;
      }
      case sim::TraceEventKind::BarrierWait:
        // Close the running phase slice so the barrier interval renders as
        // its own top-level span (guaranteed non-overlap on the track).
        t.interruptedPhase = std::max(0, t.phase);
        closePhase(e.threadId, t, e.tick);
        t.barrier = e.detail;
        t.barrierFrom = e.tick;
        break;
      case sim::TraceEventKind::BarrierRelease:
        closeBarrier(e.threadId, t, e.tick);
        t.phase = t.interruptedPhase;
        t.phaseFrom = e.tick;
        break;
      case sim::TraceEventKind::Suspend: {
        util::JsonObject i =
            makeEvent("suspend", "i", kThreadsPid, e.threadId, e.tick);
        i.emplace("s", "t");
        out.emplace_back(std::move(i));
        break;
      }
      case sim::TraceEventKind::Resume: {
        util::JsonObject i =
            makeEvent("resume", "i", kThreadsPid, e.threadId, e.tick);
        i.emplace("s", "t");
        out.emplace_back(std::move(i));
        break;
      }
      case sim::TraceEventKind::ThreadFinish:
        closeResidency(e.threadId, t, e.tick);
        closePhase(e.threadId, t, e.tick);
        closeBarrier(e.threadId, t, e.tick);
        t.finished = true;
        break;
      case sim::TraceEventKind::ProcessFinish: {
        util::JsonObject i = makeEvent(processName(e.processId) + " finished",
                                       "i", kThreadsPid, e.threadId, e.tick);
        i.emplace("s", "g");
        out.emplace_back(std::move(i));
        break;
      }
    }
  }

  // Close whatever is still running at the end of the recorded window.
  for (auto& [threadId, t] : threads) {
    closeResidency(threadId, t, meta.endTick);
    closePhase(threadId, t, meta.endTick);
    closeBarrier(threadId, t, meta.endTick);
  }

  if (decisions != nullptr && !decisions->records().empty()) {
    out.emplace_back(makeMetadata("process_name", kSchedulerPid, 0,
                                  "scheduler"));
    out.emplace_back(makeMetadata("thread_name", kSchedulerPid, 0,
                                  "decisions"));
    for (const telemetry::DecisionRecord& d : decisions->records()) {
      util::JsonObject i = makeEvent(d.rationale.empty() ? "quantum"
                                                         : d.rationale,
                                     "i", kSchedulerPid, 0, d.tick);
      i.emplace("s", "t");
      util::JsonObject args;
      args.emplace("quantum", d.quantumIndex);
      args.emplace("unfairness", d.unfairness);
      args.emplace("unfairness_next", numberOrNull(d.unfairnessNext));
      args.emplace("acted", d.acted);
      args.emplace("workload_class", d.workloadClass);
      args.emplace("quanta_length_ms", d.quantaLengthMs);
      args.emplace("swap_size", d.swapSize);
      util::JsonArray swaps;
      for (const telemetry::SwapDecisionRecord& s : d.swaps) {
        util::JsonObject sw;
        sw.emplace("low", s.lowThread);
        sw.emplace("high", s.highThread);
        sw.emplace("low_rate", numberOrNull(s.lowRate));
        sw.emplace("high_rate", numberOrNull(s.highRate));
        sw.emplace("predicted_low", numberOrNull(s.predictedRateLow));
        sw.emplace("predicted_high", numberOrNull(s.predictedRateHigh));
        sw.emplace("profit", numberOrNull(s.totalProfit));
        sw.emplace("outcome", std::string{toString(s.outcome)});
        swaps.emplace_back(std::move(sw));
      }
      args.emplace("swaps", std::move(swaps));
      util::JsonArray migrations;
      for (const telemetry::MigrationDecisionRecord& m : d.migrations) {
        util::JsonObject mig;
        mig.emplace("thread", m.threadId);
        mig.emplace("to_core", m.toCore);
        mig.emplace("predicted_rate", numberOrNull(m.predictedRate));
        mig.emplace("promotion", m.promotion);
        migrations.emplace_back(std::move(mig));
      }
      args.emplace("migrations", std::move(migrations));
      i.emplace("args", std::move(args));
      out.emplace_back(std::move(i));

      util::JsonObject counter =
          makeEvent("unfairness", "C", kSchedulerPid, 0, d.tick);
      util::JsonObject cargs;
      cargs.emplace("unfairness", d.unfairness);
      counter.emplace("args", std::move(cargs));
      out.emplace_back(std::move(counter));
    }
  }

  util::JsonObject doc;
  doc.emplace("traceEvents", std::move(out));
  doc.emplace("displayTimeUnit", "ms");
  return util::JsonValue{std::move(doc)};
}

std::vector<std::string> validateChromeTrace(const util::JsonValue& doc) {
  constexpr std::size_t kMaxErrors = 20;
  std::vector<std::string> errors;
  const auto fail = [&errors](std::string message) {
    if (errors.size() < kMaxErrors) errors.push_back(std::move(message));
  };

  if (!doc.isObject()) {
    return {"document root is not an object"};
  }
  const auto eventsValue = doc.get("traceEvents");
  if (!eventsValue || !eventsValue->isArray()) {
    return {"missing \"traceEvents\" array"};
  }
  const util::JsonArray& events = doc.asObject().at("traceEvents").asArray();
  if (events.empty()) fail("\"traceEvents\" is empty");

  std::size_t residencySlices = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string at = "event " + std::to_string(i);
    const util::JsonValue& e = events[i];
    if (!e.isObject()) {
      fail(at + ": not an object");
      continue;
    }
    const auto ph = e.get("ph");
    if (!ph || !ph->isString()) {
      fail(at + ": missing string \"ph\"");
      continue;
    }
    const std::string& phase = ph->asString();
    if (phase != "M" && phase != "X" && phase != "i" && phase != "C")
      fail(at + ": unexpected ph \"" + phase + "\"");
    const auto name = e.get("name");
    if (!name || !name->isString()) fail(at + ": missing string \"name\"");
    for (std::string_view key : {"ts", "pid", "tid"}) {
      const auto v = e.get(key);
      if (!v || !v->isNumber())
        fail(at + ": missing numeric \"" + std::string{key} + "\"");
    }
    const auto ts = e.get("ts");
    if (ts && ts->isNumber() && ts->asNumber() < 0.0)
      fail(at + ": negative ts");
    if (phase == "X") {
      const auto dur = e.get("dur");
      if (!dur || !dur->isNumber() || dur->asNumber() < 0.0)
        fail(at + ": \"X\" slice without non-negative \"dur\"");
      if (e.intOr("pid", -1) == kCoresPid) ++residencySlices;
    }
    if (phase == "M") {
      const std::string metaName = e.stringOr("name", "");
      if (metaName != "process_name" && metaName != "thread_name")
        fail(at + ": unexpected metadata \"" + metaName + "\"");
      const auto args = e.get("args");
      if (!args || !args->isObject() || !args->get("name") ||
          !args->get("name")->isString())
        fail(at + ": metadata without args.name");
    }
  }
  if (residencySlices == 0)
    fail("no per-core residency slices (pid " + std::to_string(kCoresPid) +
         " \"X\" events)");
  return errors;
}

std::vector<sim::TraceEvent> readTraceCsv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line))
    throw std::runtime_error{"trace CSV is empty"};
  const std::vector<std::string> header = util::parseCsvLine(line);
  const std::vector<std::string> expected = {
      "tick", "kind", "thread", "process", "from_core", "to_core", "detail"};
  if (header != expected)
    throw std::runtime_error{"unexpected trace CSV header: " + line};

  std::vector<sim::TraceEvent> events;
  std::size_t lineNo = 1;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    const std::vector<std::string> fields = util::parseCsvLine(line);
    const std::string at = "trace CSV line " + std::to_string(lineNo);
    if (fields.size() != expected.size())
      throw std::runtime_error{at + ": expected " +
                               std::to_string(expected.size()) +
                               " fields, got " +
                               std::to_string(fields.size())};
    // Whole-token integer parse per field. std::stoi accepted trailing
    // garbage ("12abc" parsed as 12) and the error did not say which
    // field was bad; a malformed trace must be rejected with the field
    // name and line number.
    const auto intField = [&at, &fields,
                           &expected](std::size_t index) -> std::int64_t {
      const std::string& text = fields[index];
      std::int64_t value = 0;
      const auto [end, ec] =
          std::from_chars(text.data(), text.data() + text.size(), value);
      if (ec != std::errc{} || end != text.data() + text.size() ||
          text.empty())
        throw std::runtime_error{at + ": field \"" + expected[index] +
                                 "\" is not an integer: '" + text + "'"};
      return value;
    };
    sim::TraceEvent e;
    e.tick = static_cast<util::Tick>(intField(0));
    e.threadId = static_cast<int>(intField(2));
    e.processId = static_cast<int>(intField(3));
    e.fromCore = static_cast<int>(intField(4));
    e.toCore = static_cast<int>(intField(5));
    e.detail = static_cast<int>(intField(6));
    const auto kind = sim::traceEventKindFromName(fields[1]);
    if (!kind)
      throw std::runtime_error{at + ": unknown event kind \"" + fields[1] +
                               "\""};
    e.kind = *kind;
    events.push_back(e);
  }
  return events;
}

}  // namespace dike::exp
