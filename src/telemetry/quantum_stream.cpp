#include "telemetry/quantum_stream.hpp"

#include <cmath>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/number_text.hpp"

namespace dike::telemetry {

namespace {

/// Deterministic 12-significant-digit text; empty for NaN (CSV) — the
/// stream must be byte-identical across repeated runs of the same build.
/// Formats into a caller-owned buffer so row emission reuses capacity.
const std::string& formatDouble(std::string& buf, double v) {
  buf.clear();
  if (!std::isnan(v)) util::appendGeneral(buf, v, 12);
  return buf;
}

/// `"key":` — keys are fixed identifiers, so no escaping is needed.
void appendKey(std::string& out, std::string_view key) {
  out.push_back('"');
  out.append(key);
  out += "\":";
}

/// Integer fields take the JSON number rule too, as doubles: a value past
/// 1e15 prints as %.17g, exactly as JsonValue::dump() would print it.
void appendInt(std::string& out, std::string_view key, double v) {
  appendKey(out, key);
  util::appendJsonNumber(out, v);
}

void appendNumberOrNull(std::string& out, std::string_view key, double v) {
  appendKey(out, key);
  if (std::isnan(v))
    out += "null";
  else
    util::appendJsonNumber(out, v);
}

}  // namespace

StreamFormat streamFormatForPath(std::string_view path) {
  const auto dot = path.rfind('.');
  if (dot == std::string_view::npos) return StreamFormat::Csv;
  const std::string_view ext = path.substr(dot);
  if (ext == ".jsonl" || ext == ".ndjson") return StreamFormat::JsonLines;
  return StreamFormat::Csv;
}

QuantumStreamWriter::QuantumStreamWriter(std::ostream& out,
                                         StreamFormat format)
    : out_(&out), format_(format) {}

const std::vector<std::string>& QuantumStreamWriter::csvColumns() {
  static const std::vector<std::string> columns{
      "tick",           "quantum",        "scheduler",
      "thread",         "process",        "core",
      "high_bw_core",   "access_rate",    "llc_miss_ratio",
      "core_achieved_bw", "core_bw_estimate", "predicted_rate",
      "realized_rate",  "prediction_error", "slowdown",
      "unfairness",     "fairness_spread",
      "workload_class", "quanta_length_ms", "swap_size",
      "swaps_executed", "migrations_executed"};
  return columns;
}

void QuantumStreamWriter::write(const QuantumRecord& record) {
  if (format_ == StreamFormat::Csv)
    writeCsv(record);
  else
    writeJsonLine(record);
  ++records_;
}

void QuantumStreamWriter::writeCsv(const QuantumRecord& record) {
  util::CsvWriter csv{*out_};
  if (!headerWritten_) {
    csv.header(csvColumns());
    headerWritten_ = true;
  }
  for (const QuantumThreadRecord& t : record.threads) {
    csv.row(static_cast<long long>(record.tick),
            static_cast<long long>(record.quantumIndex), record.scheduler,
            t.threadId, t.processId, t.coreId, t.highBandwidthCore,
            formatDouble(fmt_[0], t.accessRate),
            formatDouble(fmt_[1], t.llcMissRatio),
            formatDouble(fmt_[2], t.coreAchievedBw),
            formatDouble(fmt_[3], t.coreBwEstimate),
            formatDouble(fmt_[4], t.predictedRate),
            formatDouble(fmt_[5], t.realizedRate),
            formatDouble(fmt_[6], t.predictionError),
            formatDouble(fmt_[7], t.slowdown),
            formatDouble(fmt_[8], record.unfairness),
            formatDouble(fmt_[9], record.fairnessSpread),
            record.workloadClass, record.quantaLengthMs, record.swapSize,
            static_cast<long long>(record.swapsExecuted),
            static_cast<long long>(record.migrationsExecuted));
  }
}

// One object per quantum, appended straight into a reused buffer with keys
// in the byte-sorted order JsonValue::dump() gives a std::map, so the line is
// byte-identical to dumping the equivalent JsonObject tree (the test keeps
// that tree as its reference).
void QuantumStreamWriter::writeJsonLine(const QuantumRecord& record) {
  std::string& out = line_;
  out.clear();
  out.push_back('{');
  appendNumberOrNull(out, "fairness_spread", record.fairnessSpread);
  out.push_back(',');
  appendInt(out, "migrations_executed",
            static_cast<double>(record.migrationsExecuted));
  out.push_back(',');
  appendInt(out, "quanta_length_ms", record.quantaLengthMs);
  out.push_back(',');
  appendInt(out, "quantum", static_cast<double>(record.quantumIndex));
  out.push_back(',');
  appendKey(out, "scheduler");
  util::appendJsonString(out, record.scheduler);
  out.push_back(',');
  appendInt(out, "swap_size", record.swapSize);
  out.push_back(',');
  appendInt(out, "swaps_executed", static_cast<double>(record.swapsExecuted));
  out.push_back(',');
  appendKey(out, "threads");
  out.push_back('[');
  bool first = true;
  for (const QuantumThreadRecord& t : record.threads) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('{');
    appendNumberOrNull(out, "access_rate", t.accessRate);
    out.push_back(',');
    appendInt(out, "core", t.coreId);
    out.push_back(',');
    appendNumberOrNull(out, "core_achieved_bw", t.coreAchievedBw);
    out.push_back(',');
    appendNumberOrNull(out, "core_bw_estimate", t.coreBwEstimate);
    out.push_back(',');
    appendKey(out, "high_bw_core");
    out += t.highBandwidthCore < 0    ? "null"
           : t.highBandwidthCore != 0 ? "true"
                                      : "false";
    out.push_back(',');
    appendNumberOrNull(out, "llc_miss_ratio", t.llcMissRatio);
    out.push_back(',');
    appendNumberOrNull(out, "predicted_rate", t.predictedRate);
    out.push_back(',');
    appendNumberOrNull(out, "prediction_error", t.predictionError);
    out.push_back(',');
    appendInt(out, "process", t.processId);
    out.push_back(',');
    appendNumberOrNull(out, "realized_rate", t.realizedRate);
    out.push_back(',');
    appendNumberOrNull(out, "slowdown", t.slowdown);
    out.push_back(',');
    appendInt(out, "thread", t.threadId);
    out.push_back('}');
  }
  out += "],";
  appendInt(out, "tick", static_cast<double>(record.tick));
  out.push_back(',');
  appendNumberOrNull(out, "unfairness", record.unfairness);
  out.push_back(',');
  appendKey(out, "workload_class");
  if (record.workloadClass.empty())
    out += "null";
  else
    util::appendJsonString(out, record.workloadClass);
  out += "}\n";
  out_->write(out.data(), static_cast<std::streamsize>(out.size()));
}

QuantumStreamFile::QuantumStreamFile(const std::string& path)
    : file_(path, std::ios::out | std::ios::trunc) {
  if (!file_)
    throw std::runtime_error{"cannot write quantum metrics stream: " + path};
  writer_ = std::make_unique<QuantumStreamWriter>(file_,
                                                  streamFormatForPath(path));
}

}  // namespace dike::telemetry
