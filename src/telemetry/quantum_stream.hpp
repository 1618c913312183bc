// Per-quantum metrics stream: one structured record per scheduling quantum,
// sunk to CSV (one row per thread) or newline-delimited JSON (one object
// per quantum). This is the counter stream the paper's feedback loop
// (Sections III-A/III-C) runs on, persisted: per-thread memory access rate
// and LLC miss ratio, the CoreBW partition, the fairness signal, the
// predictor's value against the realised rate, and the optimizer's current
// <quantaLength, swapSize> and workload-class estimate.
//
// Fields that a given scheduler cannot supply (CFS has no predictor) are
// NaN / -1 / empty and serialise as empty CSV cells or JSON nulls.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dike::telemetry {

/// One live thread's slice of a quantum record.
struct QuantumThreadRecord {
  int threadId = -1;
  int processId = -1;
  int coreId = -1;
  double accessRate = 0.0;    ///< accesses/second measured this quantum
  double llcMissRatio = 0.0;
  /// Achieved bandwidth on the thread's core this quantum (accesses/s).
  double coreAchievedBw = 0.0;
  /// Observer's CoreBW capability estimate for the core; NaN without one.
  double coreBwEstimate = 0.0;
  /// 1 = higher-bandwidth half, 0 = lower half, -1 = no partition known.
  int highBandwidthCore = -1;
  /// Access rate the scheduler predicted for this quantum; NaN when the
  /// scheduler made no prediction (non-Dike policies, first quantum).
  double predictedRate = 0.0;
  /// Rate actually realised this quantum (the value the prediction was
  /// scored against); NaN when no prediction was outstanding.
  double realizedRate = 0.0;
  /// Signed relative error (predicted - realised) / realised; NaN when the
  /// pair was below the tracker's scoring floors.
  double predictionError = 0.0;
  /// Slowdown proxy vs the thread's process front-runner (>= 1); NaN when
  /// the process has < 2 live threads or the thread has no work yet.
  double slowdown = 0.0;
};

/// One scheduling quantum's full record.
struct QuantumRecord {
  std::int64_t tick = 0;          ///< end-of-quantum simulated tick
  std::int64_t quantumIndex = 0;  ///< 0-based quantum counter
  std::string scheduler;
  /// Observer fairness signal after ingesting this quantum; NaN without one.
  double unfairness = 0.0;
  /// Observer workload-class estimate ("balanced", ...); empty without one.
  std::string workloadClass;
  int quantaLengthMs = -1;  ///< optimizer's current value; -1 for non-Dike
  int swapSize = -1;        ///< optimizer's current value; -1 for non-Dike
  std::int64_t swapsExecuted = 0;       ///< swaps this quantum
  std::int64_t migrationsExecuted = 0;  ///< free-core migrations this quantum
  /// Max per-thread slowdown across eligible processes this quantum (the
  /// min is 1 by construction); NaN when nothing was eligible.
  double fairnessSpread = 0.0;
  std::vector<QuantumThreadRecord> threads;
};

enum class StreamFormat { Csv, JsonLines };

/// .jsonl / .ndjson extensions select JsonLines; anything else is CSV.
[[nodiscard]] StreamFormat streamFormatForPath(std::string_view path);

/// Serialises QuantumRecords to a stream. Not thread-safe; each run owns
/// its writer (runs are share-nothing in the sweep pool).
class QuantumStreamWriter {
 public:
  QuantumStreamWriter(std::ostream& out, StreamFormat format);

  void write(const QuantumRecord& record);

  [[nodiscard]] std::int64_t recordsWritten() const noexcept {
    return records_;
  }
  [[nodiscard]] StreamFormat format() const noexcept { return format_; }

  /// The CSV column names, in emission order (shared with tests/tools).
  [[nodiscard]] static const std::vector<std::string>& csvColumns();

 private:
  void writeCsv(const QuantumRecord& record);
  void writeJsonLine(const QuantumRecord& record);

  std::ostream* out_;
  StreamFormat format_;
  bool headerWritten_ = false;
  std::int64_t records_ = 0;
  /// Reusable per-field formatting buffers for CSV rows (one per double
  /// column): the stream emits one row per thread per quantum, so the
  /// string storage is recycled instead of reallocated each row.
  std::array<std::string, 10> fmt_;
  /// Reusable JSON Lines record buffer: each record is appended here and
  /// handed to the stream with one write.
  std::string line_;
};

/// File-backed writer; format chosen from the path's extension. Throws
/// std::runtime_error with the path when the file cannot be opened.
class QuantumStreamFile {
 public:
  explicit QuantumStreamFile(const std::string& path);

  [[nodiscard]] QuantumStreamWriter& writer() noexcept { return *writer_; }

 private:
  std::ofstream file_;
  std::unique_ptr<QuantumStreamWriter> writer_;
};

}  // namespace dike::telemetry
