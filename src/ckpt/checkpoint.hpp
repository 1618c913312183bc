// Checkpoint file container: magic, format version, length, checksum.
//
// The container makes every failure mode loud before any state is touched:
//   * wrong magic          -> "not a Dike checkpoint",
//   * unknown version      -> names both versions,
//   * short file           -> "truncated",
//   * bit rot in the body  -> checksum mismatch.
// Only a payload that passes all four checks is handed to the restore path,
// so a restore either succeeds completely or changes nothing (the caller
// builds the run state into fresh objects that are discarded on throw).
//
// Files are written to `path + ".tmp"`, fsynced, and renamed into place, so
// a crash mid-write (or a kill -9 at any instruction) can never leave a
// half-written checkpoint under the final name.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/archive.hpp"

namespace dike::ckpt {

/// On-disk format version. Bump on any payload schema change.
/// History: 1 = PR 4 initial format; 2 = run payload gained the optional
/// quantum-stream cursor (supervised-run resume).
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// 8-byte file magic.
inline constexpr std::string_view kCheckpointMagic = "DIKECKPT";

/// 64-bit FNV-1a (the payload checksum).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Wrap a payload in the container (magic + version + length + checksum).
[[nodiscard]] std::string encodeCheckpoint(std::string_view payload);

/// Validate a container and return its payload. Throws CheckpointError on
/// any of the four failure modes above.
[[nodiscard]] std::string decodeCheckpoint(std::string_view bytes);

/// Atomically write `encodeCheckpoint(payload)` to `path` (tmp + rename).
void writeCheckpointFile(const std::string& path, std::string_view payload);

/// Read and validate a checkpoint file; returns the payload.
[[nodiscard]] std::string readCheckpointFile(const std::string& path);

/// Canonical rolling-checkpoint file name for quantum N:
/// "ckpt-000000000042.ckpt" — zero-padded so lexicographic order is quantum
/// order, which is what findLatestValidCheckpoint scans by.
[[nodiscard]] std::string checkpointFileName(std::int64_t quantum);

/// Result of scanning a checkpoint directory for the newest usable file.
struct CheckpointDirScan {
  std::string path;           ///< newest valid checkpoint; empty when none
  std::int64_t quantum = -1;  ///< index parsed from its name; -1 if unnamed
  /// The validated payload of `path` (empty when none), so a resume
  /// restores from it without reading and checksumming the file again.
  std::string payload;
  /// Every ".ckpt" file that failed validation (corrupt, truncated, wrong
  /// version), as "path: reason" strings — loud by construction, counted by
  /// callers. Damage here means bytes under the *final* name are bad.
  std::vector<std::string> skipped;
  /// ".ckpt.tmp" leftovers from a writer killed before its atomic rename.
  /// Expected debris after a crash, reported separately so callers do not
  /// mistake a cleanly-interrupted write for on-disk corruption.
  std::vector<std::string> partials;
};

/// Scan `dir` for "*.ckpt" files (plus partial "*.ckpt.tmp" debris), newest
/// name first, and return the first one that passes full container
/// validation, with its payload. Invalid files are skipped and reported, so
/// a corrupt newest checkpoint falls back to the previous good one instead
/// of wedging resume. A missing or empty directory returns an empty scan.
[[nodiscard]] CheckpointDirScan findLatestValidCheckpoint(
    const std::string& dir);

}  // namespace dike::ckpt
