#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/atomic_file.hpp"

namespace dike::ckpt {

namespace {

void append64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
}

void append32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
}

std::uint64_t read64(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  return v;
}

std::uint32_t read32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  return v;
}

// magic(8) + version(4) + payload length(8) + checksum(8)
constexpr std::size_t kHeaderSize = 28;

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string encodeCheckpoint(std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.append(kCheckpointMagic);
  append32(out, kCheckpointVersion);
  append64(out, payload.size());
  append64(out, fnv1a64(payload));
  out.append(payload);
  return out;
}

namespace {

/// Run the four container checks and return the payload's view into
/// `bytes`.
std::string_view validatedPayload(std::string_view bytes) {
  if (bytes.size() < kCheckpointMagic.size() ||
      bytes.substr(0, kCheckpointMagic.size()) != kCheckpointMagic)
    throw CheckpointError{
        "not a Dike checkpoint (bad magic; expected a file written by "
        "ckpt::writeCheckpointFile)"};
  if (bytes.size() < kHeaderSize)
    throw CheckpointError{"truncated checkpoint: " +
                          std::to_string(bytes.size()) +
                          " bytes is shorter than the " +
                          std::to_string(kHeaderSize) + "-byte header"};
  const std::uint32_t version = read32(bytes, 8);
  if (version != kCheckpointVersion)
    throw CheckpointError{
        "checkpoint format version " + std::to_string(version) +
        " is not supported by this build (expects version " +
        std::to_string(kCheckpointVersion) + "); nothing was restored"};
  const std::uint64_t length = read64(bytes, 12);
  if (bytes.size() - kHeaderSize < length)
    throw CheckpointError{
        "truncated checkpoint: header declares a " + std::to_string(length) +
        "-byte payload but only " +
        std::to_string(bytes.size() - kHeaderSize) + " bytes follow"};
  if (bytes.size() - kHeaderSize > length)
    throw CheckpointError{"corrupt checkpoint: " +
                          std::to_string(bytes.size() - kHeaderSize - length) +
                          " trailing bytes after the declared payload"};
  const std::uint64_t expected = read64(bytes, 20);
  const std::string_view payload = bytes.substr(kHeaderSize, length);
  const std::uint64_t actual = fnv1a64(payload);
  if (actual != expected) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%016llx, expected %016llx",
                  static_cast<unsigned long long>(actual),
                  static_cast<unsigned long long>(expected));
    throw CheckpointError{
        std::string{"corrupt checkpoint: payload checksum "} + buf +
        "; nothing was restored"};
  }
  return payload;
}

}  // namespace

std::string decodeCheckpoint(std::string_view bytes) {
  return std::string{validatedPayload(bytes)};
}

void writeCheckpointFile(const std::string& path, std::string_view payload) {
  // tmp + fsync + rename + parent-dir fsync: a kill -9 at any instruction
  // leaves either the previous checkpoint or the new one under `path`,
  // never a torn file (the supervised-resume path depends on this).
  try {
    util::writeFileAtomic(path, encodeCheckpoint(payload));
  } catch (const std::exception& e) {
    throw CheckpointError{std::string{"cannot write checkpoint: "} +
                          e.what()};
  }
}

std::string readCheckpointFile(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in)
    throw CheckpointError{"cannot open checkpoint file: " + path};
  // One buffer of the file's size: read, validate, then strip the header
  // in place. A path with no size (a directory) reads as empty and fails
  // the magic check.
  std::error_code ec;
  const std::uintmax_t fileSize = std::filesystem::file_size(path, ec);
  std::string bytes(ec ? 0 : static_cast<std::size_t>(fileSize), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (in.bad())
    throw CheckpointError{"failed reading checkpoint file: " + path};
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  try {
    (void)validatedPayload(bytes);
  } catch (const CheckpointError& e) {
    throw CheckpointError{path + ": " + e.what()};
  }
  bytes.erase(0, kHeaderSize);
  return bytes;
}

std::string checkpointFileName(std::int64_t quantum) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ckpt-%012lld.ckpt",
                static_cast<long long>(quantum));
  return buf;
}

namespace {

/// Parse the quantum index out of a canonical checkpoint file name;
/// -1 for any other name (still a valid checkpoint, just unordered).
std::int64_t quantumFromFileName(const std::string& name) {
  if (name.rfind("ckpt-", 0) != 0 || name.size() <= 10) return -1;
  const std::string_view digits{name.data() + 5, name.size() - 10};
  if (name.substr(name.size() - 5) != ".ckpt" || digits.empty()) return -1;
  std::int64_t v = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), v);
  if (ec != std::errc{} || end != digits.data() + digits.size()) return -1;
  return v;
}

}  // namespace

CheckpointDirScan findLatestValidCheckpoint(const std::string& dir) {
  namespace fs = std::filesystem;
  CheckpointDirScan scan;
  std::error_code ec;
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator{dir, ec}) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.ends_with(".ckpt"))
      names.push_back(name);
    else if (name.ends_with(".ckpt.tmp"))
      // Expected debris after a kill mid-checkpoint: the atomic-write
      // protocol guarantees the final name was never touched. Reported,
      // not treated as corruption.
      scan.partials.push_back(dir + "/" + name +
                              ": partial write (interrupted before rename)");
  }
  // Zero-padded names make lexicographic descending order == newest first.
  std::sort(names.begin(), names.end(), std::greater<>{});
  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    try {
      scan.payload = readCheckpointFile(path);
      scan.path = path;
      scan.quantum = quantumFromFileName(name);
      return scan;
    } catch (const CheckpointError& e) {
      scan.skipped.push_back(std::string{e.what()});
    }
  }
  return scan;
}

}  // namespace dike::ckpt
