// Checksum-valid corrupt checkpoints for restore tests: one i64 of a
// payload record overwritten, and the payload wrapped in a container with a
// fresh, valid checksum, as a writer with a bug would have produced it.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"

namespace dike::ckpt::test {

/// Overwrite one i64 of the first record at `path` (element `index` of a
/// vector record) and wrap the corrupted payload in a checkpoint container.
inline std::string corrupted(std::string payload, std::string_view path,
                             std::size_t index, std::int64_t value) {
  for (const Token& tok : tokenize(payload)) {
    if (tok.path != path) continue;
    const std::size_t nameLength = path.size() - path.rfind('/') - 1;
    std::size_t at = tok.offset + 1 + 4 + nameLength;
    if (tok.tag == Tag::VecI64) at += 4 + 8 * index;
    const auto raw = static_cast<std::uint64_t>(value);
    for (std::size_t b = 0; b < 8; ++b)
      payload[at + b] = static_cast<char>((raw >> (8 * b)) & 0xFF);
    return encodeCheckpoint(payload);
  }
  ADD_FAILURE() << "no record " << path;
  return encodeCheckpoint(payload);
}

}  // namespace dike::ckpt::test
