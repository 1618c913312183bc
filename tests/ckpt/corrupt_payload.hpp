// Checksum-valid corrupt checkpoints for restore tests: one 8-byte value of
// a payload record overwritten, and the payload wrapped in a container with a
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

/// Overwrite one 8-byte value of the first record at `path` (element
/// `index` of a vector record; a double's bits for an f64 record) and wrap
/// the corrupted payload in a checkpoint container.
inline std::string corrupted(std::string payload, std::string_view path,
                             std::size_t index, std::int64_t value) {
  const TokenStream tokens = tokenize(payload);
  for (const Token& tok : tokens) {
    if (!tokens.hasPath(tok, path)) continue;
    std::size_t at = tok.offset + 1 + 4 + tok.name.size();
    if (tok.tag == Tag::VecI64 || tok.tag == Tag::VecF64) at += 4 + 8 * index;
    const auto raw = static_cast<std::uint64_t>(value);
    for (std::size_t b = 0; b < 8; ++b)
      payload[at + b] = static_cast<char>((raw >> (8 * b)) & 0xFF);
    return encodeCheckpoint(payload);
  }
  ADD_FAILURE() << "no record " << path;
  return encodeCheckpoint(payload);
}

}  // namespace dike::ckpt::test
