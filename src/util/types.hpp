// Common scalar types and conversion helpers shared across all Dike modules.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

namespace dike::util {

/// Simulated time in integral ticks. One tick is `kTickSeconds` of simulated
/// wall-clock time; all scheduling quanta are whole numbers of ticks.
using Tick = std::int64_t;

/// Duration of one simulator tick in seconds (1 ms).
inline constexpr double kTickSeconds = 1e-3;

/// Milliseconds per tick (the simulator's native resolution).
inline constexpr std::int64_t kTickMillis = 1;

[[nodiscard]] constexpr Tick millisToTicks(std::int64_t ms) noexcept {
  return ms / kTickMillis;
}

[[nodiscard]] constexpr double ticksToSeconds(Tick t) noexcept {
  return static_cast<double>(t) * kTickSeconds;
}

/// Checked narrowing cast: asserts the value is representable in To.
template <typename To, typename From>
[[nodiscard]] constexpr To narrow(From v) noexcept {
  static_assert(std::is_arithmetic_v<To> && std::is_arithmetic_v<From>);
  const To out = static_cast<To>(v);
  assert(static_cast<From>(out) == v && "narrowing cast lost information");
  return out;
}

/// Size of a container as a plain int (indices in this codebase are ints).
/// Checked: containers on scaled paths can exceed INT_MAX elements only
/// through a bug, so this asserts rather than silently wrapping.
template <typename Container>
[[nodiscard]] constexpr int isize(const Container& c) noexcept {
  return narrow<int>(c.size());
}

/// Checked narrowing to int that *throws* instead of asserting. Use on
/// untrusted inputs (checkpoint restore, parsed configs) where an
/// out-of-range value must surface as a typed error, not a wrapped counter.
/// The exception type is a template parameter so call sites can raise their
/// module's own error (e.g. ckpt::CheckpointError) with a contextual message.
template <typename E, typename From>
[[nodiscard]] int checkedInt(From v, const char* what) {
  static_assert(std::is_integral_v<From>);
  if (std::cmp_less(v, std::numeric_limits<int>::min()) ||
      std::cmp_greater(v, std::numeric_limits<int>::max()))
    throw E{std::string{what} + " is out of int range (" +
            std::to_string(static_cast<long long>(v)) + ")"};
  return static_cast<int>(v);
}

/// checkedInt for a value used as an index (e.g. a thread id keying a slot
/// table): negative values throw too.
template <typename E, typename From>
[[nodiscard]] int checkedIndex(From v, const char* what) {
  const int index = checkedInt<E>(v, what);
  if (index < 0)
    throw E{std::string{what} + " is negative (" + std::to_string(index) +
            ")"};
  return index;
}

}  // namespace dike::util
