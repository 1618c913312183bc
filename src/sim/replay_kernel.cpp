// The literal block replay of sim/replay_kernel.hpp at each vector width,
// and the once-per-process pick of the widest one the CPU runs.
//
// One kernel body, templated on the width, is force-inlined into one
// function per width, each compiled for the instruction set it needs. The
// inlining matters: a template instantiation does not inherit its caller's
// target attribute, so a called (not inlined) body would be compiled for the
// baseline ISA and spill the wide registers to memory.
#include "sim/replay_kernel.hpp"

#include <algorithm>
#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DIKE_REPLAY_X86_DISPATCH 1
#else
#define DIKE_REPLAY_X86_DISPATCH 0
#endif

namespace dike::sim {
namespace {

// GCC ignores vector_size on a typedef that depends on a template
// parameter, so each width names its register type explicitly.
template <std::size_t W>
struct Register;
template <>
struct Register<2> {
  using type = double __attribute__((vector_size(16)));
};
template <>
struct Register<4> {
  using type = double __attribute__((vector_size(32)));
};
template <>
struct Register<8> {
  using type = double __attribute__((vector_size(64)));
};

/// n literal additions on 8 x W lanes. Named locals, not an array: GCC
/// keeps them in registers, so the loop body is eight independent vector
/// adds with no loads or stores.
template <std::size_t W>
[[gnu::always_inline]] inline void replayBlockAt(const ReplayLane* l,
                                                 std::int64_t n) noexcept {
  using V = typename Register<W>::type;
  V a0{}, a1{}, a2{}, a3{}, a4{}, a5{}, a6{}, a7{};
  V i0{}, i1{}, i2{}, i3{}, i4{}, i5{}, i6{}, i7{};
  for (std::size_t j = 0; j < W; ++j) {
    a0[j] = *l[0 * W + j].acc, i0[j] = l[0 * W + j].inc;
    a1[j] = *l[1 * W + j].acc, i1[j] = l[1 * W + j].inc;
    a2[j] = *l[2 * W + j].acc, i2[j] = l[2 * W + j].inc;
    a3[j] = *l[3 * W + j].acc, i3[j] = l[3 * W + j].inc;
    a4[j] = *l[4 * W + j].acc, i4[j] = l[4 * W + j].inc;
    a5[j] = *l[5 * W + j].acc, i5[j] = l[5 * W + j].inc;
    a6[j] = *l[6 * W + j].acc, i6[j] = l[6 * W + j].inc;
    a7[j] = *l[7 * W + j].acc, i7[j] = l[7 * W + j].inc;
  }
  for (std::int64_t t = 0; t < n; ++t) {
    a0 += i0;
    a1 += i1;
    a2 += i2;
    a3 += i3;
    a4 += i4;
    a5 += i5;
    a6 += i6;
    a7 += i7;
  }
  // Padding lanes share one sink, so the writes go back lane by lane.
  for (std::size_t j = 0; j < W; ++j) {
    *l[0 * W + j].acc = a0[j];
    *l[1 * W + j].acc = a1[j];
    *l[2 * W + j].acc = a2[j];
    *l[3 * W + j].acc = a3[j];
    *l[4 * W + j].acc = a4[j];
    *l[5 * W + j].acc = a5[j];
    *l[6 * W + j].acc = a6[j];
    *l[7 * W + j].acc = a7[j];
  }
}

#if DIKE_REPLAY_X86_DISPATCH
[[gnu::target("avx512f")]] void replayBlock8(const ReplayLane* l,
                                             std::int64_t n) noexcept {
  replayBlockAt<8>(l, n);
}

[[gnu::target("avx2")]] void replayBlock4(const ReplayLane* l,
                                          std::int64_t n) noexcept {
  replayBlockAt<4>(l, n);
}
#endif

void replayBlock2(const ReplayLane* l, std::int64_t n) noexcept {
  replayBlockAt<2>(l, n);
}

constexpr std::size_t kRegisters = 8;
static_assert(kRegisters * 8 == kMaxLiteralBlock);

LiteralKernel kernelOf(const char* isa, std::size_t width, bool supported,
                       decltype(LiteralKernel::replay) replay) {
  return LiteralKernel{isa, width, kRegisters * width, supported, replay};
}

#if DIKE_REPLAY_X86_DISPATCH
using KernelTable = std::array<LiteralKernel, 3>;
KernelTable buildKernels() noexcept {
  __builtin_cpu_init();  // safe before constructors have run
  return {{kernelOf("avx512f", 8, __builtin_cpu_supports("avx512f") != 0,
                    replayBlock8),
           kernelOf("avx2", 4, __builtin_cpu_supports("avx2") != 0,
                    replayBlock4),
           kernelOf("sse2", 2, true, replayBlock2)}};
}
#else
using KernelTable = std::array<LiteralKernel, 1>;
KernelTable buildKernels() noexcept {
  return {{kernelOf("baseline", 2, true, replayBlock2)}};
}
#endif

}  // namespace

std::span<const LiteralKernel> literalKernels() noexcept {
  static const KernelTable kernels = buildKernels();
  return kernels;
}

const LiteralKernel& literalKernel() noexcept {
  static const LiteralKernel& widest = *std::find_if(
      literalKernels().begin(), literalKernels().end(),
      [](const LiteralKernel& k) { return k.supported; });
  return widest;
}

}  // namespace dike::sim
