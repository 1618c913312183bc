#include "oslinux/affinity.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

namespace dike::oslinux {
namespace {

TEST(Affinity, GetSelfReturnsAtLeastOneCpu) {
  std::vector<int> cpus;
  const std::error_code ec = getAffinity(0, cpus);
  ASSERT_FALSE(ec) << ec.message();
  EXPECT_FALSE(cpus.empty());
}

TEST(Affinity, PinSelfRoundTrip) {
  std::vector<int> original;
  ASSERT_FALSE(getAffinity(0, original));
  ASSERT_FALSE(original.empty());

  const int target = original.front();
  if (const std::error_code ec = pinToCpu(0, target)) {
    GTEST_SKIP() << "pinning not permitted here: " << ec.message();
  }
  std::vector<int> pinned;
  ASSERT_FALSE(getAffinity(0, pinned));
  EXPECT_EQ(pinned, (std::vector<int>{target}));

  // Restore.
  EXPECT_FALSE(setAffinity(0, original));
}

TEST(Affinity, RejectsEmptyAndInvalidCpuSets) {
  EXPECT_EQ(setAffinity(0, std::vector<int>{}),
            std::make_error_code(std::errc::invalid_argument));
  EXPECT_EQ(pinToCpu(0, -1),
            std::make_error_code(std::errc::invalid_argument));
  EXPECT_EQ(pinToCpu(0, 1 << 20),
            std::make_error_code(std::errc::invalid_argument));
}

TEST(Affinity, MissingThreadFails) {
  // tid -2 cannot exist.
  EXPECT_TRUE(static_cast<bool>(pinToCpu(-2, 0)));
  std::vector<int> cpus;
  EXPECT_TRUE(static_cast<bool>(getAffinity(-2, cpus)));
}

}  // namespace
}  // namespace dike::oslinux
