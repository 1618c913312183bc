#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>

namespace dike::util {
namespace {

CliArgs parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v{argv};
  return CliArgs{static_cast<int>(v.size()), v.data()};
}

TEST(CliArgsTest, EqualsForm) {
  const CliArgs args = parse({"prog", "--count=5", "--name=dike"});
  EXPECT_EQ(args.getInt("count", 0), 5);
  EXPECT_EQ(args.getOr("name", "x"), "dike");
}

TEST(CliArgsTest, SpaceForm) {
  const CliArgs args = parse({"prog", "--count", "7"});
  EXPECT_EQ(args.getInt("count", 0), 7);
}

TEST(CliArgsTest, BareBooleanFlag) {
  const CliArgs args = parse({"prog", "--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.getBool("verbose", false));
}

TEST(CliArgsTest, BooleanBeforeAnotherFlag) {
  const CliArgs args = parse({"prog", "--verbose", "--count=3"});
  EXPECT_TRUE(args.getBool("verbose", false));
  EXPECT_EQ(args.getInt("count", 0), 3);
}

TEST(CliArgsTest, Positional) {
  const CliArgs args = parse({"prog", "input.txt", "--flag", "output.txt"});
  // "--flag output.txt" consumes output.txt as the flag value.
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.getOr("flag", ""), "output.txt");
}

TEST(CliArgsTest, MissingFlagFallbacks) {
  const CliArgs args = parse({"prog"});
  EXPECT_FALSE(args.has("x"));
  EXPECT_EQ(args.get("x"), std::nullopt);
  EXPECT_EQ(args.getInt("x", -1), -1);
  EXPECT_DOUBLE_EQ(args.getDouble("x", 2.5), 2.5);
  EXPECT_EQ(args.getInt64("x", 1LL << 40), 1LL << 40);
  EXPECT_TRUE(args.getBool("x", true));
}

TEST(CliArgsTest, BoolParsingVariants) {
  const CliArgs args =
      parse({"prog", "--a=true", "--b=1", "--c=yes", "--d=on", "--e=false"});
  EXPECT_TRUE(args.getBool("a", false));
  EXPECT_TRUE(args.getBool("b", false));
  EXPECT_TRUE(args.getBool("c", false));
  EXPECT_TRUE(args.getBool("d", false));
  EXPECT_FALSE(args.getBool("e", true));
}

TEST(CliArgsTest, DoubleParsing) {
  const CliArgs args = parse({"prog", "--scale=0.25"});
  EXPECT_DOUBLE_EQ(args.getDouble("scale", 1.0), 0.25);
}

TEST(CliArgsTest, ProgramName) {
  const CliArgs args = parse({"myprog"});
  EXPECT_EQ(args.programName(), "myprog");
}

// Regression: the atoi/atoll/atof-based getters silently returned 0 for
// malformed values, so "--seed 12x" ran an experiment with seed 0. A
// present-but-malformed flag must throw, and the message must name the
// flag so the user can find the typo.
TEST(CliArgsTest, MalformedIntThrowsNamingTheFlag) {
  const CliArgs args = parse({"prog", "--count=12x"});
  try {
    (void)args.getInt("count", 0);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("--count"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string{e.what()}.find("12x"), std::string::npos)
        << e.what();
  }
}

TEST(CliArgsTest, MalformedInt64Throws) {
  const CliArgs args = parse({"prog", "--ticks=9e9"});
  EXPECT_THROW((void)args.getInt64("ticks", 0), std::runtime_error);
}

TEST(CliArgsTest, MalformedDoubleThrows) {
  const CliArgs args = parse({"prog", "--scale=0.5abc"});
  EXPECT_THROW((void)args.getDouble("scale", 1.0), std::runtime_error);
}

TEST(CliArgsTest, EmptyValueThrows) {
  const CliArgs args = parse({"prog", "--count="});
  EXPECT_THROW((void)args.getInt("count", 0), std::runtime_error);
  EXPECT_THROW((void)args.getDouble("count", 0.0), std::runtime_error);
}

TEST(CliArgsTest, TrailingWhitespaceThrows) {
  const CliArgs args = parse({"prog", "--count=5 "});
  EXPECT_THROW((void)args.getInt("count", 0), std::runtime_error);
}

// A bare flag stores the value "true"; asking for it as a number is a
// usage error ("--trace-capacity" without a count), not a silent 0.
TEST(CliArgsTest, BareFlagReadAsIntThrows) {
  const CliArgs args = parse({"prog", "--capacity"});
  EXPECT_THROW((void)args.getInt64("capacity", -1), std::runtime_error);
}

TEST(CliArgsTest, ExplicitFalseVariants) {
  const CliArgs args = parse({"prog", "--a=false", "--b=0", "--c=no",
                              "--d=off"});
  EXPECT_FALSE(args.getBool("a", true));
  EXPECT_FALSE(args.getBool("b", true));
  EXPECT_FALSE(args.getBool("c", true));
  EXPECT_FALSE(args.getBool("d", true));
}

// Previously any unrecognised boolean spelling quietly meant false, so
// "--telemetry=ture" disabled telemetry without a word.
TEST(CliArgsTest, MalformedBoolThrows) {
  const CliArgs args = parse({"prog", "--telemetry=ture"});
  try {
    (void)args.getBool("telemetry", false);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("--telemetry"), std::string::npos)
        << e.what();
  }
}

TEST(CliArgsTest, NegativeNumbersStillParse) {
  const CliArgs args = parse({"prog", "--offset=-3", "--bias=-0.5"});
  EXPECT_EQ(args.getInt("offset", 0), -3);
  EXPECT_DOUBLE_EQ(args.getDouble("bias", 0.0), -0.5);
}

TEST(CliArgsTest, FirstUnknownNamesAFlagOutsideTheKnownSet) {
  const CliArgs args = parse({"prog", "--seed=3", "--scael", "0.5", "pos"});
  EXPECT_EQ(args.firstUnknown({"seed", "scale"}), std::string{"scael"});
  EXPECT_EQ(args.firstUnknown({"seed", "scael"}), std::nullopt);
  EXPECT_EQ(parse({"prog", "pos"}).firstUnknown({}), std::nullopt);
}

}  // namespace
}  // namespace dike::util
