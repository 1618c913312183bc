// Crash-atomic file primitives: atomic replace (tmp + fsync + rename),
// durable appends, and trim-to-N-lines recovery for append-only streams.
#include "util/atomic_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "../support/lockstep.hpp"

namespace util = dike::util;
namespace fs = std::filesystem;

namespace {

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

using dike::test::slurp;

TEST(WriteFileAtomic, CreatesAndOverwrites) {
  const std::string path = tempPath("atomic_create.txt");
  util::writeFileAtomic(path, "first\n");
  EXPECT_EQ(slurp(path), "first\n");
  util::writeFileAtomic(path, "second, longer than the first\n");
  EXPECT_EQ(slurp(path), "second, longer than the first\n");
}

TEST(WriteFileAtomic, LeavesNoTempFileBehind) {
  const std::string path = tempPath("atomic_tidy.txt");
  util::writeFileAtomic(path, "bytes");
  EXPECT_FALSE(fs::exists(path + ".tmp"))
      << "the staging file must be renamed away";
}

TEST(WriteFileAtomic, EmptyPayloadYieldsEmptyFile) {
  const std::string path = tempPath("atomic_empty.txt");
  util::writeFileAtomic(path, "");
  EXPECT_TRUE(fs::exists(path));
  EXPECT_EQ(slurp(path), "");
}

TEST(WriteFileAtomic, MissingParentDirectoryFailsLoudly) {
  EXPECT_THROW(
      util::writeFileAtomic(tempPath("no_such_dir/out.txt"), "bytes"),
      std::runtime_error);
}

TEST(AppendFile, AppendsAcrossReopens) {
  const std::string path = tempPath("append_reopen.txt");
  {
    util::AppendFile f{path, /*truncate=*/true};
    f.append("one\n");
    f.flushSync();
  }
  {
    util::AppendFile f{path};
    f.append("two\n");
    f.flushSync();
  }
  EXPECT_EQ(slurp(path), "one\ntwo\n");
}

TEST(AppendFile, TruncateFlagDiscardsPriorContent) {
  const std::string path = tempPath("append_trunc.txt");
  util::writeFileAtomic(path, "stale bytes\n");
  util::AppendFile f{path, /*truncate=*/true};
  f.append("fresh\n");
  f.flushSync();
  EXPECT_EQ(slurp(path), "fresh\n");
}

TEST(TrimFileToLines, DropsTornTailAndExcessLines) {
  const std::string path = tempPath("trim.txt");
  util::writeFileAtomic(path, "l0\nl1\nl2\nl3\ntorn-no-newline");
  // 4 complete lines plus a tear; keep 2 => drop 2 lines + the tear = 3.
  EXPECT_EQ(util::trimFileToLines(path, 2), 3);
  EXPECT_EQ(slurp(path), "l0\nl1\n");
}

TEST(TrimFileToLines, ExactCountIsANoOpExceptTear) {
  const std::string path = tempPath("trim_exact.txt");
  util::writeFileAtomic(path, "l0\nl1\n");
  EXPECT_EQ(util::trimFileToLines(path, 2), 0);
  EXPECT_EQ(slurp(path), "l0\nl1\n");

  util::writeFileAtomic(path, "l0\nl1\ntor");
  EXPECT_EQ(util::trimFileToLines(path, 2), 1) << "the torn tail is dropped";
  EXPECT_EQ(slurp(path), "l0\nl1\n");
}

TEST(TrimFileToLines, TooFewLinesFailsLoudly) {
  const std::string path = tempPath("trim_short.txt");
  util::writeFileAtomic(path, "only\n");
  EXPECT_THROW((void)util::trimFileToLines(path, 3), std::runtime_error)
      << "claiming more durable lines than exist is corruption, not recovery";
}

TEST(TrimFileToLines, MissingFileOnlyAllowedAtZero) {
  const std::string path = tempPath("trim_missing.txt");
  EXPECT_EQ(util::trimFileToLines(path, 0), 0);
  EXPECT_THROW((void)util::trimFileToLines(path, 1), std::runtime_error);
}

}  // namespace
