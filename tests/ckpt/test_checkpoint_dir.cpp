// Checkpoint-directory discovery: findLatestValidCheckpoint must hand back
// the newest file that passes full container validation, stepping over
// corrupt, truncated, and partially-written files loudly — never silently,
// and never by wedging the resume.
#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace ckpt = dike::ckpt;
namespace fs = std::filesystem;

namespace {

class CheckpointDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ckpt_scan_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  std::string write(std::int64_t quantum, std::string_view payload) {
    const std::string path = dir_ + "/" + ckpt::checkpointFileName(quantum);
    ckpt::writeCheckpointFile(path, payload);
    return path;
  }

  void rawWrite(const std::string& name, const std::string& bytes) {
    std::ofstream out{dir_ + "/" + name, std::ios::binary | std::ios::trunc};
    out << bytes;
  }

  std::string dir_;
};

TEST_F(CheckpointDirTest, MissingDirectoryIsAnEmptyScan) {
  const ckpt::CheckpointDirScan scan =
      ckpt::findLatestValidCheckpoint(dir_ + "/nope");
  EXPECT_TRUE(scan.path.empty());
  EXPECT_EQ(scan.quantum, -1);
  EXPECT_TRUE(scan.skipped.empty());
}

TEST_F(CheckpointDirTest, PicksTheNewestValidFile) {
  write(8, "old");
  const std::string newest = write(16, "new");
  const ckpt::CheckpointDirScan scan = ckpt::findLatestValidCheckpoint(dir_);
  EXPECT_EQ(scan.path, newest);
  EXPECT_EQ(scan.quantum, 16);
  EXPECT_EQ(scan.payload, "new");  // validated once, handed to the resume
  EXPECT_TRUE(scan.skipped.empty());
  EXPECT_TRUE(scan.partials.empty());
}

TEST_F(CheckpointDirTest, TruncatedNewestFallsBackToPreviousGood) {
  const std::string good = write(8, "good");
  // Truncate the newest file mid-container (half the header survives).
  const std::string full = ckpt::encodeCheckpoint("doomed payload");
  rawWrite(ckpt::checkpointFileName(16), full.substr(0, full.size() / 2));

  const ckpt::CheckpointDirScan scan = ckpt::findLatestValidCheckpoint(dir_);
  EXPECT_EQ(scan.path, good);
  EXPECT_EQ(scan.quantum, 8);
  EXPECT_EQ(scan.payload, "good");
  ASSERT_EQ(scan.skipped.size(), 1u);
  EXPECT_NE(scan.skipped.front().find("truncated"), std::string::npos)
      << scan.skipped.front();
}

TEST_F(CheckpointDirTest, BitFlippedNewestFallsBackToPreviousGood) {
  const std::string good = write(8, "good");
  std::string bytes = ckpt::encodeCheckpoint("about to rot");
  bytes[bytes.size() - 3] ^= 0x40;  // flip one payload bit
  rawWrite(ckpt::checkpointFileName(16), bytes);

  const ckpt::CheckpointDirScan scan = ckpt::findLatestValidCheckpoint(dir_);
  EXPECT_EQ(scan.path, good);
  EXPECT_EQ(scan.quantum, 8);
  EXPECT_EQ(scan.payload, "good");
  ASSERT_EQ(scan.skipped.size(), 1u);
  EXPECT_NE(scan.skipped.front().find("checksum"), std::string::npos)
      << scan.skipped.front();
}

TEST_F(CheckpointDirTest, AllCorruptMeansEmptyScanWithEveryFileReported) {
  rawWrite(ckpt::checkpointFileName(8), "garbage");
  rawWrite(ckpt::checkpointFileName(16), "more garbage");
  const ckpt::CheckpointDirScan scan = ckpt::findLatestValidCheckpoint(dir_);
  EXPECT_TRUE(scan.path.empty());
  EXPECT_TRUE(scan.payload.empty());
  EXPECT_EQ(scan.quantum, -1);
  EXPECT_EQ(scan.skipped.size(), 2u);
}

TEST_F(CheckpointDirTest, PartialTmpDebrisIsReportedSeparately) {
  const std::string good = write(8, "good");
  // A killed writeFileAtomic leaves the staging file; the final name was
  // never touched, so this is debris — not corruption.
  rawWrite(ckpt::checkpointFileName(16) + ".tmp", "half a container");

  const ckpt::CheckpointDirScan scan = ckpt::findLatestValidCheckpoint(dir_);
  EXPECT_EQ(scan.path, good);
  EXPECT_TRUE(scan.skipped.empty());
  ASSERT_EQ(scan.partials.size(), 1u);
  EXPECT_NE(scan.partials.front().find("partial"), std::string::npos);
}

TEST_F(CheckpointDirTest, NonCanonicalNameIsStillUsableWithoutAQuantum) {
  ckpt::writeCheckpointFile(dir_ + "/manual.ckpt", "hand-made");
  const ckpt::CheckpointDirScan scan = ckpt::findLatestValidCheckpoint(dir_);
  EXPECT_EQ(scan.path, dir_ + "/manual.ckpt");
  EXPECT_EQ(scan.quantum, -1) << "no quantum derivable from the name";
}

TEST_F(CheckpointDirTest, CanonicalNamesRoundTripTheQuantum) {
  EXPECT_EQ(ckpt::checkpointFileName(0), "ckpt-000000000000.ckpt");
  EXPECT_EQ(ckpt::checkpointFileName(123456), "ckpt-000000123456.ckpt");
  write(123456, "x");
  EXPECT_EQ(ckpt::findLatestValidCheckpoint(dir_).quantum, 123456);
}

}  // namespace
