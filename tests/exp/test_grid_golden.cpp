// The engine's bits across the whole policy grid: Table II's wl1-wl16 under
// each of the paper's five policies, at scale 0.1 and seed 42, are pinned by
// the FNV-1a of each run's runMetricsToJson text (tests/data/
// grid_report_golden.txt). An engine refactor must leave every digest
// alone; a change that moves a report on purpose re-records the file from
// the digests this test prints, and says why in its commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "exp/replay.hpp"
#include "exp/runner.hpp"
#include "util/json.hpp"

namespace dike::exp {
namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string cellName(int workloadId, SchedulerKind kind) {
  std::string name = "wl";
  name += std::to_string(workloadId);
  name += ' ';
  name += toString(kind);
  return name;
}

TEST(GridGolden, ReportsMatchTheRecordedDigests) {
  std::ifstream in{std::string{DIKE_TEST_DATA_DIR} +
                   "/grid_report_golden.txt"};
  ASSERT_TRUE(in) << "missing tests/data/grid_report_golden.txt";
  std::map<std::string, std::string> recorded;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::string workload;
    std::string policy;
    std::string digest;
    ASSERT_TRUE(fields >> workload >> policy >> digest)
        << "bad golden line: " << line;
    recorded[workload + ' ' + policy] = digest;
  }

  int checked = 0;
  for (int workloadId = 1; workloadId <= 16; ++workloadId) {
    for (const SchedulerKind kind : allSchedulerKinds()) {
      RunSpec spec;
      spec.workloadId = workloadId;
      spec.kind = kind;
      spec.scale = 0.1;
      spec.seed = 42;
      const std::string name = cellName(workloadId, kind);
      const std::string report = runMetricsToJson(runWorkload(spec)).dump();
      const std::string digest = hex64(ckpt::fnv1a64(report));
      const auto it = recorded.find(name);
      EXPECT_TRUE(it != recorded.end() && it->second == digest)
          << name << ": report of " << report.size() << " bytes digests to "
          << digest << " (recorded: "
          << (it == recorded.end() ? std::string{"none"} : it->second)
          << "); the golden line would be\n"
          << name << ' ' << digest;
      ++checked;
    }
  }
  EXPECT_EQ(checked, static_cast<int>(recorded.size()))
      << "the golden file lists cells the grid does not run";
}

}  // namespace
}  // namespace dike::exp
