// Trailing-corruption tolerance for BENCH checkpoints (and, one layer up,
// resume byte-identity through that damage).
//
// A checkpoint is rewritten atomically, but the file can still end damaged —
// a kill mid-append from an older tool, a torn copy, stray bytes from a
// crashed editor.  The policy under test: damage confined to the LAST record
// line (or to non-record trailing bytes) demotes that record to
// valid-but-missing, so resume re-dispatches exactly the affected indices
// and the merged file comes out byte-identical to an uninterrupted run.
// Damage anywhere else still fails loudly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/dispatch/checkpoint.hpp"
#include "scenario/execution_backend.hpp"

namespace pnoc::scenario {
namespace {

ScenarioSpec quickSpec(double load, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.set("pattern", "uniform");
  spec.set("arch", "firefly");
  spec.params.offeredLoad = load;
  spec.params.seed = seed;
  spec.params.warmupCycles = 100;
  spec.params.measureCycles = 400;
  return spec;
}

std::string readAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A 3-spec grid with its full BENCH text and per-index records.
struct Fixture {
  std::vector<ScenarioSpec> grid;
  std::vector<std::string> records;
  std::string fullText;
  // ctest runs each test in its own process, and each builds this fixture:
  // a per-process name keeps them from reading each other's files.
  std::string benchName = "corrupt_fixture_" + std::to_string(::getpid());

  Fixture() {
    for (int i = 0; i < 3; ++i) {
      grid.push_back(quickSpec(0.001 + 0.001 * i, 40 + i));
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const ScenarioOutcome outcome =
          executeJob({ScenarioJob::Op::kRun, grid[i]});
      records.push_back(dispatch::serializedOutcomeRecord(outcome, i));
    }
    const std::string dir = ::testing::TempDir();
    const std::string path = dispatch::writeBenchFile(dir, benchName, records);
    fullText = readAll(path);
    std::remove(path.c_str());
  }
};

const Fixture& fixture() {
  static const Fixture fix;
  return fix;
}

TEST(CheckpointCorruption, TruncatedLastRecordLineIsValidButMissing) {
  const Fixture& fix = fixture();
  // Chop the file mid-way through the LAST record line (a torn write).
  const std::size_t lastRecord = fix.fullText.rfind("\n  {");
  const std::string torn = fix.fullText.substr(0, lastRecord + 20);
  const dispatch::BenchCheckpoint checkpoint =
      dispatch::parseBenchCheckpoint(torn, "run", fix.grid, "test");
  EXPECT_EQ(checkpoint.presentCount(), 2u);
  ASSERT_EQ(checkpoint.missingIndices(), (std::vector<std::size_t>{2}));
  // The surviving records are byte-exact.
  EXPECT_EQ(checkpoint.rawByIndex[0], fix.records[0]);
  EXPECT_EQ(checkpoint.rawByIndex[1], fix.records[1]);
}

TEST(CheckpointCorruption, GarbageTrailingLineIsTolerated) {
  const Fixture& fix = fixture();
  // Stray bytes appended after the closing "]}" that happen to look like
  // the start of a record line.
  const dispatch::BenchCheckpoint checkpoint = dispatch::parseBenchCheckpoint(
      fix.fullText + "  {\"run\" GARBAGE", "run", fix.grid, "test");
  EXPECT_EQ(checkpoint.presentCount(), 3u);
  EXPECT_TRUE(checkpoint.missingIndices().empty());
}

TEST(CheckpointCorruption, MidFileDamageStillFailsLoudly) {
  const Fixture& fix = fixture();
  // Mangle the FIRST record's line: that is not a crash artifact — refuse.
  std::string damaged = fix.fullText;
  const std::size_t first = damaged.find("  {");
  damaged.replace(first, 12, "  {\"run\" ???");
  EXPECT_THROW(dispatch::parseBenchCheckpoint(damaged, "run", fix.grid, "test"),
               std::invalid_argument);
}

TEST(CheckpointCorruption, ResumeThroughTornTailIsByteIdentical) {
  const Fixture& fix = fixture();
  const std::string dir = ::testing::TempDir();
  // Write the torn checkpoint to disk the way a crashed tool would leave it.
  const std::size_t lastRecord = fix.fullText.rfind("\n  {");
  const std::string benchPath = dir + "/BENCH_" + fix.benchName + ".json";
  {
    std::ofstream out(benchPath);
    out << fix.fullText.substr(0, lastRecord + 14);
  }
  // Resume: load, re-dispatch exactly the demoted index, merge, rewrite.
  dispatch::BenchCheckpoint checkpoint =
      dispatch::loadBenchCheckpoint(dir, fix.benchName, "run", fix.grid);
  ASSERT_EQ(checkpoint.path(), benchPath);
  ASSERT_EQ(checkpoint.missingIndices(), (std::vector<std::size_t>{2}));
  for (const std::size_t index : checkpoint.missingIndices()) {
    checkpoint.record(index, executeJob({ScenarioJob::Op::kRun, fix.grid[index]}));
  }
  checkpoint.flush(0);
  EXPECT_EQ(readAll(benchPath), fix.fullText);
  std::remove(benchPath.c_str());
}

}  // namespace
}  // namespace pnoc::scenario
