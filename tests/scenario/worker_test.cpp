// The production worker loop, run in-process over string streams: the
// handshake, one reply per job line byte-equal to a direct execution, an
// in-band error for a corrupt line, and no reaction to PNOC_TEST_FAULT
// (only the test binary's own worker, tests/main.cpp, injects faults).
#include "scenario/worker.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "scenario/execution_backend.hpp"
#include "scenario/wire.hpp"
#include "support/scoped_env.hpp"

namespace pnoc::scenario {
namespace {

using testsupport::ScopedEnv;

std::vector<ScenarioJob> twoJobs() {
  std::vector<ScenarioJob> jobs;
  for (std::uint64_t seed : {11u, 12u}) {
    ScenarioSpec spec;
    spec.set("pattern", "uniform");
    spec.set("arch", seed == 11 ? "dhetpnoc" : "firefly");
    spec.params.offeredLoad = 0.001;
    spec.params.seed = seed;
    spec.params.warmupCycles = 100;
    spec.params.measureCycles = 400;
    jobs.push_back({ScenarioJob::Op::kRun, spec});
  }
  return jobs;
}

/// The session stdin for `jobs`: the hello, then one job line per job.
std::string sessionInput(const std::vector<ScenarioJob>& jobs) {
  std::string input = wire::streamHelloLine() + "\n";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    input += wire::jobLine(i, jobs[i]) + "\n";
  }
  return input;
}

/// What a healthy worker answers to sessionInput(jobs).
std::string expectedReplies(const std::vector<ScenarioJob>& jobs) {
  std::string replies = wire::streamAckLine() + "\n";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    replies += wire::outcomeLine(i, executeJob(jobs[i])) + "\n";
  }
  return replies;
}

TEST(WorkerLoop, EmptyStdinIsAnEmptySession) {
  std::istringstream in("");
  std::ostringstream out;
  EXPECT_EQ(runWorkerLoop(in, out), 0);
  EXPECT_EQ(out.str(), "");
}

TEST(WorkerLoop, FirstLineOtherThanTheHelloExitsTwoSilently) {
  const auto jobs = twoJobs();
  std::istringstream in(wire::jobLine(0, jobs[0]) + "\n");
  std::ostringstream out;
  EXPECT_EQ(runWorkerLoop(in, out), 2);
  EXPECT_EQ(out.str(), "");
}

TEST(WorkerLoop, AcksTheHelloThenRepliesToEachJobInOrder) {
  const auto jobs = twoJobs();
  std::istringstream in(sessionInput(jobs));
  std::ostringstream out;
  EXPECT_EQ(runWorkerLoop(in, out), 0);
  EXPECT_EQ(out.str(), expectedReplies(jobs));
}

TEST(WorkerLoop, CorruptJobLineIsAnInBandErrorAndANonzeroExit) {
  const auto jobs = twoJobs();
  std::istringstream in(wire::streamHelloLine() + "\n" + "{not a job line\n" +
                        wire::jobLine(1, jobs[1]) + "\n");
  std::ostringstream out;
  EXPECT_NE(runWorkerLoop(in, out), 0);
  std::istringstream replies(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(replies, line));
  EXPECT_EQ(line, wire::streamAckLine());
  ASSERT_TRUE(std::getline(replies, line));
  const wire::WorkerReply error = wire::parseReplyLine(line);
  EXPECT_FALSE(error.ok);
  EXPECT_FALSE(error.error.empty());
  // The session goes on: the next well-formed job is still answered.
  ASSERT_TRUE(std::getline(replies, line));
  EXPECT_EQ(line, wire::outcomeLine(1, executeJob(jobs[1])));
  EXPECT_FALSE(std::getline(replies, line));
}

TEST(WorkerLoop, IgnoresTheTestFaultVariable) {
  ScopedEnv fault("PNOC_TEST_FAULT", "garbage@0");
  const auto jobs = twoJobs();
  std::istringstream in(sessionInput(jobs));
  std::ostringstream out;
  EXPECT_EQ(runWorkerLoop(in, out), 0);
  EXPECT_EQ(out.str(), expectedReplies(jobs));
}

}  // namespace
}  // namespace pnoc::scenario
