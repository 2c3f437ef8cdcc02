// Pipelined dealing (policy.pipeline > 1) and graceful-interrupt coverage
// for the execution backend: pipelining must change wall-clock behavior
// only — results stay byte-identical and in input order — and a pending
// SIGINT/SIGTERM must abort the dispatch with a named exception so the
// driver's failure path flushes its checkpoint.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/execution_backend.hpp"
#include "scenario/wire.hpp"
#include "sim/interrupt.hpp"
#include "support/scoped_env.hpp"

namespace pnoc::scenario {
namespace {

using testsupport::ScopedEnv;

std::vector<ScenarioJob> quickJobs(std::size_t count) {
  std::vector<ScenarioJob> jobs;
  for (std::size_t j = 0; j < count; ++j) {
    ScenarioSpec spec;
    spec.set("pattern", j % 2 == 0 ? "uniform" : "skewed3");
    spec.set("arch", "firefly");
    spec.params.offeredLoad = 0.001 + 0.0005 * static_cast<double>(j % 3);
    spec.params.seed = 60 + j;
    spec.params.warmupCycles = 100;
    spec.params.measureCycles = 400;
    jobs.push_back({ScenarioJob::Op::kRun, spec});
  }
  return jobs;
}

TEST(StreamingPipeline, DepthTwoIsByteIdenticalAndReachesTheDepth) {
  const std::vector<ScenarioJob> jobs = quickJobs(5);
  std::vector<ScenarioOutcome> expected;
  for (const ScenarioJob& job : jobs) expected.push_back(executeJob(job));

  // Slow every reply so the dealer demonstrably queues a second line while
  // the first job simulates.
  ScopedEnv fault("PNOC_TEST_FAULT", "slow@*:ms=30");
  dispatch::FaultPolicy policy;
  policy.pipeline = 2;
  ExecutionBackend backend({dispatch::HostEntry{.workers = 1}}, policy);
  const std::vector<ScenarioOutcome> actual = backend.execute(jobs);

  EXPECT_GE(backend.lastStats().maxInFlight, 2u);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(actual[j].spec.toJson(), expected[j].spec.toJson()) << "job " << j;
    EXPECT_EQ(wire::toJson(actual[j].metrics), wire::toJson(expected[j].metrics))
        << "job " << j;
  }
}

TEST(StreamingInterrupt, PendingInterruptAbortsTheDispatchByName) {
  // The backend pnoc_run builds when no runner key is given.
  const auto backend = makeBackend(BackendOptions{});
  sim::installInterruptHandlers();
  sim::raiseInterruptForTest();
  try {
    backend->execute(quickJobs(2));
    sim::clearInterruptForTest();
    FAIL() << "a pending interrupt must abort the dispatch";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("interrupted by signal"), std::string::npos)
        << error.what();
  }
  sim::clearInterruptForTest();
  EXPECT_FALSE(sim::interruptRequested());

  // Cleared: the same backend dispatches normally again.
  EXPECT_EQ(backend->execute(quickJobs(1)).size(), 1u);
}

}  // namespace
}  // namespace pnoc::scenario
