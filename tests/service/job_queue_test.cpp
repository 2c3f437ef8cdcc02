// JobQueue scheduling-policy tests: priority order, per-client fairness,
// anti-starvation aging, cancellation and terminal-state accounting — pure
// state machine, no sockets or processes, so every policy claim in the
// header is pinned deterministically here.
#include <gtest/gtest.h>

#include <stdexcept>

#include "scenario/json_util.hpp"
#include "service/job_queue.hpp"

namespace pnoc::service {
namespace {

GridJob makeJob(const std::string& client, std::uint64_t priority,
                std::size_t units) {
  GridJob job;
  job.client = client;
  job.priority = priority;
  job.benchName = "t";
  job.outDir = ".";
  for (std::size_t u = 0; u < units; ++u) {
    scenario::ScenarioSpec spec;
    spec.params.seed = u + 1;
    job.grid.push_back(spec);
  }
  return job;
}

TEST(JobQueue, SubmitAssignsSequentialIdsAndValidates) {
  JobQueue queue;
  EXPECT_EQ(queue.submit(makeJob("a", 0, 2)), 1u);
  EXPECT_EQ(queue.submit(makeJob("a", 0, 1)), 2u);
  EXPECT_THROW(queue.submit(makeJob("a", 0, 0)), std::invalid_argument);

  // Journal replay passes ids through; fresh ids continue above them.
  GridJob replayed = makeJob("b", 0, 1);
  replayed.id = 9;
  EXPECT_EQ(queue.submit(std::move(replayed)), 9u);
  EXPECT_EQ(queue.submit(makeJob("b", 0, 1)), 10u);

  GridJob duplicate = makeJob("b", 0, 1);
  duplicate.id = 9;
  EXPECT_THROW(queue.submit(std::move(duplicate)), std::invalid_argument);
}

TEST(JobQueue, SubmitRequestOmissionsTakeTheDefaults) {
  // The smallest submit a client may send: every other member defaults.
  const GridJob bare = parseGridJob(
      scenario::JsonValue::parse("{\"op\":\"submit\",\"specs\":[{}]}"));
  EXPECT_EQ(bare.client, "");
  EXPECT_EQ(bare.priority, 0u);
  EXPECT_EQ(bare.op, scenario::ScenarioJob::Op::kRun);
  EXPECT_EQ(bare.benchName, "pnoc_run");
  EXPECT_EQ(bare.outDir, ".");
  ASSERT_EQ(bare.grid.size(), 1u);
  EXPECT_EQ(bare.grid[0].toJson(), scenario::ScenarioSpec().toJson());

  // A submit without "priority" (the benchmark client's shape), then the
  // full member list written back and read again.
  scenario::ScenarioSpec spec;
  spec.set("pattern", "skewed3");
  const GridJob job = parseGridJob(scenario::JsonValue::parse(
      "{\"op\":\"submit\",\"client\":\"c\",\"mode\":\"peak\",\"bench\":\"b\","
      "\"dir\":\"d\",\"specs\":[{\"pattern\":\"skewed3\"}]}"));
  EXPECT_EQ(job.priority, 0u);
  EXPECT_EQ(gridJobMembers(job),
            "\"client\":\"c\",\"priority\":0,\"mode\":\"peak\",\"bench\":\"b\","
            "\"dir\":\"d\",\"specs\":[" + spec.toJson() + "]");

  // Refusals keep the daemon's reply texts.
  const auto refusal = [](const std::string& text) {
    try {
      parseGridJob(scenario::JsonValue::parse(text));
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("(accepted)");
  };
  EXPECT_EQ(refusal("{\"mode\":\"sideways\",\"specs\":[{}]}"),
            "mode must be run or peak, not 'sideways'");
  EXPECT_EQ(refusal("{\"specs\":[]}"), "submit needs a non-empty \"specs\" array");
  EXPECT_EQ(refusal("{\"client\":\"a\"}"),
            "submit needs a non-empty \"specs\" array");
  EXPECT_EQ(refusal("{\"specs\":[{\"wavelenghts\":1}]}").rfind("bad spec: ", 0), 0u);
}

TEST(JobQueue, HigherPriorityDispatchesFirst) {
  JobQueue queue;
  const std::uint64_t low = queue.submit(makeJob("a", 0, 2));
  const std::uint64_t high = queue.submit(makeJob("a", 5, 2));
  // Dispatches 1..3 favor priority; units come in grid order.
  auto unit = queue.nextUnit();
  ASSERT_TRUE(unit.has_value());
  EXPECT_EQ(unit->job, high);
  EXPECT_EQ(unit->unit, 0u);
  unit = queue.nextUnit();
  ASSERT_TRUE(unit.has_value());
  EXPECT_EQ(unit->job, high);
  EXPECT_EQ(unit->unit, 1u);
  unit = queue.nextUnit();
  ASSERT_TRUE(unit.has_value());
  EXPECT_EQ(unit->job, low);
}

TEST(JobQueue, ClientsTakeTurnsWithinATier) {
  JobQueue queue;
  const std::uint64_t hog1 = queue.submit(makeJob("hog", 0, 4));
  queue.submit(makeJob("hog", 0, 4));
  const std::uint64_t guest = queue.submit(makeJob("guest", 0, 2));
  // Neither client has been served: the tie keeps the older job.  From then
  // on the least-recently-served client alternates — the hog's backlog
  // cannot freeze the guest out.
  EXPECT_EQ(queue.nextUnit()->job, hog1);
  EXPECT_EQ(queue.nextUnit()->job, guest);
  EXPECT_EQ(queue.nextUnit()->job, hog1);
  // 4th dispatch is the aging slot; oldest job (hog1) happens to win it.
  EXPECT_EQ(queue.nextUnit()->job, hog1);
  EXPECT_EQ(queue.nextUnit()->job, guest);
  // Guest exhausted: the hog's jobs proceed oldest-first.
  EXPECT_EQ(queue.nextUnit()->job, hog1);
}

TEST(JobQueue, EveryFourthDispatchServesTheOldestJob) {
  JobQueue queue;
  const std::uint64_t background = queue.submit(makeJob("bg", 0, 4));
  const std::uint64_t urgent = queue.submit(makeJob("fg", 9, 16));
  EXPECT_EQ(queue.nextUnit()->job, urgent);
  EXPECT_EQ(queue.nextUnit()->job, urgent);
  EXPECT_EQ(queue.nextUnit()->job, urgent);
  // Aging: the 4th dispatch ignores priority — the background job advances
  // even under a saturating high-priority stream.
  EXPECT_EQ(queue.nextUnit()->job, background);
  EXPECT_EQ(queue.nextUnit()->job, urgent);
}

TEST(JobQueue, UnitCompletionDrivesTerminalStates) {
  JobQueue queue;
  const std::uint64_t id = queue.submit(makeJob("a", 0, 2));
  const auto first = queue.nextUnit();
  const auto second = queue.nextUnit();
  ASSERT_TRUE(first && second);
  EXPECT_EQ(queue.pendingUnits(), 0u);
  EXPECT_EQ(queue.dispatchedUnits(), 2u);

  EXPECT_FALSE(queue.unitDone(*first, false));
  EXPECT_EQ(queue.find(id)->state, JobState::kRunning);
  EXPECT_TRUE(queue.unitDone(*second, false));
  EXPECT_EQ(queue.find(id)->state, JobState::kDone);
  EXPECT_EQ(queue.find(id)->unitStates[0], UnitState::kDone);
  EXPECT_EQ(queue.find(id)->unitStates[1], UnitState::kDone);
  EXPECT_TRUE(queue.drained());

  // Any failed unit makes the whole job terminal-failed.
  const std::uint64_t flaky = queue.submit(makeJob("a", 0, 1));
  EXPECT_TRUE(queue.unitDone(*queue.nextUnit(), true));
  EXPECT_EQ(queue.find(flaky)->state, JobState::kFailed);
  EXPECT_EQ(queue.find(flaky)->failedUnits(), 1u);
}

TEST(JobQueue, CancelGoesTerminalNowAndDiscardsInFlightResults) {
  JobQueue queue;
  const std::uint64_t id = queue.submit(makeJob("a", 0, 3));
  const auto inFlight = queue.nextUnit();
  ASSERT_TRUE(inFlight.has_value());

  EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.find(id)->state, JobState::kCanceled);
  EXPECT_TRUE(queue.find(id)->terminal());
  EXPECT_TRUE(queue.drained());  // canceled units no longer count

  // The in-flight unit's late result is discarded, not recorded.
  EXPECT_FALSE(queue.unitDone(*inFlight, false));
  EXPECT_EQ(queue.find(id)->unitStates[inFlight->unit], UnitState::kCanceled);

  EXPECT_FALSE(queue.cancel(id));   // already terminal
  EXPECT_FALSE(queue.cancel(99));   // unknown
  EXPECT_FALSE(queue.nextUnit().has_value());
}

TEST(JobQueue, RequeueReturnsADispatchedUnitToPending) {
  JobQueue queue;
  queue.submit(makeJob("a", 0, 1));
  const auto unit = queue.nextUnit();
  ASSERT_TRUE(unit.has_value());
  EXPECT_EQ(queue.pendingUnits(), 0u);
  queue.requeueUnit(*unit);
  EXPECT_EQ(queue.pendingUnits(), 1u);
  // The same unit dispatches again.
  const auto again = queue.nextUnit();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->unit, unit->unit);
  // Requeue after completion is a no-op.
  queue.unitDone(*again, false);
  queue.requeueUnit(*again);
  EXPECT_EQ(queue.pendingUnits(), 0u);
}

}  // namespace
}  // namespace pnoc::service
