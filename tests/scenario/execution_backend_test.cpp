// ExecutionBackend tests: the worker-count policy lives in one place and
// clamps sanely, and the local fleet `shards=N` builds — any shard count —
// produces results and BENCH records bit-identical to a serial executeJob
// loop for mixed run/findPeaks batches and fails loudly instead of merging
// a partial batch.  Hosts-file fleets, retries and resume live in
// dispatch_test.cpp.
//
// The fleet re-execs THIS test binary: tests/main.cpp recognizes
// --pnoc-worker and runs the protocol worker loop.
#include "scenario/execution_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "scenario/json_record.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/wire.hpp"
#include "support/scoped_env.hpp"
#include "support/serial_reference.hpp"

namespace pnoc::scenario {
namespace {

using testsupport::ScopedEnv;

ScenarioSpec quickSpec(const std::string& pattern, const std::string& arch,
                       double load, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.set("pattern", pattern);
  spec.set("arch", arch);
  spec.params.offeredLoad = load;
  spec.params.seed = seed;
  spec.params.warmupCycles = 100;
  spec.params.measureCycles = 600;
  return spec;
}

/// What `shards=N` builds: N local re-exec'd workers.
std::unique_ptr<ExecutionBackend> localFleet(unsigned shards) {
  return makeBackend(BackendOptions{.workers = shards});
}

// The batch clamp is ExecutionBackend::workersFor's alone; its tests are in
// scenario_runner_test.cpp and dispatch_test.cpp.
TEST(ResolveWorkerCount, ExplicitRequestIsKept) {
  EXPECT_EQ(resolveWorkerCount(4), 4u);
  EXPECT_EQ(resolveWorkerCount(16), 16u);
}

TEST(ResolveWorkerCount, AutoIsHardwareConcurrency) {
  // shards=0 takes hardware concurrency; no environment variable pins it.
  ScopedEnv env("PNOC_BENCH_THREADS", "3");
  EXPECT_EQ(resolveWorkerCount(0), std::max(1u, std::thread::hardware_concurrency()));
}

// The acceptance bar: for the same spec batch and seeds, the fleet (any
// shard count) and the serial executeJob loop produce identical merged
// metrics — compared here through the exact wire serialization of every
// field.
TEST(SubprocessBackend, MixedBatchMatchesInProcessBitForBit) {
  std::vector<ScenarioJob> jobs;
  jobs.push_back({ScenarioJob::Op::kRun, quickSpec("uniform", "dhetpnoc", 0.001, 7)});
  jobs.push_back({ScenarioJob::Op::kFindPeak, quickSpec("skewed3", "dhetpnoc", 0.001, 9)});
  jobs.push_back({ScenarioJob::Op::kRun, quickSpec("hotspot:frac=0.3,hot=5", "firefly", 0.0008, 11)});
  jobs.push_back({ScenarioJob::Op::kFindPeak, quickSpec("uniform", "firefly", 0.001, 13)});

  const auto expected = testsupport::executeSerially(jobs);

  for (const unsigned shards : {1u, 2u, 3u}) {
    const auto actual = localFleet(shards)->execute(jobs);
    ASSERT_EQ(actual.size(), expected.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].op, expected[i].op);
      EXPECT_EQ(actual[i].spec.toJson(), expected[i].spec.toJson());
      EXPECT_EQ(wire::toJson(actual[i].metrics), wire::toJson(expected[i].metrics))
          << "shards=" << shards << " job=" << i;
      EXPECT_EQ(wire::toJson(actual[i].search), wire::toJson(expected[i].search))
          << "shards=" << shards << " job=" << i;
    }
  }
}

// ... and the BENCH records built from those results are byte-identical too
// (timing records excluded — they are wall-clock by definition).
TEST(SubprocessBackend, BenchRecordsMatchInProcessByteForByte) {
  const std::vector<ScenarioSpec> runSpecs = {
      quickSpec("uniform", "dhetpnoc", 0.001, 21),
      quickSpec("skewed2", "firefly", 0.0008, 22),
  };
  const std::vector<ScenarioSpec> peakSpecs = {
      quickSpec("skewed3", "dhetpnoc", 0.001, 23),
  };

  // Collect the serialized record lines every bench binary would emit
  // (recordRun/recordPeak are THE single BENCH code path).
  const auto recordLines = [](const std::vector<ScenarioResult>& runs,
                              const std::vector<ScenarioPeak>& peaks) {
    JsonRecorder recorder("backend_compare");
    std::string lines;
    for (const auto& result : runs) {
      lines += recordRun(recorder, result.spec, result.metrics).serialize() + "\n";
    }
    for (const auto& peak : peaks) {
      lines += recordPeak(recorder, peak).serialize() + "\n";
    }
    return lines;
  };

  const std::string expected = recordLines(testsupport::runSerially(runSpecs),
                                           testsupport::findPeaksSerially(peakSpecs));
  const auto fleet = localFleet(2);
  const std::string actual = recordLines(fleet->run(runSpecs), fleet->findPeaks(peakSpecs));
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(actual, expected);
}

TEST(SubprocessBackend, ShardsBeyondBatchSizeStillWork) {
  const std::vector<ScenarioSpec> specs = {
      quickSpec("uniform", "dhetpnoc", 0.001, 31),
      quickSpec("uniform", "firefly", 0.001, 32),
  };
  const auto processes = localFleet(8);  // > specs.size(): clamps to 2
  EXPECT_EQ(processes->workersFor(specs.size()), 2u);
  const auto results = processes->run(specs);
  const auto expected = testsupport::runSerially(specs);
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(wire::toJson(results[i].metrics), wire::toJson(expected[i].metrics));
  }
}

// Many large replies per worker: peak replies are ~4 KiB each, so 44 jobs
// over 2 shards puts every worker's output well past one ~64 KiB pipe
// buffer.  A parent that stopped draining one worker's stdout while it
// waited on another (or a worker that inherited a sibling's pipe ends)
// would hang here instead of completing.
TEST(SubprocessBackend, LargeRepliesAcrossWorkersDoNotDeadlock) {
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t seed = 0; seed < 44; ++seed) {
    ScenarioSpec spec = quickSpec("uniform", "dhetpnoc", 0.001, 100 + seed);
    spec.params.warmupCycles = 50;
    spec.params.measureCycles = 400;
    specs.push_back(spec);
  }
  const auto peaks = localFleet(2)->findPeaks(specs);
  ASSERT_EQ(peaks.size(), specs.size());
  for (const auto& peak : peaks) {
    EXPECT_FALSE(peak.search.sweep.empty());
  }
}

TEST(SubprocessBackend, EmptyBatchIsANoOp) {
  const auto processes = localFleet(4);
  EXPECT_TRUE(processes->run({}).empty());
  EXPECT_TRUE(processes->findPeaks({}).empty());
  EXPECT_TRUE(processes->execute({}).empty());
}

TEST(SubprocessBackend, JobFailureSurfacesAsException) {
  // An unknown traffic family passes spec.set() (patterns are validated at
  // network build time) and explodes inside the worker; the backend must
  // surface that as an exception naming the job, not silence or a crash.
  ScenarioSpec good = quickSpec("uniform", "dhetpnoc", 0.001, 40);
  ScenarioSpec bad = quickSpec("uniform", "dhetpnoc", 0.001, 41);
  bad.params.pattern = "no-such-family";
  try {
    localFleet(2)->run({good, bad});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("job 1"), std::string::npos)
        << error.what();
  }
}

TEST(SubprocessBackend, DeadWorkerFailsLoudlyNamingUnansweredJobs) {
  // A lone worker dies on job 1, and so does the respawned worker its retry
  // goes to: execute() must fail naming the unanswered job and the worker's
  // exit — silently merging the partial batch is the bug this guards
  // against.
  ScopedEnv crash("PNOC_TEST_FAULT", "crash@1");
  std::vector<ScenarioJob> jobs;
  for (std::uint64_t s = 0; s < 4; ++s) {
    jobs.push_back(
        {ScenarioJob::Op::kRun, quickSpec("uniform", "dhetpnoc", 0.001, 90 + s)});
  }
  try {
    localFleet(1)->execute(jobs);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("job 1 failed"), std::string::npos) << what;
    EXPECT_NE(what.find("exited with status 57"), std::string::npos) << what;
    EXPECT_NE(what.find("retry budget of 1 exhausted"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace pnoc::scenario
