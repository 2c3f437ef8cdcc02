// Dispatch-subsystem tests: the execution backend over the worker fleet,
// its transports and the checkpointed-resume machinery.
//
// The acceptance bar mirrors the backend tests one layer down: for the same
// spec batch, the fleet — any worker count, any transport, any completion
// order — produces results and BENCH records bit-identical to a serial
// executeJob loop; a dead worker's in-flight job is retried once on a
// survivor; unrecoverable losses fail loudly naming the worker and job.
//
// Every worker here is a re-exec of THIS test binary (tests/main.cpp
// recognizes --pnoc-worker).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "scenario/dispatch/checkpoint.hpp"
#include "scenario/dispatch/hosts_file.hpp"
#include "scenario/execution_backend.hpp"
#include "scenario/json_record.hpp"
#include "scenario/json_util.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/wire.hpp"
#include "support/scoped_env.hpp"
#include "support/serial_reference.hpp"

namespace pnoc::scenario {
namespace {

using dispatch::HostEntry;
using testsupport::executeSerially;
using testsupport::ScopedEnv;

ScenarioSpec quickSpec(const std::string& pattern, const std::string& arch,
                       double load, std::uint64_t seed,
                       std::uint64_t measureCycles = 600) {
  ScenarioSpec spec;
  spec.set("pattern", pattern);
  spec.set("arch", arch);
  spec.params.offeredLoad = load;
  spec.params.seed = seed;
  spec.params.warmupCycles = 100;
  spec.params.measureCycles = measureCycles;
  return spec;
}

class TempFile {
 public:
  explicit TempFile(const std::string& contents, const std::string& suffix = ".json") {
    static int counter = 0;
    path_ = ::testing::TempDir() + "pnoc_dispatch_" + std::to_string(::getpid()) +
            "_" + std::to_string(counter++) + suffix;
    std::ofstream out(path_);
    out << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<ScenarioJob> mixedJobs() {
  std::vector<ScenarioJob> jobs;
  jobs.push_back({ScenarioJob::Op::kRun, quickSpec("uniform", "dhetpnoc", 0.001, 7)});
  jobs.push_back(
      {ScenarioJob::Op::kFindPeak, quickSpec("skewed3", "dhetpnoc", 0.001, 9)});
  jobs.push_back({ScenarioJob::Op::kRun, quickSpec("hotspot:frac=0.3,hot=5", "firefly", 0.0008, 11)});
  jobs.push_back(
      {ScenarioJob::Op::kFindPeak, quickSpec("uniform", "firefly", 0.001, 13)});
  return jobs;
}

void expectSameOutcomes(const std::vector<ScenarioOutcome>& actual,
                        const std::vector<ScenarioOutcome>& expected,
                        const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].op, expected[i].op) << context << " job=" << i;
    EXPECT_EQ(actual[i].spec.toJson(), expected[i].spec.toJson())
        << context << " job=" << i;
    EXPECT_EQ(wire::toJson(actual[i].metrics), wire::toJson(expected[i].metrics))
        << context << " job=" << i;
    EXPECT_EQ(wire::toJson(actual[i].search), wire::toJson(expected[i].search))
        << context << " job=" << i;
  }
}

// --- streaming handshake (wire) ---

TEST(StreamHandshake, HelloRoundTripsAndRejectsNonHellos) {
  int version = 0;
  EXPECT_TRUE(wire::parseStreamHello(wire::streamHelloLine(), version));
  EXPECT_EQ(version, wire::kStreamProtocolVersion);
  EXPECT_FALSE(wire::parseStreamHello("{\"op\":\"run\",\"index\":0,\"spec\":{}}",
                                      version));
  EXPECT_FALSE(wire::parseStreamHello("", version));
  EXPECT_FALSE(wire::parseStreamHello("not json at all", version));
}

TEST(StreamHandshake, AckValidatesVersion) {
  EXPECT_NO_THROW(wire::checkStreamAck(wire::streamAckLine()));
  EXPECT_THROW(wire::checkStreamAck("{\"pnoc_stream_ack\":999}"), std::runtime_error);
  EXPECT_THROW(wire::checkStreamAck("{\"index\":0,\"error\":\"x\"}"),
               std::runtime_error);
  EXPECT_THROW(wire::checkStreamAck("garbage"), std::runtime_error);
}

// --- hosts files ---

TEST(HostsFile, ParsesArraysStringsAndDefaults) {
  const auto hosts = dispatch::parseHostsFleetText(
      R"([{"launcher": ["ssh", "hostA"], "workers": 4,
           "executable": "/opt/pnoc/bin/pnoc_run"},
          {"launcher": "docker exec sim0", "workers": 2},
          {"workers": 3},
          {}])",
      "<test>").hosts;
  ASSERT_EQ(hosts.size(), 4u);
  EXPECT_EQ(hosts[0].launcher, (std::vector<std::string>{"ssh", "hostA"}));
  EXPECT_EQ(hosts[0].workers, 4u);
  EXPECT_EQ(hosts[0].executable, "/opt/pnoc/bin/pnoc_run");
  EXPECT_EQ(hosts[1].launcher, (std::vector<std::string>{"docker", "exec", "sim0"}));
  EXPECT_EQ(hosts[1].workers, 2u);
  EXPECT_TRUE(hosts[2].launcher.empty());
  EXPECT_EQ(hosts[3].workers, 1u);  // default
  EXPECT_EQ(dispatch::totalWorkers(hosts), 10u);
  EXPECT_EQ(dispatch::transportsFor(hosts).size(), 10u);
}

TEST(HostsFile, TransportsDescribeTheirLauncher) {
  // One transport class for every fleet entry: an empty launcher is a local
  // re-exec, anything else names its launcher.
  EXPECT_EQ(dispatch::WorkerTransport(HostEntry{}).describe(), "local worker");
  EXPECT_EQ(dispatch::WorkerTransport(HostEntry{.launcher = {"env"}}).describe(),
            "env worker");
  const auto transports = dispatch::transportsFor(
      {HostEntry{.workers = 1}, HostEntry{.launcher = {"ssh", "hostA"}, .workers = 2}});
  ASSERT_EQ(transports.size(), 3u);
  EXPECT_EQ(transports[0].describe(), "local worker");
  EXPECT_EQ(transports[2].describe(), "ssh hostA worker");
}

TEST(HostsFile, WrappedObjectFormParses) {
  const auto hosts = dispatch::parseHostsFleetText(
      R"({"hosts": [{"workers": 2}]})", "<test>").hosts;
  ASSERT_EQ(hosts.size(), 1u);
  EXPECT_EQ(hosts[0].workers, 2u);
}

TEST(HostsFile, RejectsTyposAndNonsense) {
  EXPECT_THROW(dispatch::parseHostsFleetText(R"([{"wrokers": 2}])", "<test>"),
               std::invalid_argument);
  EXPECT_THROW(dispatch::parseHostsFleetText(R"([{"workers": 0}])", "<test>"),
               std::invalid_argument);
  EXPECT_THROW(dispatch::parseHostsFleetText(R"([])", "<test>"),
               std::invalid_argument);
  EXPECT_THROW(dispatch::parseHostsFleetText(R"({"machines": []})", "<test>"),
               std::invalid_argument);
  EXPECT_THROW(dispatch::parseHostsFleetText("42", "<test>"), std::invalid_argument);
  EXPECT_THROW(dispatch::loadHostsFleet("/nonexistent/hosts.json"),
               std::invalid_argument);
  // The origin is named.
  try {
    dispatch::parseHostsFleetText("[]", "fleet-7.json");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("fleet-7.json"), std::string::npos);
  }
}

TEST(HostsFile, TyposGetSuggestions) {
  // Entry keys, policy keys, and top-level keys each suggest their nearest
  // neighbor — a hosts-file typo names its fix.
  const auto messageOf = [](const std::string& text) -> std::string {
    try {
      dispatch::parseHostsFleetText(text, "<test>");
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  };
  EXPECT_NE(messageOf(R"([{"wrokers": 2}])").find("did you mean 'workers'?"),
            std::string::npos);
  EXPECT_NE(messageOf(R"({"hosts": [{"workers": 1}], "policy": {"retrys": 2}})")
                .find("did you mean 'retries'?"),
            std::string::npos);
  EXPECT_NE(messageOf(R"({"host": [{"workers": 1}]})")
                .find("did you mean 'hosts'?"),
            std::string::npos);
}

// --- backend selection ---

TEST(StreamingBackend, ShardsIsAOneEntryFleetClampedToTheBatch) {
  // shards=3 becomes the fleet [{"workers":3}]; a batch smaller than the
  // fleet launches only as many workers as it has jobs.
  const auto backend = makeBackend(BackendOptions{.workers = 3});
  EXPECT_EQ(backend->workersFor(8), 3u);
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    specs.push_back(quickSpec("uniform", "firefly", 0.001, 200 + seed, 200));
  }
  EXPECT_EQ(backend->run(specs).size(), 5u);
  EXPECT_EQ(backend->lastWorkers().size(), 3u);
  specs.resize(2);
  EXPECT_EQ(backend->run(specs).size(), 2u);
  EXPECT_EQ(backend->lastWorkers().size(), 2u);
}

TEST(StreamingBackend, HostsFleetSizesWorkerCount) {
  ExecutionBackend backend({HostEntry{{}, 2, ""}, HostEntry{{"env"}, 3, ""}});
  EXPECT_EQ(backend.workersFor(100), 5u);  // the whole fleet
  EXPECT_EQ(backend.workersFor(2), 2u);    // clamped to the batch
}

TEST(StreamingBackend, EmptyBatchIsANoOp) {
  ExecutionBackend backend({HostEntry{.workers = 4}});
  EXPECT_TRUE(backend.run({}).empty());
  EXPECT_TRUE(backend.findPeaks({}).empty());
}

// --- the acceptance bar: byte-identity across worker counts ---

TEST(StreamingBackend, MixedBatchMatchesInProcessBitForBit) {
  const std::vector<ScenarioJob> jobs = mixedJobs();
  const auto expected = executeSerially(jobs);
  for (const unsigned shards : {1u, 2u, 3u}) {
    ExecutionBackend streaming({HostEntry{.workers = shards}});
    const auto actual = streaming.execute(jobs);
    expectSameOutcomes(actual, expected, "shards=" + std::to_string(shards));
  }
}

TEST(StreamingBackend, CommandTransportMatchesInProcess) {
  // `env` is a do-nothing launcher prefix: the worker command runs locally
  // but through the exact argv path an `ssh host` or `docker exec` fleet
  // would use.
  const std::vector<ScenarioJob> jobs = mixedJobs();
  const auto expected = executeSerially(jobs);
  ExecutionBackend streaming({HostEntry{{}, 1, ""}, HostEntry{{"env"}, 1, ""}});
  const auto actual = streaming.execute(jobs);
  expectSameOutcomes(actual, expected, "hosts fleet");
}

TEST(StreamingBackend, ObserverFiresPerCompletedJob) {
  const std::vector<ScenarioJob> jobs = mixedJobs();
  ExecutionBackend streaming({HostEntry{.workers = 2}});
  std::vector<bool> seen(jobs.size(), false);
  streaming.setOutcomeObserver([&](std::size_t index, const ScenarioOutcome& outcome) {
    ASSERT_LT(index, seen.size());
    EXPECT_FALSE(seen[index]) << "observer fired twice for job " << index;
    seen[index] = true;
    EXPECT_EQ(outcome.spec.toJson(), jobs[index].spec.toJson());
  });
  const auto outcomes = streaming.execute(jobs);
  ASSERT_EQ(outcomes.size(), jobs.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "observer never fired for job " << i;
  }
}

// --- uneven-cost grids (the reason the pool exists) ---

// A mixed grid where one spec costs ~50x the others must merge
// byte-identically across every shard count — completion order is wildly
// different in each configuration, the records must not be.
TEST(UnevenGrid, BenchRecordsByteIdenticalAcrossAllBackendsAndShards) {
  std::vector<ScenarioSpec> runSpecs;
  runSpecs.push_back(quickSpec("uniform", "dhetpnoc", 0.001, 40, 10000));  // heavy
  for (std::uint64_t s = 0; s < 5; ++s) {
    runSpecs.push_back(quickSpec("uniform", "firefly", 0.001, 41 + s, 300));
  }
  const std::vector<ScenarioSpec> peakSpecs = {
      quickSpec("skewed3", "dhetpnoc", 0.001, 50, 400)};

  const auto recordLines = [](const std::vector<ScenarioResult>& runs,
                              const std::vector<ScenarioPeak>& peaks) {
    JsonRecorder recorder("uneven_compare");
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
  ASSERT_FALSE(expected.empty());
  for (const unsigned shards : {1u, 2u, 3u}) {
    // What `shards=N` builds, and the same fleet as an explicit hosts entry.
    const auto local = makeBackend(BackendOptions{.workers = shards});
    EXPECT_EQ(recordLines(local->run(runSpecs), local->findPeaks(peakSpecs)), expected)
        << "shards=" << shards;
    ExecutionBackend stream({HostEntry{.workers = shards}});
    EXPECT_EQ(recordLines(stream.run(runSpecs), stream.findPeaks(peakSpecs)), expected)
        << "hosts [{\"workers\":" << shards << "}]";
  }
}

// Dynamic dealing: the worker stuck on the ~100x spec must NOT receive an
// equal share of the batch — its sibling drains the cheap jobs meanwhile.
// (Static round-robin would give each worker half.)
TEST(StreamingFleet, SlowWorkerGetsFewerJobs) {
  std::vector<ScenarioJob> jobs;
  jobs.push_back(
      {ScenarioJob::Op::kRun, quickSpec("uniform", "dhetpnoc", 0.001, 60, 40000)});
  for (std::uint64_t s = 0; s < 8; ++s) {
    jobs.push_back(
        {ScenarioJob::Op::kRun, quickSpec("uniform", "dhetpnoc", 0.001, 61 + s, 200)});
  }
  ExecutionBackend streaming({HostEntry{.workers = 2}});
  const auto outcomes = streaming.execute(jobs);
  ASSERT_EQ(outcomes.size(), jobs.size());
  const auto& perWorker = streaming.lastWorkers();
  ASSERT_EQ(perWorker.size(), 2u);
  const unsigned lo = std::min(perWorker[0].completed, perWorker[1].completed);
  const unsigned hi = std::max(perWorker[0].completed, perWorker[1].completed);
  EXPECT_EQ(lo + hi, jobs.size());
  EXPECT_LE(lo, 2u) << "the worker on the heavy spec should finish few jobs";
  EXPECT_GE(hi, 7u) << "its sibling should have drained the cheap jobs";
  EXPECT_EQ(streaming.lastStats().retries, 0u);
}

// --- worker-death handling (loud failure + retry-once) ---

TEST(StreamingFleet, DeadWorkersInFlightJobIsRetriedOnASurvivor) {
  // The crash fault kills whichever worker first receives job 2 — once: the
  // O_EXCL lock file lets the retry run to completion on the survivor.
  const std::string lock = ::testing::TempDir() + "pnoc_crash_once_" +
                           std::to_string(::getpid()) + ".lock";
  std::remove(lock.c_str());
  ScopedEnv crash("PNOC_TEST_FAULT", ("crash@2:once=" + lock).c_str());

  std::vector<ScenarioJob> jobs;
  for (std::uint64_t s = 0; s < 5; ++s) {
    jobs.push_back(
        {ScenarioJob::Op::kRun, quickSpec("uniform", "dhetpnoc", 0.001, 70 + s, 500)});
  }
  std::vector<ScenarioOutcome> expected;
  {
    ScopedEnv noCrash("PNOC_TEST_FAULT", nullptr);  // in-process reference
    expected = executeSerially(jobs);
  }

  ExecutionBackend streaming({HostEntry{.workers = 2}});
  const auto actual = streaming.execute(jobs);
  expectSameOutcomes(actual, expected, "retry-once");
  EXPECT_EQ(streaming.lastStats().retries, 1u);
  std::remove(lock.c_str());
}

TEST(StreamingFleet, IdleDeathIsToleratedWithAllResultsDelivered) {
  // The worker that handles job 0 replies and THEN dies (the exit fault) —
  // no job is lost, so the batch must complete on the survivors with every
  // outcome intact, not fail at teardown over the dead worker's exit status.
  ScopedEnv crash("PNOC_TEST_FAULT", "exit@0:code=57");
  std::vector<ScenarioJob> jobs;
  for (std::uint64_t s = 0; s < 5; ++s) {
    jobs.push_back(
        {ScenarioJob::Op::kRun, quickSpec("uniform", "dhetpnoc", 0.001, 75 + s, 500)});
  }
  const auto expected = executeSerially(jobs);
  ExecutionBackend streaming({HostEntry{.workers = 2}});
  const auto actual = streaming.execute(jobs);
  expectSameOutcomes(actual, expected, "idle death");
}

TEST(StreamingFleet, UnrecoverableDeathFailsLoudlyNamingTheJob) {
  // No lock file: EVERY worker handed job 1 dies, so the one retry is spent
  // and the dispatch must fail naming the job instead of merging the rest.
  ScopedEnv crash("PNOC_TEST_FAULT", "crash@1");
  std::vector<ScenarioJob> jobs;
  for (std::uint64_t s = 0; s < 4; ++s) {
    jobs.push_back(
        {ScenarioJob::Op::kRun, quickSpec("uniform", "dhetpnoc", 0.001, 80 + s, 400)});
  }
  ExecutionBackend streaming({HostEntry{.workers = 2}});
  try {
    streaming.execute(jobs);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("job 1"), std::string::npos) << what;
    EXPECT_NE(what.find("exited with status 57"), std::string::npos) << what;
  }
}

TEST(StreamingFleet, SilentWorkerFailsTheHandshakeInsteadOfHanging) {
  // `sleep` holds both pipes open and never writes — the observable
  // behavior of a worker that never answers the hello.  The host's 300 ms
  // handshake deadline must fail the dispatch, not hang it (teardown
  // SIGTERMs the sleeper).
  ExecutionBackend streaming({HostEntry{{"sh", "-c", "exec sleep 30"}, 1, "", 300}});
  std::vector<ScenarioJob> jobs;
  jobs.push_back({ScenarioJob::Op::kRun, quickSpec("uniform", "dhetpnoc", 0.001, 96)});
  try {
    streaming.execute(jobs);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("did not acknowledge"),
              std::string::npos)
        << error.what();
  }
}

/// Runs one job on a fleet of one silent worker and returns the failure.
std::string silentWorkerFailure(std::uint64_t hostBudgetMs, std::uint64_t policyBudgetMs) {
  dispatch::FaultPolicy policy;
  policy.connectTimeoutMs = policyBudgetMs;
  ExecutionBackend streaming({HostEntry{{"sh", "-c", "exec sleep 30"}, 1, "", hostBudgetMs}},
                             policy);
  std::vector<ScenarioJob> jobs;
  jobs.push_back({ScenarioJob::Op::kRun, quickSpec("uniform", "dhetpnoc", 0.001, 97)});
  try {
    streaming.execute(jobs);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "(dispatch succeeded)";
}

TEST(StreamingFleet, HostConnectBudgetOverridesThePolicy) {
  // The host entry's own budget wins over a policy budget that would hold
  // the test for a minute.
  const std::string what = silentWorkerFailure(250, 60000);
  EXPECT_NE(what.find("did not acknowledge"), std::string::npos) << what;
  EXPECT_NE(what.find("within 250 ms"), std::string::npos) << what;
}

TEST(StreamingFleet, HostWithoutABudgetUsesThePolicyConnectTimeout) {
  // connect_timeout_ms 0 on the host means "the fleet policy's budget".
  const std::string what = silentWorkerFailure(0, 250);
  EXPECT_NE(what.find("did not acknowledge"), std::string::npos) << what;
  EXPECT_NE(what.find("within 250 ms"), std::string::npos) << what;
}

TEST(StreamingFleet, AllWorkersDeadFailsInsteadOfHanging) {
  // A launcher that exits immediately gives EOF before any ack: no live
  // workers remain, and execute() must throw, not spin or hang.
  ExecutionBackend streaming({HostEntry{{"false"}, 2, ""}});
  std::vector<ScenarioJob> jobs;
  jobs.push_back({ScenarioJob::Op::kRun, quickSpec("uniform", "dhetpnoc", 0.001, 95)});
  EXPECT_THROW(streaming.execute(jobs), std::runtime_error);
}

TEST(StreamingBackend, JobFailureSurfacesAsException) {
  ScenarioSpec bad = quickSpec("uniform", "dhetpnoc", 0.001, 41);
  bad.params.pattern = "no-such-family";
  ExecutionBackend streaming({HostEntry{.workers = 1}});
  EXPECT_THROW(streaming.run({bad}), std::runtime_error);
}

// --- run-time unit failures on the path pnoc_run takes (makeBackend) ---

/// Four quick run jobs whose job 1 passes set() but cannot build on the
/// worker, so it fails at run time.
std::vector<ScenarioJob> jobsFailingAtOne() {
  std::vector<ScenarioJob> jobs;
  for (std::uint64_t s = 0; s < 4; ++s) {
    jobs.push_back(
        {ScenarioJob::Op::kRun, quickSpec("uniform", "firefly", 0.001, 120 + s, 300)});
  }
  jobs[1].spec.params.pattern = "no-such-family";
  return jobs;
}

TEST(DefaultFleet, RunTimeFailureAbortsAfterDeliveringTheCompletedJobs) {
  // Without fail_soft the failed unit aborts the batch by name.  The job
  // that finished before it reached the observer (so a driver can
  // checkpoint it); the jobs after it were never dealt.
  const auto backend = makeBackend(BackendOptions{.workers = 1});
  std::vector<std::size_t> delivered;
  backend->setOutcomeObserver(
      [&](std::size_t index, const ScenarioOutcome&) { delivered.push_back(index); });
  try {
    backend->execute(jobsFailingAtOne());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("job 1 failed"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(delivered, std::vector<std::size_t>{0});
  ASSERT_EQ(backend->lastWorkers().size(), 1u);
  EXPECT_EQ(backend->lastWorkers()[0].inFlight, 0u);
}

TEST(DefaultFleet, FailSoftDeliversTheFailureRecordAndFinishesTheGrid) {
  BackendOptions options;
  options.workers = 2;
  options.policy.failSoft = true;
  const auto backend = makeBackend(options);
  const std::vector<ScenarioJob> jobs = jobsFailingAtOne();
  std::vector<bool> delivered(jobs.size(), false);
  backend->setOutcomeObserver(
      [&](std::size_t index, const ScenarioOutcome&) { delivered[index] = true; });
  const std::vector<ScenarioOutcome> outcomes = backend->execute(jobs);
  ASSERT_EQ(outcomes.size(), jobs.size());
  EXPECT_EQ(delivered, std::vector<bool>(jobs.size(), true));
  EXPECT_TRUE(outcomes[1].failed);
  EXPECT_NE(outcomes[1].error.find("no-such-family"), std::string::npos)
      << outcomes[1].error;
  const std::string record = dispatch::serializedOutcomeRecord(outcomes[1], 1);
  EXPECT_NE(record.find("\"failed\":1"), std::string::npos) << record;
  for (const std::size_t i : {0u, 2u, 3u}) {
    EXPECT_FALSE(outcomes[i].failed) << "job " << i;
    EXPECT_EQ(wire::toJson(outcomes[i].metrics),
              wire::toJson(executeJob(jobs[i]).metrics))
        << "job " << i;
  }
}

// --- checkpointed resume ---

std::string taggedRecord(JsonRecorder& recorder, const ScenarioResult& result,
                         std::size_t gridIndex) {
  return recordRun(recorder, result.spec, result.metrics)
      .integer("grid_index", static_cast<long long>(gridIndex))
      .text("spec_key", dispatch::specKey(result.spec))
      .serialize();
}

TEST(Checkpoint, RoundTripsAndReportsMissingIndices) {
  const std::vector<ScenarioSpec> grid = {
      quickSpec("uniform", "dhetpnoc", 0.001, 100),
      quickSpec("uniform", "firefly", 0.001, 101),
      quickSpec("skewed3", "dhetpnoc", 0.002, 102),
  };
  const auto results = testsupport::runSerially(grid);

  // Checkpoint holding indices 0 and 2 (index 1 "lost to a kill").
  JsonRecorder recorder("ckpt");
  std::vector<std::string> raw = {taggedRecord(recorder, results[0], 0),
                                  taggedRecord(recorder, results[2], 2)};
  std::ostringstream file;
  file << "{\"bench\":\"ckpt\",\"records\":[\n  " << raw[0] << ",\n  " << raw[1]
       << "\n]}\n";

  const auto checkpoint =
      dispatch::parseBenchCheckpoint(file.str(), "run", grid, "<test>");
  EXPECT_EQ(checkpoint.presentCount(), 2u);
  EXPECT_EQ(checkpoint.missingIndices(), std::vector<std::size_t>{1});
  ASSERT_TRUE(checkpoint.rawByIndex[0]);
  EXPECT_EQ(*checkpoint.rawByIndex[0], raw[0]);  // byte-for-byte
  ASSERT_TRUE(checkpoint.rawByIndex[2]);
  EXPECT_EQ(*checkpoint.rawByIndex[2], raw[1]);

  // Records named differently (timing, peak-vs-run) are ignored.
  const auto wrongName =
      dispatch::parseBenchCheckpoint(file.str(), "peak", grid, "<test>");
  EXPECT_EQ(wrongName.presentCount(), 0u);
}

TEST(Checkpoint, MismatchedGridFailsLoudly) {
  const std::vector<ScenarioSpec> grid = {quickSpec("uniform", "dhetpnoc", 0.001, 1)};
  const auto errorOf = [&grid](const std::string& text) -> std::string {
    try {
      dispatch::parseBenchCheckpoint(text, "run", grid, "<test>");
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  };
  // Identity fields alone (arch, pattern, seed, load, bandwidth_set) no
  // longer identify a record: without a spec_key it is refused outright.
  const std::string file =
      "{\"bench\":\"x\",\"records\":[\n"
      "  {\"name\":\"run\",\"arch\":\"firefly\",\"pattern\":\"uniform\","
      "\"seed\":1,\"grid_index\":0}\n]}\n";
  EXPECT_NE(errorOf(file).find("carries no spec_key"), std::string::npos)
      << errorOf(file);

  // A spec_key (what pnoc_run actually stamps) pins the WHOLE spec, so a
  // record computed under ANY differing parameter — a changed measure
  // window, say, which no identity field would catch — is rejected.
  ScenarioSpec altered = grid[0];
  altered.params.measureCycles += 1;
  const std::string wrongKey =
      "{\"bench\":\"x\",\"records\":[\n"
      "  {\"name\":\"run\",\"spec_key\":\"" + dispatch::specKey(altered) +
      "\",\"grid_index\":0}\n]}\n";
  EXPECT_THROW(dispatch::parseBenchCheckpoint(wrongKey, "run", grid, "<test>"),
               std::invalid_argument);
  const std::string rightKey =
      "{\"bench\":\"x\",\"records\":[\n"
      "  {\"name\":\"run\",\"spec_key\":\"" + dispatch::specKey(grid[0]) +
      "\",\"grid_index\":0}\n]}\n";
  EXPECT_EQ(dispatch::parseBenchCheckpoint(rightKey, "run", grid, "<test>")
                .presentCount(),
            1u);

  // A wrong load or bandwidth set without a spec_key is refused for the
  // missing key, not matched field by field.
  const std::string wrongLoad =
      "{\"bench\":\"x\",\"records\":[\n"
      "  {\"name\":\"run\",\"arch\":\"dhetpnoc\",\"pattern\":\"uniform\","
      "\"seed\":1,\"load\":0.002,\"grid_index\":0}\n]}\n";
  EXPECT_NE(errorOf(wrongLoad).find("carries no spec_key"), std::string::npos)
      << errorOf(wrongLoad);

  const std::string wrongSet =
      "{\"bench\":\"x\",\"records\":[\n"
      "  {\"name\":\"run\",\"arch\":\"dhetpnoc\",\"pattern\":\"uniform\","
      "\"seed\":1,\"bandwidth_set\":3,\"grid_index\":0}\n]}\n";
  EXPECT_NE(errorOf(wrongSet).find("carries no spec_key"), std::string::npos)
      << errorOf(wrongSet);

  const std::string outOfRange =
      "{\"bench\":\"x\",\"records\":[\n"
      "  {\"name\":\"run\",\"grid_index\":7}\n]}\n";
  EXPECT_THROW(dispatch::parseBenchCheckpoint(outOfRange, "run", grid, "<test>"),
               std::invalid_argument);

  const std::string keyed =
      "{\"name\":\"run\",\"spec_key\":\"" + dispatch::specKey(grid[0]) +
      "\",\"grid_index\":0}";
  const std::string duplicate =
      "{\"bench\":\"x\",\"records\":[\n  " + keyed + ",\n  " + keyed + "\n]}\n";
  EXPECT_NE(errorOf(duplicate).find("duplicate record"), std::string::npos)
      << errorOf(duplicate);

  // Truncated by a kill mid-write: the one damage shape a crash legitimately
  // produces.  Tolerated as valid-but-missing (every intact record line is
  // still harvested; here there are none), NOT rejected — a daemon restart
  // must resume through such a file.
  const auto truncated = dispatch::parseBenchCheckpoint(
      "{\"bench\":\"x\",\"records\":[", "run", grid, "<test>");
  EXPECT_EQ(truncated.presentCount(), 0u);
}

TEST(Checkpoint, MissingFileIsAnEmptyCheckpoint) {
  const std::vector<ScenarioSpec> grid = {quickSpec("uniform", "dhetpnoc", 0.001, 1)};
  const auto checkpoint = dispatch::loadBenchCheckpoint("/nonexistent", "x", "run", grid);
  EXPECT_EQ(checkpoint.presentCount(), 0u);
  EXPECT_EQ(checkpoint.rawByIndex.size(), grid.size());
}

TEST(Checkpoint, WriterMatchesJsonRecorderFormat) {
  // The incremental checkpoint writer and JsonRecorder::write must agree
  // byte for byte — that equivalence is what makes a resumed file identical
  // to an uninterrupted run's.
  const std::vector<std::string> raw = {"{\"name\":\"run\",\"gbps\":1}",
                                        "{\"name\":\"run\",\"gbps\":2}"};
  const std::string dir = ::testing::TempDir();
  const std::string path = dispatch::writeBenchFile(dir, "writer_compare", raw);
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::ostringstream actual;
  actual << in.rdbuf();

  JsonRecorder recorder("writer_compare");
  for (const std::string& record : raw) recorder.addRaw(record);
  const std::string recorderPath = recorder.write(dir);
  std::ifstream in2(recorderPath);
  std::ostringstream expected;
  expected << in2.rdbuf();

  EXPECT_EQ(actual.str(), expected.str());
  std::remove(path.c_str());
}

TEST(Checkpoint, FlushIsThrottledAndWritesGridOrder) {
  const std::vector<ScenarioSpec> grid = {
      quickSpec("uniform", "dhetpnoc", 0.001, 110, 200),
      quickSpec("uniform", "firefly", 0.001, 111, 200),
      quickSpec("skewed3", "dhetpnoc", 0.002, 112, 200),
  };
  std::vector<ScenarioJob> jobs;
  for (const ScenarioSpec& spec : grid) jobs.push_back({ScenarioJob::Op::kRun, spec});
  std::vector<ScenarioOutcome> outcomes = executeSerially(jobs);
  outcomes[1].failed = true;  // a fail-soft failure record
  outcomes[1].error = "worker death: exited with status 57";

  const std::string dir = ::testing::TempDir() + "pnoc_throttle_" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  struct RemoveDir {
    std::string path;
    ~RemoveDir() { std::filesystem::remove_all(path); }
  } removeDir{dir};
  dispatch::BenchCheckpoint checkpoint(dir, "throttle", grid.size());
  EXPECT_FALSE(checkpoint.flushDueAtMs());  // nothing to write yet

  // The first record is due at once.
  checkpoint.record(2, outcomes[2]);
  EXPECT_EQ(checkpoint.flushDueAtMs(), std::optional<std::uint64_t>(0));
  EXPECT_TRUE(checkpoint.flushIfDue(5000));
  EXPECT_FALSE(checkpoint.flushDueAtMs());

  // A second record 10 ms later waits out the interval from the last write.
  checkpoint.record(0, outcomes[0]);
  const std::uint64_t due = 5000 + dispatch::BenchCheckpoint::kFlushIntervalMs;
  EXPECT_EQ(checkpoint.flushDueAtMs(), std::optional<std::uint64_t>(due));
  EXPECT_FALSE(checkpoint.flushIfDue(5010));
  EXPECT_FALSE(checkpoint.flushIfDue(due - 1));

  // flush() writes now: every present record in grid order, byte-equal to
  // writeBenchFile of the same records.
  checkpoint.record(1, outcomes[1]);
  const std::string path = checkpoint.flush(5020);
  ASSERT_EQ(path, checkpoint.path());
  EXPECT_EQ(checkpoint.flushDueAtMs(), std::nullopt);
  const std::string expectedDir = dir + "/expected";
  ::mkdir(expectedDir.c_str(), 0755);
  std::vector<std::string> records;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    records.push_back(dispatch::serializedOutcomeRecord(outcomes[i], i));
  }
  const auto readAll = [](const std::string& file) {
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  EXPECT_EQ(readAll(path),
            readAll(dispatch::writeBenchFile(expectedDir, "throttle", records)));

  // The failure record is on disk but comes back missing, so resume
  // re-dispatches it.
  const dispatch::BenchCheckpoint reloaded =
      dispatch::loadBenchCheckpoint(dir, "throttle", "run", grid);
  EXPECT_EQ(reloaded.missingIndices(), std::vector<std::size_t>{1});
  EXPECT_EQ(reloaded.rawByIndex[0], records[0]);
  EXPECT_EQ(reloaded.rawByIndex[2], records[2]);
  EXPECT_NE(readAll(path).find("\"failed\":1"), std::string::npos);
}

TEST(JsonRecord, RawRecordsSerializeVerbatimAndIgnoreFieldCalls) {
  JsonRecord raw = JsonRecord::fromSerialized("{\"name\":\"x\",\"v\":1}");
  raw.number("extra", 2.0).integer("more", 3).text("t", "s");
  EXPECT_EQ(raw.serialize(), "{\"name\":\"x\",\"v\":1}");
}

TEST(JsonRecord, EveryStringIsEscapedSoTheFileParsesBack) {
  // A label with a tab once reached BENCH files as a raw control byte, and
  // the bench name was written unescaped; both must survive a JSON parser.
  const std::string benchName = "quote\"d";
  const std::string label = "a\tb\r\x01\\c\n";
  JsonRecorder recorder(benchName);
  const std::string record =
      recorder.add("run").text("label", label).integer("grid_index", 0).serialize();
  for (const char c : record) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << record;
  }

  const std::string dir = ::testing::TempDir();
  const std::string path = recorder.write(dir);
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  for (const char c : text.str()) {
    if (c != '\n') EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << text.str();
  }
  const JsonValue root = JsonValue::parse(text.str());
  EXPECT_EQ(root.at("bench").asString(), benchName);
  ASSERT_EQ(root.at("records").items().size(), 1u);
  EXPECT_EQ(root.at("records").items()[0].at("label").asString(), label);
  std::remove(path.c_str());

  // Ordinary strings serialize exactly as before.
  JsonRecord plain("run");
  plain.text("label", "plain label");
  EXPECT_EQ(plain.serialize(), "{\"name\":\"run\",\"label\":\"plain label\"}");
}

}  // namespace
}  // namespace pnoc::scenario
