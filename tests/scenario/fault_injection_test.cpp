// Fault-injection matrix for the dispatch layer's fault-tolerance paths.
//
// PNOC_TEST_FAULT (support/fault_injection.hpp) scripts a worker to
// misbehave deterministically on a chosen job; every test then asserts one
// of the two acceptable outcomes — the batch completes BYTE-IDENTICAL to an
// in-process run (the fault was absorbed by retry/respawn/deadline
// machinery), or it degrades into deterministic per-job failure records
// (fail_soft) / a loud exception naming the worker and job.  Silent
// corruption — a wrong number in a merged result — is never acceptable and
// is what expectSameOutcomes guards.
//
// Workers are re-execs of THIS binary (tests/main.cpp handles
// --pnoc-worker), so the injected faults run through the real worker loop
// and the real recovery paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/dispatch/fault_policy.hpp"
#include "scenario/dispatch/hosts_file.hpp"
#include "scenario/execution_backend.hpp"
#include "scenario/wire.hpp"
#include "support/fault_injection.hpp"
#include "support/scoped_env.hpp"
#include "support/serial_reference.hpp"

namespace pnoc::scenario {
namespace {

using dispatch::FaultPolicy;
using dispatch::HostEntry;
using testsupport::ScopedEnv;

ScenarioSpec quickSpec(const std::string& pattern, const std::string& arch,
                       double load, std::uint64_t seed,
                       std::uint64_t measureCycles = 400) {
  ScenarioSpec spec;
  spec.set("pattern", pattern);
  spec.set("arch", arch);
  spec.params.offeredLoad = load;
  spec.params.seed = seed;
  spec.params.warmupCycles = 100;
  spec.params.measureCycles = measureCycles;
  return spec;
}

std::vector<ScenarioJob> smallBatch(std::uint64_t seedBase, std::size_t count = 5) {
  std::vector<ScenarioJob> jobs;
  for (std::uint64_t s = 0; s < count; ++s) {
    jobs.push_back({ScenarioJob::Op::kRun,
                    quickSpec("uniform", "dhetpnoc", 0.001, seedBase + s)});
  }
  return jobs;
}

/// A fresh once-lock path for this test (removed on destruction).
class OnceLock {
 public:
  OnceLock() {
    static int counter = 0;
    path_ = ::testing::TempDir() + "pnoc_fault_once_" + std::to_string(::getpid()) +
            "_" + std::to_string(counter++) + ".lock";
    std::remove(path_.c_str());
  }
  ~OnceLock() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void expectSameOutcomes(const std::vector<ScenarioOutcome>& actual,
                        const std::vector<ScenarioOutcome>& expected,
                        const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_FALSE(actual[i].failed) << context << " job=" << i;
    EXPECT_EQ(actual[i].op, expected[i].op) << context << " job=" << i;
    EXPECT_EQ(actual[i].spec.toJson(), expected[i].spec.toJson())
        << context << " job=" << i;
    EXPECT_EQ(wire::toJson(actual[i].metrics), wire::toJson(expected[i].metrics))
        << context << " job=" << i;
    EXPECT_EQ(wire::toJson(actual[i].search), wire::toJson(expected[i].search))
        << context << " job=" << i;
  }
}

/// Fast-retry policy: the matrix wants the recovery PATH, not the pacing.
FaultPolicy quickPolicy() {
  FaultPolicy policy;
  policy.backoffBaseMs = 0;
  policy.graceMs = 1500;
  return policy;
}

// --- spec parser ---

TEST(FaultSpec, ParsesKindsIndicesAndOptions) {
  const auto faults = testfault::parseFaultSpec(
      "crash@2:once=/tmp/x.lock:code=9,hang@*:ignoreterm=1,slow@3:ms=50");
  ASSERT_EQ(faults.size(), 3u);
  EXPECT_EQ(faults[0].kind, testfault::Kind::kCrash);
  EXPECT_FALSE(faults[0].anyIndex);
  EXPECT_EQ(faults[0].index, 2u);
  EXPECT_EQ(faults[0].oncePath, "/tmp/x.lock");
  EXPECT_EQ(faults[0].exitCode, 9);
  EXPECT_EQ(faults[1].kind, testfault::Kind::kHang);
  EXPECT_TRUE(faults[1].anyIndex);
  EXPECT_TRUE(faults[1].ignoreTerm);
  EXPECT_EQ(faults[2].kind, testfault::Kind::kSlow);
  EXPECT_EQ(faults[2].ms, 50u);
}

TEST(FaultSpec, RejectsMalformedClauses) {
  EXPECT_THROW(testfault::parseFaultSpec(""), std::invalid_argument);
  EXPECT_THROW(testfault::parseFaultSpec("explode@1"), std::invalid_argument);
  EXPECT_THROW(testfault::parseFaultSpec("crash"), std::invalid_argument);
  EXPECT_THROW(testfault::parseFaultSpec("crash@x"), std::invalid_argument);
  EXPECT_THROW(testfault::parseFaultSpec("crash@1:nope=2"), std::invalid_argument);
  EXPECT_THROW(testfault::parseFaultSpec("slow@1:ms=abc"), std::invalid_argument);
  EXPECT_THROW(testfault::parseFaultSpec("crash@1:once="), std::invalid_argument);
}

// --- fault policy knobs ---

TEST(FaultPolicyKnobs, SetPolicyFieldValidatesDomains) {
  FaultPolicy policy;
  dispatch::setPolicyField(policy, "retries", 3);
  dispatch::setPolicyField(policy, "fail_soft", 1);
  dispatch::setPolicyField(policy, "job_deadline_ms", 1234);
  EXPECT_EQ(policy.retries, 3u);
  EXPECT_TRUE(policy.failSoft);
  EXPECT_EQ(policy.jobDeadlineMs, 1234u);
  EXPECT_THROW(dispatch::setPolicyField(policy, "fail_soft", 2),
               std::invalid_argument);
  EXPECT_THROW(dispatch::setPolicyField(policy, "connect_timeout_ms", 0),
               std::invalid_argument);
  EXPECT_THROW(dispatch::setPolicyField(policy, "no_such_knob", 1),
               std::invalid_argument);
  for (const std::string& key : dispatch::policyKeys()) {
    EXPECT_TRUE(dispatch::isPolicyKey(key)) << key;
  }
  EXPECT_FALSE(dispatch::isPolicyKey("retry"));
}

TEST(FaultPolicyKnobs, BackoffDoublesAndCaps) {
  FaultPolicy policy;
  policy.backoffBaseMs = 100;
  policy.backoffCapMs = 500;
  EXPECT_EQ(dispatch::backoffMsForAttempt(policy, 1), 100u);
  EXPECT_EQ(dispatch::backoffMsForAttempt(policy, 2), 200u);
  EXPECT_EQ(dispatch::backoffMsForAttempt(policy, 3), 400u);
  EXPECT_EQ(dispatch::backoffMsForAttempt(policy, 4), 500u);
  EXPECT_EQ(dispatch::backoffMsForAttempt(policy, 10), 500u);
  policy.backoffBaseMs = 0;
  EXPECT_EQ(dispatch::backoffMsForAttempt(policy, 3), 0u);
}

TEST(HostsFleet, PolicyObjectAndPerHostTimeoutParse) {
  const auto fleet = dispatch::parseHostsFleetText(
      R"({"hosts": [{"workers": 2, "connect_timeout_ms": 700}],
          "policy": {"retries": 4, "job_deadline_ms": 9000, "fail_soft": true}})",
      "inline");
  ASSERT_EQ(fleet.hosts.size(), 1u);
  EXPECT_EQ(fleet.hosts[0].workers, 2u);
  EXPECT_EQ(fleet.hosts[0].connectTimeoutMs, 700u);
  EXPECT_EQ(fleet.policy.retries, 4u);
  EXPECT_EQ(fleet.policy.jobDeadlineMs, 9000u);
  EXPECT_TRUE(fleet.policy.failSoft);
}

TEST(HostsFleet, RejectsUnknownPolicyKeysAndZeroTimeouts) {
  EXPECT_THROW(dispatch::parseHostsFleetText(
                   R"({"hosts": [{}], "policy": {"retrys": 1}})", "inline"),
               std::invalid_argument);
  EXPECT_THROW(dispatch::parseHostsFleetText(
                   R"([{"connect_timeout_ms": 0}])", "inline"),
               std::invalid_argument);
  EXPECT_THROW(dispatch::parseHostsFleetText(R"({"policy": {}})", "inline"),
               std::invalid_argument)
      << "object form without hosts must not parse";
}

// --- the injection matrix: absorbed faults are byte-identical ---

TEST(FaultMatrix, CrashOnceIsRetriedByteIdentical) {
  OnceLock lock;
  ScopedEnv fault("PNOC_TEST_FAULT", ("crash@2:once=" + lock.path()).c_str());
  const auto jobs = smallBatch(300);
  const auto expected = testsupport::executeSerially(jobs);
  ExecutionBackend streaming({HostEntry{.workers = 2}}, quickPolicy());
  const auto actual = streaming.execute(jobs);
  expectSameOutcomes(actual, expected, "crash-once");
  EXPECT_EQ(streaming.lastStats().retries, 1u);
  EXPECT_GE(streaming.lastStats().respawns, 1u)
      << "the crashed slot should have been respawned";
}

TEST(FaultMatrix, GarbageReplyIsAProtocolDeathThenRetried) {
  OnceLock lock;
  ScopedEnv fault("PNOC_TEST_FAULT", ("garbage@1:once=" + lock.path()).c_str());
  const auto jobs = smallBatch(310);
  const auto expected = testsupport::executeSerially(jobs);
  ExecutionBackend streaming({HostEntry{.workers = 2}}, quickPolicy());
  const auto actual = streaming.execute(jobs);
  expectSameOutcomes(actual, expected, "garbage-reply");
  EXPECT_EQ(streaming.lastStats().protocolDeaths, 1u);
  EXPECT_EQ(streaming.lastStats().retries, 1u);
}

TEST(FaultMatrix, TruncatedReplyAtEofIsAProtocolDeathThenRetried) {
  OnceLock lock;
  ScopedEnv fault("PNOC_TEST_FAULT", ("truncate@1:once=" + lock.path()).c_str());
  const auto jobs = smallBatch(320);
  const auto expected = testsupport::executeSerially(jobs);
  ExecutionBackend streaming({HostEntry{.workers = 2}}, quickPolicy());
  const auto actual = streaming.execute(jobs);
  expectSameOutcomes(actual, expected, "truncated-reply");
  EXPECT_EQ(streaming.lastStats().protocolDeaths, 1u);
}

TEST(FaultMatrix, DuplicateReplyIsAProtocolDeath) {
  OnceLock lock;
  ScopedEnv fault("PNOC_TEST_FAULT", ("dup@1:once=" + lock.path()).c_str());
  const auto jobs = smallBatch(330);
  const auto expected = testsupport::executeSerially(jobs);
  ExecutionBackend streaming({HostEntry{.workers = 2}}, quickPolicy());
  const auto actual = streaming.execute(jobs);
  expectSameOutcomes(actual, expected, "duplicate-reply");
  EXPECT_GE(streaming.lastStats().protocolDeaths, 1u)
      << "the duplicating worker must be killed, not trusted";
}

TEST(FaultMatrix, WrongIndexReplyIsAProtocolDeathThenRetried) {
  OnceLock lock;
  ScopedEnv fault("PNOC_TEST_FAULT", ("wrongindex@1:once=" + lock.path()).c_str());
  const auto jobs = smallBatch(340);
  const auto expected = testsupport::executeSerially(jobs);
  ExecutionBackend streaming({HostEntry{.workers = 2}}, quickPolicy());
  const auto actual = streaming.execute(jobs);
  expectSameOutcomes(actual, expected, "wrong-index-reply");
  EXPECT_EQ(streaming.lastStats().protocolDeaths, 1u);
  EXPECT_EQ(streaming.lastStats().retries, 1u);
}

TEST(FaultMatrix, SlowReplyIsJustSlow) {
  ScopedEnv fault("PNOC_TEST_FAULT", "slow@*:ms=30");
  const auto jobs = smallBatch(350, 3);
  const auto expected = testsupport::executeSerially(jobs);
  ExecutionBackend streaming({HostEntry{.workers = 2}}, quickPolicy());
  const auto actual = streaming.execute(jobs);
  expectSameOutcomes(actual, expected, "slow-reply");
  EXPECT_EQ(streaming.lastStats().retries, 0u);
  EXPECT_EQ(streaming.lastStats().protocolDeaths, 0u);
}

// --- per-job deadlines ---

TEST(FaultMatrix, HungWorkerIsKilledAtTheJobDeadlineAndTheJobRetried) {
  OnceLock lock;
  ScopedEnv fault("PNOC_TEST_FAULT", ("hang@2:once=" + lock.path()).c_str());
  const auto jobs = smallBatch(360);
  const auto expected = testsupport::executeSerially(jobs);
  FaultPolicy policy = quickPolicy();
  policy.jobDeadlineMs = 1000;  // far above a real job, far below the hang
  policy.graceMs = 300;
  ExecutionBackend streaming({HostEntry{.workers = 2}}, policy);
  const auto start = std::chrono::steady_clock::now();
  const auto actual = streaming.execute(jobs);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  expectSameOutcomes(actual, expected, "hang-deadline");
  EXPECT_EQ(streaming.lastStats().deadlineKills, 1u);
  EXPECT_EQ(streaming.lastStats().retries, 1u);
  // The hang is unbounded; only the deadline machinery can have ended it.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            10000);
}

TEST(FaultMatrix, SigtermIgnoringHangIsEscalatedToSigkill) {
  OnceLock lock;
  ScopedEnv fault("PNOC_TEST_FAULT",
                  ("hang@1:ignoreterm=1:once=" + lock.path()).c_str());
  const auto jobs = smallBatch(370);
  const auto expected = testsupport::executeSerially(jobs);
  FaultPolicy policy = quickPolicy();
  policy.jobDeadlineMs = 1000;
  policy.graceMs = 200;  // short grace: the SIGKILL escalation must fire
  ExecutionBackend streaming({HostEntry{.workers = 2}}, policy);
  const auto actual = streaming.execute(jobs);
  expectSameOutcomes(actual, expected, "sigterm-ignoring hang");
  EXPECT_EQ(streaming.lastStats().deadlineKills, 1u);
}

// --- loud failure and graceful degradation ---

TEST(FaultMatrix, NonzeroWorkerExitAfterCompleteBatchFailsLoudly) {
  // One worker, exit fault on the LAST job: every result arrives, then the
  // worker exits 41 — protocol corruption that must fail the batch even
  // though no result is missing.
  ScopedEnv fault("PNOC_TEST_FAULT", "exit@2:code=41");
  const auto jobs = smallBatch(380, 3);
  ExecutionBackend streaming({HostEntry{.workers = 1}}, quickPolicy());
  try {
    streaming.execute(jobs);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("exited with status 41"),
              std::string::npos)
        << error.what();
  }
}

TEST(FaultMatrix, ExhaustedRetriesFailSoftIntoAFailureRecord) {
  // crash@1 with NO once-lock: every dispatch of job 1 kills its worker.
  // Under fail_soft the grid must complete around it, with job 1 delivered
  // as a deterministic failure outcome (and through the observer, which is
  // how pnoc_run checkpoints it).
  ScopedEnv fault("PNOC_TEST_FAULT", "crash@1");
  const auto jobs = smallBatch(390);
  const auto expected = testsupport::executeSerially(jobs);
  FaultPolicy policy = quickPolicy();
  policy.failSoft = true;
  ExecutionBackend streaming({HostEntry{.workers = 2}}, policy);
  std::vector<std::size_t> observed;
  bool observerSawFailure = false;
  streaming.setOutcomeObserver(
      [&](std::size_t index, const ScenarioOutcome& outcome) {
        observed.push_back(index);
        if (outcome.failed) observerSawFailure = true;
      });
  const auto actual = streaming.execute(jobs);
  ASSERT_EQ(actual.size(), jobs.size());
  EXPECT_TRUE(actual[1].failed);
  EXPECT_NE(actual[1].error.find("retry budget"), std::string::npos)
      << actual[1].error;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (i == 1) continue;
    EXPECT_FALSE(actual[i].failed) << i;
    EXPECT_EQ(wire::toJson(actual[i].metrics), wire::toJson(expected[i].metrics))
        << "job " << i << " must be untouched by job 1's failure";
  }
  EXPECT_EQ(streaming.lastStats().failedUnits, 1u);
  EXPECT_EQ(observed.size(), jobs.size());
  EXPECT_TRUE(observerSawFailure);
}

/// Runs four jobs under fail_soft on `fleet`, whose PNOC_TEST_FAULT hits
/// job 1 on every attempt: job 1 must fail alone, by its retry budget, and
/// every other outcome must be byte-identical to the serial loop.
void expectOnlyJobOneFails(ExecutionBackend& fleet, std::uint64_t seedBase) {
  const auto jobs = smallBatch(seedBase, 4);
  const auto expected = testsupport::executeSerially(jobs);
  const auto actual = fleet.execute(jobs);
  ASSERT_EQ(actual.size(), jobs.size());
  EXPECT_TRUE(actual[1].failed);
  EXPECT_NE(actual[1].error.find("retry budget"), std::string::npos)
      << actual[1].error;
  for (const std::size_t i : {0u, 2u, 3u}) {
    EXPECT_FALSE(actual[i].failed) << i << ": " << actual[i].error;
    EXPECT_EQ(actual[i].op, expected[i].op) << i;
    EXPECT_EQ(actual[i].spec.toJson(), expected[i].spec.toJson()) << i;
    EXPECT_EQ(wire::toJson(actual[i].metrics), wire::toJson(expected[i].metrics)) << i;
    EXPECT_EQ(wire::toJson(actual[i].search), wire::toJson(expected[i].search)) << i;
  }
  EXPECT_EQ(fleet.lastStats().failedUnits, 1u);
}

FaultPolicy failSoftPolicy() {
  FaultPolicy policy = quickPolicy();
  policy.failSoft = true;
  return policy;
}

TEST(FaultMatrix, PoisonUnitOnAOneWorkerFleetFailsOnlyItself) {
  // Job 1 kills its worker on every attempt.  Its first death spends the
  // one slot's respawns=1; its second exhausts retries=1 and fails the
  // unit, and that death must not cost the slot its worker: the respawned
  // worker runs jobs 2 and 3 as if nothing had happened.
  ScopedEnv fault("PNOC_TEST_FAULT", "crash@1");
  ExecutionBackend fleet({HostEntry{.workers = 1}}, failSoftPolicy());
  expectOnlyJobOneFails(fleet, 395);
  EXPECT_EQ(fleet.lastStats().respawns, 2u);
  ASSERT_EQ(fleet.lastWorkers().size(), 1u);
  EXPECT_EQ(fleet.lastWorkers()[0].respawns, 1u) << "only the retried death is charged";
}

TEST(FaultMatrix, PoisonReplyOnAOneWorkerFleetFailsOnlyItself) {
  // The same rule for a protocol death: garbage on every attempt of job 1.
  ScopedEnv fault("PNOC_TEST_FAULT", "garbage@1");
  ExecutionBackend fleet({HostEntry{.workers = 1}}, failSoftPolicy());
  expectOnlyJobOneFails(fleet, 396);
  EXPECT_EQ(fleet.lastStats().protocolDeaths, 2u);
}

TEST(FaultMatrix, PoisonHangOnAOneWorkerFleetFailsOnlyItself) {
  // And for a deadline kill: job 1 hangs on every attempt.
  ScopedEnv fault("PNOC_TEST_FAULT", "hang@1");
  FaultPolicy policy = failSoftPolicy();
  policy.jobDeadlineMs = 1000;  // far above a real job, far below the hang
  policy.graceMs = 300;
  ExecutionBackend fleet({HostEntry{.workers = 1}}, policy);
  expectOnlyJobOneFails(fleet, 397);
  EXPECT_EQ(fleet.lastStats().deadlineKills, 2u);
}

TEST(FaultMatrix, PoisonUnitWithoutFailSoftFailsLoudlyByItsBudget) {
  // Without fail_soft the first failed unit aborts the batch, and the error
  // blames job 1's retry budget, not a collapsed fleet.
  ScopedEnv fault("PNOC_TEST_FAULT", "crash@1");
  ExecutionBackend fleet({HostEntry{.workers = 1}}, quickPolicy());
  try {
    fleet.execute(smallBatch(398, 4));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("job 1"), std::string::npos) << what;
    EXPECT_NE(what.find("retry budget"), std::string::npos) << what;
    EXPECT_EQ(what.find("no live workers"), std::string::npos) << what;
  }
}

TEST(FaultMatrix, RespawnsZeroLetsAPoisonUnitEmptyTheFleet) {
  // respawns=0 never relaunches, not even after a unit's own failure: the
  // one worker dies on job 1 and every unit not yet done fails with it.
  ScopedEnv fault("PNOC_TEST_FAULT", "crash@1");
  FaultPolicy policy = failSoftPolicy();
  policy.respawns = 0;
  ExecutionBackend fleet({HostEntry{.workers = 1}}, policy);
  const auto actual = fleet.execute(smallBatch(399, 4));
  ASSERT_EQ(actual.size(), 4u);
  EXPECT_FALSE(actual[0].failed) << actual[0].error;
  for (const std::size_t i : {1u, 2u, 3u}) {
    EXPECT_TRUE(actual[i].failed) << i;
    EXPECT_NE(actual[i].error.find("no live workers"), std::string::npos)
        << i << ": " << actual[i].error;
  }
  EXPECT_EQ(fleet.lastStats().respawns, 0u);
}

TEST(FaultMatrix, FailSoftFleetCollapseRecordsEveryJobAsFailed) {
  FaultPolicy policy = quickPolicy();
  policy.failSoft = true;
  ExecutionBackend streaming(std::vector<HostEntry>{HostEntry{{"false"}, 2, ""}},
                             policy);
  const auto jobs = smallBatch(400, 3);
  const auto outcomes = streaming.execute(jobs);
  ASSERT_EQ(outcomes.size(), jobs.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].failed) << i;
    EXPECT_NE(outcomes[i].error.find("no live workers"), std::string::npos)
        << outcomes[i].error;
  }
  EXPECT_EQ(streaming.lastStats().failedUnits, jobs.size());
}

TEST(FaultMatrix, LaunchFailureDegradesOntoTheSurvivingHost) {
  // One host that can never connect next to one good local host: the fleet
  // must report the failure by name and complete the whole batch on the
  // survivor, byte-identical.
  const auto jobs = smallBatch(410);
  const auto expected = testsupport::executeSerially(jobs);
  ExecutionBackend streaming(
      std::vector<HostEntry>{HostEntry{{"false"}, 1, ""}, HostEntry{{}, 1, ""}},
      quickPolicy());
  const auto actual = streaming.execute(jobs);
  expectSameOutcomes(actual, expected, "launch failure");
  EXPECT_EQ(streaming.lastStats().launchFailures, 1u);
}

// --- slow connects ---

/// A hosts-file entry whose worker acks only after `sleepSeconds`: the
/// launcher sleeps, then execs the real worker command — the stand-in for
/// a slow-connecting ssh host.  launch() itself returns at once.
HostEntry slowHost(const std::string& sleepSeconds,
                   std::uint64_t connectTimeoutMs = 0) {
  HostEntry host;
  host.launcher = {"sh", "-c", "sleep " + sleepSeconds + "; exec \"$0\" \"$@\""};
  host.connectTimeoutMs = connectTimeoutMs;
  return host;
}

TEST(ConcurrentLaunch, BatchStartsInMaxNotSumOfFourSlowConnects) {
  // Every job takes >= 300 ms, so each of the four workers takes exactly
  // one — the batch can only finish near 0.4 + 0.3 s if the four 0.4 s
  // connects overlapped (serial connects alone would take 1.6 s).
  ScopedEnv fault("PNOC_TEST_FAULT", "slow@*:ms=300");
  const auto jobs = smallBatch(430, 4);
  const auto expected = testsupport::executeSerially(jobs);
  ExecutionBackend streaming(std::vector<HostEntry>(4, slowHost("0.4")),
                             quickPolicy());
  const auto start = std::chrono::steady_clock::now();
  const auto actual = streaming.execute(jobs);
  const auto elapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  expectSameOutcomes(actual, expected, "four slow connects");
  ASSERT_EQ(streaming.lastWorkers().size(), 4u);
  for (const auto& worker : streaming.lastWorkers()) {
    EXPECT_EQ(worker.completed, 1u) << worker.description;
  }
  // The generous bound keeps the assertion meaningful on a loaded CI box.
  EXPECT_LT(elapsedMs, 1400) << "fleet connects must overlap, not serialize";
}

TEST(ConcurrentLaunch, TimedOutHostIsDroppedAndTheBatchCompletesElsewhere) {
  // The glacial host would ack after 3 s but has a 200 ms budget of its
  // own; the local host runs the whole batch, which outlasts that budget
  // (>= 3 x 150 ms), so the timeout verdict is reached mid-batch.
  ScopedEnv fault("PNOC_TEST_FAULT", "slow@*:ms=150");
  const auto jobs = smallBatch(420, 3);
  const auto expected = testsupport::executeSerially(jobs);
  ExecutionBackend streaming(std::vector<HostEntry>{slowHost("3", 200), HostEntry{}},
                             quickPolicy());
  const auto start = std::chrono::steady_clock::now();
  const auto actual = streaming.execute(jobs);
  const auto elapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  expectSameOutcomes(actual, expected, "timed-out host");
  EXPECT_EQ(streaming.lastStats().launchFailures, 1u);
  EXPECT_LT(elapsedMs, 2500) << "the glacial host must not gate the batch";
}

}  // namespace
}  // namespace pnoc::scenario
