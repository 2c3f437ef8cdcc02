// ServeDaemon integration tests: an in-process daemon on a real Unix-domain
// socket, real re-exec'd workers (this test binary handles --pnoc-worker),
// real clients.
//
// The acceptance bar is the subsystem's: BENCH files produced through the
// daemon — across concurrent clients, worker faults, pipelining, and a full
// daemon stop/restart — are byte-identical to what in-process execution of
// the same grid records.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scenario/dispatch/checkpoint.hpp"
#include "scenario/execution_backend.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/scoped_env.hpp"

namespace pnoc::service {
namespace {

using testsupport::ScopedEnv;

/// A one-entry fleet: `workers` local workers running `executable` ("" =
/// this test binary).
std::vector<scenario::dispatch::HostEntry> fleetOf(unsigned workers,
                                                   const std::string& executable = "") {
  return {scenario::dispatch::HostEntry{.workers = workers, .executable = executable}};
}

std::string readAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

scenario::ScenarioSpec quickSpec(const std::string& pattern, double load,
                                 std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.set("pattern", pattern);
  spec.set("arch", "firefly");
  spec.params.offeredLoad = load;
  spec.params.seed = seed;
  spec.params.warmupCycles = 100;
  spec.params.measureCycles = 400;
  return spec;
}

std::vector<scenario::ScenarioSpec> quickGrid(std::size_t units,
                                              std::uint64_t seedBase) {
  std::vector<scenario::ScenarioSpec> grid;
  for (std::size_t u = 0; u < units; ++u) {
    grid.push_back(quickSpec(u % 2 == 0 ? "uniform" : "skewed3",
                             0.001 + 0.001 * static_cast<double>(u % 3),
                             seedBase + u));
  }
  return grid;
}

/// What an uninterrupted in-process run of `grid` records, written as a
/// BENCH file — the byte-identity reference for every daemon test.
std::string expectedBenchText(const std::vector<scenario::ScenarioSpec>& grid,
                              const std::string& dir, const std::string& bench) {
  std::vector<std::string> records;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const scenario::ScenarioOutcome outcome =
        scenario::executeJob({scenario::ScenarioJob::Op::kRun, grid[i]});
    records.push_back(scenario::dispatch::serializedOutcomeRecord(outcome, i));
  }
  const std::string path =
      scenario::dispatch::writeBenchFile(dir, bench, records);
  EXPECT_FALSE(path.empty());
  return readAll(path);
}

std::string submitLine(const std::vector<scenario::ScenarioSpec>& grid,
                       const std::string& dir, const std::string& bench,
                       const std::string& client = "", int priority = 0) {
  std::string line = "{\"op\":\"submit\"";
  if (!client.empty()) line += ",\"client\":\"" + client + "\"";
  line += ",\"priority\":" + std::to_string(priority);
  line += ",\"bench\":\"" + bench + "\",\"dir\":\"" + dir + "\",\"specs\":[";
  for (std::size_t s = 0; s < grid.size(); ++s) {
    if (s != 0) line += ",";
    line += grid[s].toJson();
  }
  line += "]}";
  return line;
}

/// Watches `job` to its terminal event; returns the terminal state.
std::string watchToTerminal(ServeClient& client, std::uint64_t job) {
  client.sendLine("{\"op\":\"watch\",\"job\":" + std::to_string(job) + "}");
  while (true) {
    const scenario::JsonValue event =
        scenario::JsonValue::parse(client.readLine());
    if (const scenario::JsonValue* ok = event.find("ok");
        ok != nullptr && ok->asU64() == 0) {
      return "error: " + event.at("error").asString();
    }
    if (event.at("event").asString() == "job") {
      return event.at("state").asString();
    }
  }
}

/// An in-process daemon on its own temp directory + background run() thread.
class DaemonHarness {
 public:
  DaemonHarness() {
    static int counter = 0;
    dir_ = ::testing::TempDir() + "pnoc_serve_" + std::to_string(::getpid()) +
           "_" + std::to_string(counter++);
    ::mkdir(dir_.c_str(), 0755);
    options.socketPath = dir_ + "/sock";
    options.journalPath = dir_ + "/journal";
    options.hosts = fleetOf(1);
    options.policy.connectTimeoutMs = 10000;
  }
  ~DaemonHarness() {
    stop();
    std::filesystem::remove_all(dir_);
  }

  const std::string& dir() const { return dir_; }

  void start() {
    daemon = std::make_unique<ServeDaemon>(options);
    daemon->start();
    thread_ = std::thread([this] { exitCode = daemon->run(); });
  }

  void stop() {
    if (!thread_.joinable()) return;
    daemon->requestStop();
    thread_.join();
    daemon.reset();
  }

  ServeOptions options;
  std::unique_ptr<ServeDaemon> daemon;
  int exitCode = -1;

 private:
  std::string dir_;
  std::thread thread_;
};

TEST(ServeDaemon, SubmitWatchProducesOneShotIdenticalBytes) {
  DaemonHarness harness;
  harness.options.hosts = fleetOf(2);
  harness.start();

  const std::vector<scenario::ScenarioSpec> grid = quickGrid(3, 100);
  ServeClient client(harness.options.socketPath);
  const scenario::JsonValue ack =
      client.request(submitLine(grid, harness.dir(), "solo"));
  EXPECT_EQ(ack.at("units").asU64(), 3u);
  const std::uint64_t job = ack.at("job").asU64();
  EXPECT_EQ(watchToTerminal(client, job), "done");

  const std::string served = readAll(harness.dir() + "/BENCH_solo.json");
  const std::string expectedDir = harness.dir() + "/expected";
  ::mkdir(expectedDir.c_str(), 0755);
  EXPECT_EQ(served, expectedBenchText(grid, expectedDir, "solo"));
  harness.stop();
  EXPECT_EQ(harness.exitCode, 0);
}

TEST(ServeDaemon, TwoConcurrentClientsShareTheFleetByteIdentically) {
  DaemonHarness harness;
  harness.options.hosts = fleetOf(2);
  harness.start();

  const std::vector<scenario::ScenarioSpec> gridA = quickGrid(4, 200);
  const std::vector<scenario::ScenarioSpec> gridB = quickGrid(3, 300);
  std::string stateA, stateB;
  std::thread clientA([&] {
    ServeClient client(harness.options.socketPath);
    const scenario::JsonValue ack =
        client.request(submitLine(gridA, harness.dir(), "alice", "alice", 1));
    stateA = watchToTerminal(client, ack.at("job").asU64());
  });
  std::thread clientB([&] {
    ServeClient client(harness.options.socketPath);
    const scenario::JsonValue ack =
        client.request(submitLine(gridB, harness.dir(), "bob", "bob", 0));
    stateB = watchToTerminal(client, ack.at("job").asU64());
  });
  clientA.join();
  clientB.join();
  EXPECT_EQ(stateA, "done");
  EXPECT_EQ(stateB, "done");

  // Both jobs interleaved across ONE shared fleet; each output is still
  // byte-identical to its own uninterrupted one-shot run.
  const std::string expectedDir = harness.dir() + "/expected";
  ::mkdir(expectedDir.c_str(), 0755);
  EXPECT_EQ(readAll(harness.dir() + "/BENCH_alice.json"),
            expectedBenchText(gridA, expectedDir, "alice"));
  EXPECT_EQ(readAll(harness.dir() + "/BENCH_bob.json"),
            expectedBenchText(gridB, expectedDir, "bob"));
}

TEST(ServeDaemon, RestartResumesJournaledJobsByteIdentically) {
  DaemonHarness harness;
  const std::vector<scenario::ScenarioSpec> grid = quickGrid(3, 400);
  std::uint64_t job = 0;
  {
    // Daemon A's only worker cannot launch, so the accepted job stays
    // queued; stopping the daemon leaves it in the fsync'd journal.
    harness.options.hosts = fleetOf(1, "/nonexistent/pnoc-worker");
    harness.options.policy.respawns = 0;
    harness.start();
    ServeClient client(harness.options.socketPath);
    const scenario::JsonValue ack =
        client.request(submitLine(grid, harness.dir(), "resumed"));
    job = ack.at("job").asU64();
    harness.stop();
    EXPECT_EQ(harness.exitCode, 0);
  }
  // Daemon B: same journal, a working fleet.  The job resumes under its
  // original id and completes with one-shot-identical bytes.
  harness.options.hosts = fleetOf(1);
  harness.start();
  ServeClient client(harness.options.socketPath);
  EXPECT_EQ(watchToTerminal(client, job), "done");
  const std::string expectedDir = harness.dir() + "/expected";
  ::mkdir(expectedDir.c_str(), 0755);
  EXPECT_EQ(readAll(harness.dir() + "/BENCH_resumed.json"),
            expectedBenchText(grid, expectedDir, "resumed"));
}

TEST(ServeDaemon, RestartReusesCheckpointedUnitsWithoutRecomputing) {
  DaemonHarness harness;
  const std::vector<scenario::ScenarioSpec> grid = quickGrid(3, 500);
  std::uint64_t job = 0;
  {
    harness.options.hosts = fleetOf(1, "/nonexistent/pnoc-worker");
    harness.options.policy.respawns = 0;
    harness.start();
    ServeClient client(harness.options.socketPath);
    job = client.request(submitLine(grid, harness.dir(), "partial"))
              .at("job")
              .asU64();
    harness.stop();
  }
  // Simulate progress made before the "crash": unit 1's record is already
  // in the job's BENCH checkpoint.
  const scenario::ScenarioOutcome one =
      scenario::executeJob({scenario::ScenarioJob::Op::kRun, grid[1]});
  scenario::dispatch::writeBenchFile(
      harness.dir(), "partial",
      {scenario::dispatch::serializedOutcomeRecord(one, 1)});

  harness.options.hosts = fleetOf(1);  // daemon B gets a working fleet
  harness.start();
  ServeClient client(harness.options.socketPath);
  EXPECT_EQ(watchToTerminal(client, job), "done");

  // Only the two missing units were dispatched; the checkpointed one rode
  // through verbatim.
  client.sendLine("{\"op\":\"status\"}");
  const scenario::JsonValue status = scenario::JsonValue::parse(client.readLine());
  std::uint64_t completed = 0;
  for (const scenario::JsonValue& worker : status.at("workers").items()) {
    completed += worker.at("completed").asU64();
  }
  EXPECT_EQ(completed, 2u);

  const std::string expectedDir = harness.dir() + "/expected";
  ::mkdir(expectedDir.c_str(), 0755);
  EXPECT_EQ(readAll(harness.dir() + "/BENCH_partial.json"),
            expectedBenchText(grid, expectedDir, "partial"));
}

TEST(ServeDaemon, CancelDrainAndDrainingRejectsSubmits) {
  DaemonHarness harness;
  // A fleet that never becomes ready: units stay queued, cancellation and
  // drain semantics are deterministic.
  harness.options.hosts = fleetOf(1, "/nonexistent/pnoc-worker");
  harness.options.policy.respawns = 0;
  harness.start();

  ServeClient client(harness.options.socketPath);
  const std::uint64_t job =
      client.request(submitLine(quickGrid(2, 600), harness.dir(), "doomed"))
          .at("job")
          .asU64();
  const scenario::JsonValue canceled =
      client.request("{\"op\":\"cancel\",\"job\":" + std::to_string(job) + "}");
  EXPECT_EQ(canceled.at("canceled").asU64(), 1u);
  // Canceling a terminal job is an error, not a second cancel.
  EXPECT_THROW(
      client.request("{\"op\":\"cancel\",\"job\":" + std::to_string(job) + "}"),
      std::runtime_error);
  // A watch on the canceled job reports the terminal state immediately.
  EXPECT_EQ(watchToTerminal(client, job), "canceled");

  // Queue is empty now, so drain answers; submits are refused from then on.
  EXPECT_EQ(client.request("{\"op\":\"drain\"}").at("drained").asU64(), 1u);
  try {
    client.request(submitLine(quickGrid(1, 601), harness.dir(), "late"));
    FAIL() << "submit while draining must be rejected";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("draining"), std::string::npos);
  }
}

TEST(ServeDaemon, PipelineKeepsMultipleUnitsInFlightPerWorker) {
  // Slow every worker reply by 40 ms: with pipeline depth 2 the dealer keeps
  // a second unit queued on the worker while the first executes.
  ScopedEnv fault("PNOC_TEST_FAULT", "slow@*:ms=40");
  DaemonHarness harness;
  harness.options.hosts = fleetOf(1);
  harness.options.policy.pipeline = 2;
  harness.start();

  const std::vector<scenario::ScenarioSpec> grid = quickGrid(4, 700);
  ServeClient client(harness.options.socketPath);
  const std::uint64_t job =
      client.request(submitLine(grid, harness.dir(), "piped")).at("job").asU64();
  EXPECT_EQ(watchToTerminal(client, job), "done");

  // The status endpoint's high-water counters prove >1 unit rode one worker
  // at once — and the bytes still match a sequential one-shot run.
  client.sendLine("{\"op\":\"status\"}");
  const scenario::JsonValue status = scenario::JsonValue::parse(client.readLine());
  EXPECT_GE(status.at("stats").at("max_in_flight").asU64(), 2u);
  EXPECT_EQ(status.at("queue_depth").asU64(), 0u);
  const std::string expectedDir = harness.dir() + "/expected";
  ::mkdir(expectedDir.c_str(), 0755);
  EXPECT_EQ(readAll(harness.dir() + "/BENCH_piped.json"),
            expectedBenchText(grid, expectedDir, "piped"));
}

TEST(ServeDaemon, WorkerCrashHealsAndBytesStayIdentical) {
  // The worker crashes on its 2nd job once; the fleet respawns the slot and
  // retries the unit — the client never notices, the bytes never change.
  const std::string lock = ::testing::TempDir() + "pnoc_serve_crash_" +
                           std::to_string(::getpid()) + ".lock";
  std::remove(lock.c_str());
  ScopedEnv fault("PNOC_TEST_FAULT", ("crash@2:once=" + lock).c_str());
  DaemonHarness harness;
  harness.options.hosts = fleetOf(1);
  harness.options.policy.retries = 1;
  harness.options.policy.respawns = 1;
  harness.options.policy.backoffBaseMs = 1;
  harness.start();

  const std::vector<scenario::ScenarioSpec> grid = quickGrid(3, 800);
  ServeClient client(harness.options.socketPath);
  const std::uint64_t job =
      client.request(submitLine(grid, harness.dir(), "crashy")).at("job").asU64();
  EXPECT_EQ(watchToTerminal(client, job), "done");

  client.sendLine("{\"op\":\"status\"}");
  const scenario::JsonValue status = scenario::JsonValue::parse(client.readLine());
  EXPECT_GE(status.at("stats").at("respawns").asU64(), 1u);
  EXPECT_GE(status.at("stats").at("retries").asU64(), 1u);

  const std::string expectedDir = harness.dir() + "/expected";
  ::mkdir(expectedDir.c_str(), 0755);
  EXPECT_EQ(readAll(harness.dir() + "/BENCH_crashy.json"),
            expectedBenchText(grid, expectedDir, "crashy"));
  std::remove(lock.c_str());
}

TEST(ServeDaemon, PoisonUnitOnAOneWorkerFleetSparesLaterJobs) {
  // crash@1 kills every attempt of wire index 1, so the first job's unit 1
  // fails.  The death that fails it must not spend the one slot's respawn:
  // a worker is left for the second job, which completes byte-identically.
  ScopedEnv fault("PNOC_TEST_FAULT", "crash@1");
  DaemonHarness harness;
  harness.options.hosts = fleetOf(1);
  harness.options.policy.backoffBaseMs = 0;
  harness.start();

  ServeClient client(harness.options.socketPath);
  const std::uint64_t poisoned =
      client.request(submitLine(quickGrid(2, 1100), harness.dir(), "poisoned"))
          .at("job")
          .asU64();
  EXPECT_EQ(watchToTerminal(client, poisoned), "failed");
  const std::vector<scenario::ScenarioSpec> grid = quickGrid(2, 1200);
  const std::uint64_t spared =
      client.request(submitLine(grid, harness.dir(), "spared")).at("job").asU64();
  EXPECT_EQ(watchToTerminal(client, spared), "done");

  const std::string expectedDir = harness.dir() + "/expected";
  ::mkdir(expectedDir.c_str(), 0755);
  EXPECT_EQ(readAll(harness.dir() + "/BENCH_spared.json"),
            expectedBenchText(grid, expectedDir, "spared"));
}

TEST(ServeDaemon, FailureRecordsMatchTheStreamingBackendByteForByte) {
  // crash@1 without a once-lock kills every attempt of wire index 1.  Both
  // drivers deal a fresh grid in index order and a unit keeps its wire
  // index across retries, so unit 1 exhausts its retry budget in both —
  // and both write the same failure record next to the three good ones.
  ScopedEnv fault("PNOC_TEST_FAULT", "crash@1");
  const std::vector<scenario::ScenarioSpec> grid = quickGrid(4, 1000);
  scenario::dispatch::FaultPolicy policy;
  policy.failSoft = true;
  policy.backoffBaseMs = 0;

  DaemonHarness harness;
  harness.options.hosts = fleetOf(2);
  harness.options.policy.failSoft = policy.failSoft;
  harness.options.policy.backoffBaseMs = policy.backoffBaseMs;

  std::vector<scenario::ScenarioJob> jobs;
  for (const scenario::ScenarioSpec& spec : grid) {
    jobs.push_back({scenario::ScenarioJob::Op::kRun, spec});
  }
  scenario::ExecutionBackend backend(fleetOf(2), policy);
  const std::vector<scenario::ScenarioOutcome> outcomes = backend.execute(jobs);
  ASSERT_EQ(outcomes.size(), grid.size());
  EXPECT_TRUE(outcomes[1].failed);
  std::vector<std::string> records;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    records.push_back(scenario::dispatch::serializedOutcomeRecord(outcomes[i], i));
  }
  const std::string expectedDir = harness.dir() + "/expected";
  ::mkdir(expectedDir.c_str(), 0755);
  const std::string expected =
      readAll(scenario::dispatch::writeBenchFile(expectedDir, "parity", records));
  EXPECT_NE(expected.find("worker death: exited with status 57 (retry budget of 1"
                          " exhausted)"),
            std::string::npos)
      << expected;

  harness.start();
  ServeClient client(harness.options.socketPath);
  const std::uint64_t job =
      client.request(submitLine(grid, harness.dir(), "parity")).at("job").asU64();
  EXPECT_EQ(watchToTerminal(client, job), "failed");
  EXPECT_EQ(readAll(harness.dir() + "/BENCH_parity.json"), expected);
}

TEST(ServeDaemon, FleetAddRescuesAFleetThatNeverLaunched) {
  DaemonHarness harness;
  harness.options.hosts = fleetOf(1, "/nonexistent/pnoc-worker");
  harness.options.policy.respawns = 0;
  harness.start();

  const std::vector<scenario::ScenarioSpec> grid = quickGrid(2, 900);
  ServeClient client(harness.options.socketPath);
  const std::uint64_t job =
      client.request(submitLine(grid, harness.dir(), "rescued")).at("job").asU64();

  // Elasticity: a working worker joins at runtime (executable "" = this
  // binary) and the stranded job completes.
  const scenario::JsonValue added = client.request(
      "{\"op\":\"fleet-add\",\"workers\":1,\"executable\":\"\"}");
  EXPECT_GE(added.at("workers").asU64(), 1u);
  EXPECT_EQ(watchToTerminal(client, job), "done");

  // And leaves at runtime: removing the dead slot 0 shrinks the fleet.
  const scenario::JsonValue removed =
      client.request("{\"op\":\"fleet-remove\",\"worker\":0}");
  EXPECT_EQ(removed.at("worker").asU64(), 0u);
  EXPECT_THROW(client.request("{\"op\":\"fleet-remove\",\"worker\":0}"),
               std::runtime_error);
  EXPECT_THROW(client.request("{\"op\":\"fleet-remove\",\"worker\":99}"),
               std::runtime_error);
}

TEST(ServeDaemon, FleetAddDefaultsToTheDaemonExecutable) {
  // executable= is the fleet-add default: a request naming none launches
  // the daemon's worker binary, here one that cannot exec.
  DaemonHarness harness;
  harness.options.workerExecutable = "/nonexistent/pnoc-worker";
  harness.options.policy.respawns = 0;
  harness.start();
  ServeClient client(harness.options.socketPath);
  client.request("{\"op\":\"fleet-add\",\"workers\":1}");

  std::string states;
  for (int attempt = 0; attempt < 500 && states != "ready,dead,"; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    client.sendLine("{\"op\":\"status\"}");
    const scenario::JsonValue status = scenario::JsonValue::parse(client.readLine());
    states.clear();
    for (const scenario::JsonValue& worker : status.at("workers").items()) {
      states += worker.at("state").asString() + ",";
    }
  }
  EXPECT_EQ(states, "ready,dead,");
}

TEST(ServeDaemon, MetricsVerbExposesTheSameCellsStatusSummarizes) {
  DaemonHarness harness;
  harness.start();
  ServeClient client(harness.options.socketPath);

  const std::vector<scenario::ScenarioSpec> grid = quickGrid(2, 900);
  const scenario::JsonValue ack =
      client.request(submitLine(grid, harness.dir(), "obs"));
  const std::uint64_t job = ack.at("job").asU64();
  EXPECT_EQ(watchToTerminal(client, job), "done");

  const scenario::JsonValue status = client.request("{\"op\":\"status\"}");
  EXPECT_GT(status.at("events_total").asU64(), 0u);
  EXPECT_GE(status.at("journal").at("appends").asU64(), 2u);
  ASSERT_NE(status.find("uptime_s"), nullptr);
  ASSERT_NE(status.at("journal").find("fsync_p50_us"), nullptr);

  // The metrics verb dumps the same registry cells the status summary reads.
  const scenario::JsonValue reply = client.request("{\"op\":\"metrics\"}");
  const scenario::JsonValue& metrics = reply.at("metrics");
  const scenario::JsonValue& counters = metrics.at("counters");
  EXPECT_EQ(counters.at("fleet_units_completed_total").asU64(), grid.size());
  EXPECT_EQ(counters.at("fleet_retries_total").asU64(),
            status.at("stats").at("retries").asU64());
  EXPECT_EQ(counters.at("journal_appends_total").asU64(),
            status.at("journal").at("appends").asU64());
  EXPECT_GT(metrics.at("histograms").at("journal_fsync_us").at("count").asU64(),
            0u);
  EXPECT_GE(metrics.at("gauges").at("serve_workers_live").asU64(), 1u);

  // Prometheus text exposition rides the same snapshot.
  const scenario::JsonValue text =
      client.request("{\"op\":\"metrics\",\"format\":\"text\"}");
  const std::string body = text.at("body").asString();
  EXPECT_NE(body.find("# TYPE pnoc_fleet_units_completed_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("pnoc_fleet_units_completed_total " +
                      std::to_string(grid.size())),
            std::string::npos);
  EXPECT_NE(body.find("pnoc_journal_fsync_us_count"), std::string::npos);

  EXPECT_THROW(client.request("{\"op\":\"metrics\",\"format\":\"xml\"}"),
               std::runtime_error);
}

TEST(ServeDaemon, ProtocolErrorsAreNamedAndSuggested) {
  DaemonHarness harness;
  harness.start();
  ServeClient client(harness.options.socketPath);

  // A typo'd op gets a did-you-mean, not a hang or a silent drop.
  try {
    client.request("{\"op\":\"sumbit\"}");
    FAIL() << "unknown op must be rejected";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("submit"), std::string::npos);
  }
  EXPECT_THROW(client.request("this is not json"), std::runtime_error);
  EXPECT_THROW(client.request("{\"op\":\"watch\",\"job\":42}"),
               std::runtime_error);
  // Submit validation: empty specs, bad mode, duplicate output path.
  EXPECT_THROW(client.request("{\"op\":\"submit\",\"specs\":[]}"),
               std::runtime_error);
  const std::vector<scenario::ScenarioSpec> grid = quickGrid(1, 950);
  EXPECT_THROW(
      client.request(
          "{\"op\":\"submit\",\"mode\":\"sideways\",\"specs\":[" +
          grid[0].toJson() + "]}"),
      std::runtime_error);
  // A line nested 100,000 deep draws an error reply; the daemon keeps serving.
  EXPECT_THROW(client.request(std::string(100000, '[') + std::string(100000, ']')),
               std::runtime_error);
  EXPECT_NO_THROW(client.request("{\"op\":\"status\"}"));
}

TEST(ServeDaemon, SubmitOfASpecThatCannotBuildIsRefusedUnjournaled) {
  DaemonHarness harness;
  harness.start();
  ServeClient client(harness.options.socketPath);

  std::vector<scenario::ScenarioSpec> grid = quickGrid(2, 970);
  grid[1].set("pattern", "bogus");  // set() stores it; validate() refuses it
  client.sendLine(submitLine(grid, harness.dir(), "bogus"));
  const scenario::JsonValue reply = scenario::JsonValue::parse(client.readLine());
  EXPECT_EQ(reply.at("ok").asU64(), 0u);
  EXPECT_EQ(reply.at("error").asString(),
            "bad spec: unknown traffic pattern: 'bogus'");
  EXPECT_NO_THROW(client.request("{\"op\":\"status\"}"));
  // Nothing was accepted, so nothing reached the journal.
  EXPECT_EQ(readAll(harness.options.journalPath).find("\"event\":\"submit\""),
            std::string::npos);
}

}  // namespace
}  // namespace pnoc::service
