// Scenario batch tests: batch results must be independent of worker count
// and identical to direct PhotonicNetwork runs, and the reused-network
// saturation search must equal a fresh-network-per-probe search bit for bit
// (that equivalence is what makes the reset() fast path safe to ship).
#include "scenario/scenario_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "network/network.hpp"
#include "scenario/cli.hpp"

namespace pnoc::scenario {
namespace {

ScenarioSpec quickSpec(const std::string& pattern, const std::string& arch,
                       double load, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.set("pattern", pattern);
  spec.set("arch", arch);
  spec.params.offeredLoad = load;
  spec.params.seed = seed;
  spec.params.warmupCycles = 100;
  spec.params.measureCycles = 1000;
  return spec;
}

void expectSameMetrics(const metrics::RunMetrics& a, const metrics::RunMetrics& b) {
  EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
  EXPECT_EQ(a.bitsDelivered, b.bitsDelivered);
  EXPECT_EQ(a.latencyCyclesSum, b.latencyCyclesSum);
  EXPECT_EQ(a.packetsOffered, b.packetsOffered);
  EXPECT_EQ(a.reservationFailures, b.reservationFailures);
  EXPECT_EQ(a.ledger.total(), b.ledger.total());
}

TEST(ScenarioRunner, BatchRunMatchesDirectRuns) {
  const std::vector<ScenarioSpec> specs = {
      quickSpec("uniform", "firefly", 0.0008, 3),
      quickSpec("skewed3", "dhetpnoc", 0.002, 5),
      quickSpec("hotspot:frac=0.3,hot=5", "dhetpnoc", 0.001, 7),
  };
  const auto batch = makeBackend(BackendOptions{.workers = 2})->run(specs);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    network::PhotonicNetwork net(specs[i].params);
    expectSameMetrics(batch[i].metrics, net.run());
    EXPECT_GT(batch[i].metrics.packetsDelivered, 0u);
  }
}

TEST(ScenarioRunner, ThreadCountCannotChangeResults) {
  const std::vector<ScenarioSpec> specs = {
      quickSpec("skewed2", "dhetpnoc", 0.001, 1),
      quickSpec("skewed2", "dhetpnoc", 0.001, 2),
      quickSpec("real-apps", "firefly", 0.001, 3),
      quickSpec("skewed:level=1", "dhetpnoc", 0.001, 4),
  };
  const auto sequential = makeBackend(BackendOptions{.workers = 1})->run(specs);
  const auto parallel = makeBackend(BackendOptions{.workers = 4})->run(specs);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expectSameMetrics(sequential[i].metrics, parallel[i].metrics);
  }
}

TEST(ScenarioRunner, ReusedNetworkPeakSearchMatchesFreshNetworks) {
  // findScenarioPeak probes many loads over ONE network via reset(); the result
  // must be identical to rebuilding a network per probe (the old, slow way).
  ScenarioSpec spec = quickSpec("skewed3", "dhetpnoc", 0.001, 7);
  spec.params.warmupCycles = 200;
  spec.params.measureCycles = 1500;

  const auto reused = findScenarioPeak(spec);

  const auto options = peakOptionsFor(spec);
  const auto fresh = metrics::findPeak(
      [&](double load) {
        auto params = spec.params;
        params.offeredLoad = load;
        network::PhotonicNetwork net(params);
        return net.run();
      },
      options);

  EXPECT_DOUBLE_EQ(reused.peak.offeredLoad, fresh.peak.offeredLoad);
  expectSameMetrics(reused.peak.metrics, fresh.peak.metrics);
  ASSERT_EQ(reused.sweep.size(), fresh.sweep.size());
  for (std::size_t i = 0; i < reused.sweep.size(); ++i) {
    EXPECT_DOUBLE_EQ(reused.sweep[i].offeredLoad, fresh.sweep[i].offeredLoad);
    expectSameMetrics(reused.sweep[i].metrics, fresh.sweep[i].metrics);
  }
  EXPECT_GT(reused.peak.metrics.packetsDelivered, 0u);
}

TEST(ScenarioRunner, PeakOptionsScaleWithBandwidthSet) {
  ScenarioSpec spec;
  EXPECT_DOUBLE_EQ(peakOptionsFor(spec).startLoad, 0.0002);
  spec.set("set", "3");
  EXPECT_DOUBLE_EQ(peakOptionsFor(spec).startLoad, 0.0008);
}

TEST(ScenarioRunner, FacadeSelectsBackendFromOptions) {
  // The path every scenario binary takes: runner keys -> Cli ->
  // backendOptions() -> makeBackend().
  const auto backendFor = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "test_binary");
    ScenarioSpec spec;
    Cli cli("test_binary", "backend selection");
    cli.setRunnerKeys(true);
    EXPECT_EQ(cli.parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
                        &spec),
              CliStatus::kRun);
    return makeBackend(cli.backendOptions());
  };

  EXPECT_EQ(backendFor({"shards=3"})->workersFor(100), 3u);
  EXPECT_EQ(backendFor({"shards=3"})->workersFor(2), 2u);  // clamped to the batch

  // No runner key: one local worker per hardware thread.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(backendFor({})->workersFor(1000), std::min(hardware, 1000u));
}

TEST(ScenarioRecords, RecordsCarryScenarioIdentity) {
  JsonRecorder recorder("test");
  ScenarioSpec spec = quickSpec("uniform", "dhetpnoc", 0.001, 9);
  spec.label = "point-a";
  metrics::RunMetrics metrics;
  metrics.measuredCycles = 10;
  metrics.measuredSeconds = 10 / 2.5e9;
  const std::string line = recordRun(recorder, spec, metrics).serialize();
  EXPECT_NE(line.find("\"label\":\"point-a\""), std::string::npos);
  EXPECT_NE(line.find("\"arch\":\"dhetpnoc\""), std::string::npos);
  EXPECT_NE(line.find("\"pattern\":\"uniform\""), std::string::npos);
  EXPECT_NE(line.find("\"bandwidth_set\":1"), std::string::npos);
  EXPECT_NE(line.find("\"seed\":9"), std::string::npos);
}

}  // namespace
}  // namespace pnoc::scenario
