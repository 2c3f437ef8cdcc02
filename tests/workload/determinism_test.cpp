// Closed-loop determinism: the workload subsystem must uphold the same
// guarantees as the open-loop engine work before it —
//  1. gated and ungated engines produce bit-identical metrics (the one-cycle
//     ejection deferral is exactly what buys this),
//  2. reset()+run() replays a fresh network exactly,
//  3. every execution backend (threads | stream), at any shard
//     count, produces byte-identical wire serializations.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "network/network.hpp"
#include "scenario/execution_backend.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/wire.hpp"
#include "support/param_name.hpp"
#include "support/serial_reference.hpp"

namespace pnoc::workload {
namespace {

network::SimulationParameters workloadParams(const std::string& workload,
                                             const char* pattern,
                                             std::uint64_t seed, bool gating) {
  network::SimulationParameters params;
  params.workload = workload;
  params.pattern = pattern;
  params.seed = seed;
  params.warmupCycles = 200;
  params.measureCycles = 1500;
  params.activityGating = gating;
  return params;
}

std::string runToWire(const network::SimulationParameters& params) {
  network::PhotonicNetwork net(params);
  return scenario::wire::toJson(net.run());
}

using WorkloadCase = std::tuple<const char*, const char*>;

class WorkloadDeterminism : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(WorkloadDeterminism, GatedAndUngatedEnginesAreBitIdentical) {
  const auto& [workload, pattern] = GetParam();
  for (const std::uint64_t seed : {1ull, 42ull}) {
    const std::string gated = runToWire(workloadParams(workload, pattern, seed, true));
    const std::string ungated =
        runToWire(workloadParams(workload, pattern, seed, false));
    EXPECT_EQ(gated, ungated) << workload << " seed " << seed;
  }
}

TEST_P(WorkloadDeterminism, SameSeedSameWireAcrossRuns) {
  const auto& [workload, pattern] = GetParam();
  const auto params = workloadParams(workload, pattern, 9, true);
  EXPECT_EQ(runToWire(params), runToWire(params));
}

TEST_P(WorkloadDeterminism, ResetReuseReplaysAFreshNetwork) {
  const auto& [workload, pattern] = GetParam();
  const auto params = workloadParams(workload, pattern, 9, true);
  const std::string fresh = runToWire(params);
  network::PhotonicNetwork reused(params);
  reused.run();  // dirty every deque, credit list and flow counter
  reused.reset();
  ASSERT_EQ(reused.occupancy(), 0u)
      << "reset() must drain every buffer before the replay run";
  EXPECT_EQ(scenario::wire::toJson(reused.run()), fresh);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadDeterminism,
    ::testing::Values(
        // think=0 stresses back-to-back reissue; think>0 exercises the timer
        // path (cores park through the think window); chain adds the
        // directory hop and its destination draws from responder streams;
        // real-apps adds responder-only memory clusters.
        WorkloadCase{"closed:window=1", "uniform"},
        WorkloadCase{"closed:window=4,think=25", "skewed3"},
        WorkloadCase{"chain:window=2,think=5", "uniform"},
        WorkloadCase{"closed:window=2", "real-apps"}),
    testsupport::TupleName());

// Backend equivalence: the same closed-loop batch through the worker fleet
// at several shard counts and through the serial executeJob loop, compared
// through the full wire serialization (which now carries the
// request-latency histogram and flow counters).
TEST(WorkloadBackends, AllBackendsAllShardCountsMatchBitForBit) {
  auto makeSpec = [](const std::string& workload, const char* pattern,
                     std::uint64_t seed) {
    scenario::ScenarioSpec spec;
    spec.set("workload", workload);
    spec.set("pattern", pattern);
    spec.params.seed = seed;
    spec.params.warmupCycles = 100;
    spec.params.measureCycles = 800;
    return spec;
  };
  const std::vector<scenario::ScenarioSpec> specs = {
      makeSpec("closed:window=2", "uniform", 3),
      makeSpec("chain:window=2,think=10", "skewed3", 5),
      makeSpec("closed:window=4,think=5", "real-apps", 7),
  };

  const auto expected = testsupport::runSerially(specs);
  ASSERT_EQ(expected.size(), specs.size());
  for (const auto& result : expected) {
    ASSERT_GT(result.metrics.requestsCompleted, 0u);
  }

  for (const unsigned shards : {1u, 2u, 3u}) {
    const auto backend = scenario::makeBackend(scenario::BackendOptions{.workers = shards});
    const auto actual = backend->run(specs);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(scenario::wire::toJson(actual[i].metrics),
                scenario::wire::toJson(expected[i].metrics))
          << "shards=" << shards << " spec=" << i;
    }
  }
}

}  // namespace
}  // namespace pnoc::workload
