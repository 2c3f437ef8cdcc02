// Property tests over the full system: flit conservation, seed robustness of
// the headline comparison, and stability of the allocation safety invariant
// under live traffic.  Parameterized across patterns, architectures, loads
// and bandwidth sets.
#include <gtest/gtest.h>

#include <tuple>

#include "network/network.hpp"
#include "support/param_name.hpp"

namespace pnoc::network {
namespace {

using ConservationParam = std::tuple<const char*, Architecture, double, int>;

class Conservation : public ::testing::TestWithParam<ConservationParam> {};

TEST_P(Conservation, FlitsNeitherLostNorDuplicated) {
  const auto& [pattern, arch, load, set] = GetParam();
  SimulationParameters params;
  params.architecture = arch;
  params.bandwidthSet = traffic::BandwidthSet::byIndex(set);
  params.pattern = pattern;
  params.offeredLoad = load;
  params.warmupCycles = 200;
  params.measureCycles = 2500;
  params.seed = 42;
  PhotonicNetwork net(params);
  net.run();
  // Every injected flit is either delivered or still somewhere in a buffer,
  // link pipe or photonic flight — never lost, never duplicated.
  EXPECT_EQ(net.totalFlitsInjected(), net.totalFlitsEjected() + net.occupancy());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Conservation,
    ::testing::Values(
        ConservationParam{"uniform", Architecture::kFirefly, 0.0005, 1},
        ConservationParam{"uniform", Architecture::kDhetpnoc, 0.0005, 1},
        ConservationParam{"uniform", Architecture::kDhetpnoc, 0.01, 1},  // saturated
        ConservationParam{"skewed1", Architecture::kFirefly, 0.001, 1},
        ConservationParam{"skewed3", Architecture::kFirefly, 0.004, 1},  // way past knee
        ConservationParam{"skewed3", Architecture::kDhetpnoc, 0.004, 1},
        ConservationParam{"skewed2", Architecture::kDhetpnoc, 0.002, 2},
        ConservationParam{"skewed3", Architecture::kFirefly, 0.004, 3},
        ConservationParam{"skewed-hotspot2", Architecture::kDhetpnoc, 0.002, 1},
        ConservationParam{"skewed-hotspot4", Architecture::kFirefly, 0.002, 1},
        ConservationParam{"real-apps", Architecture::kDhetpnoc, 0.002, 1},
        ConservationParam{"real-apps", Architecture::kFirefly, 0.002, 3}),
    testsupport::TupleName());

// Closed-loop conservation, asserted from the per-core counters: CoreStats
// counts ejected flits/packets, so the invariant can be stated entirely over
// per-core stats — injected == ejected + in-flight — which makes it
// checkable per core, not just globally.
using WorkloadConservationParam = std::tuple<const char*, const char*, Architecture>;

class WorkloadConservation
    : public ::testing::TestWithParam<WorkloadConservationParam> {};

TEST_P(WorkloadConservation, CoreStatsBalanceInjectionAgainstEjection) {
  const auto& [workload, pattern, arch] = GetParam();
  SimulationParameters params;
  params.workload = workload;
  params.pattern = pattern;
  params.architecture = arch;
  params.warmupCycles = 200;
  params.measureCycles = 2500;
  params.seed = 42;
  PhotonicNetwork net(params);
  net.run();

  std::uint64_t flitsInjected = 0, flitsEjected = 0;
  std::uint64_t packetsGenerated = 0, packetsEjected = 0;
  for (CoreId core = 0; core < params.numCores; ++core) {
    const CoreStats& stats = net.core(core).stats();
    flitsInjected += stats.flitsInjected;
    flitsEjected += stats.flitsEjected;
    packetsGenerated += stats.packetsGenerated;
    packetsEjected += stats.packetsEjected;
  }
  ASSERT_GT(packetsEjected, 0u);
  EXPECT_EQ(flitsEjected, net.totalFlitsEjected());
  EXPECT_EQ(flitsInjected, flitsEjected + net.occupancy());
  // Packet-level: generated packets are ejected or still queued/in flight.
  EXPECT_GE(packetsGenerated, packetsEjected);
  // Workload mode never refuses: models check canSubmit() before drawing.
  std::uint64_t offered = 0, refused = 0;
  for (CoreId core = 0; core < params.numCores; ++core) {
    offered += net.core(core).stats().packetsOffered;
    refused += net.core(core).stats().packetsRefused;
  }
  EXPECT_EQ(refused, 0u);
  EXPECT_EQ(offered, packetsGenerated);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, WorkloadConservation,
    ::testing::Values(
        WorkloadConservationParam{"closed:window=2", "uniform", Architecture::kDhetpnoc},
        WorkloadConservationParam{"closed:window=8", "skewed3", Architecture::kFirefly},
        WorkloadConservationParam{"chain:window=2,think=10", "skewed3",
                                  Architecture::kDhetpnoc},
        WorkloadConservationParam{"closed:window=4", "real-apps",
                                  Architecture::kDhetpnoc}),
    testsupport::TupleName());

TEST(WorkloadConservationOpenLoop, CoreDeliveryCountersSumToRunMetrics) {
  // Each core is its own ejection sink, so the per-core delivery counters
  // are the only ones: with no warmup the measured window starts at cycle
  // 0, and RunMetrics' delivered packets, bits and latency must equal the
  // per-core sums exactly.
  SimulationParameters params;
  params.pattern = "skewed3";
  params.offeredLoad = 0.002;
  params.warmupCycles = 0;
  params.measureCycles = 2000;
  PhotonicNetwork net(params);
  const metrics::RunMetrics metrics = net.run();
  std::uint64_t packets = 0, bits = 0, latencySum = 0, latencyCount = 0;
  std::uint64_t flitsInjected = 0, flitsEjected = 0;
  for (CoreId core = 0; core < params.numCores; ++core) {
    const CoreStats& stats = net.core(core).stats();
    packets += stats.packetsEjected;
    bits += stats.bitsEjected;
    latencySum += stats.packetLatencyCyclesSum;
    latencyCount += net.core(core).packetLatencies().count();
    flitsInjected += stats.flitsInjected;
    flitsEjected += stats.flitsEjected;
  }
  ASSERT_GT(packets, 0u);
  EXPECT_EQ(metrics.packetsDelivered, packets);
  EXPECT_EQ(metrics.bitsDelivered, bits);
  EXPECT_EQ(metrics.latencyCyclesSum, latencySum);
  EXPECT_EQ(metrics.latency.count(), latencyCount);
  EXPECT_EQ(latencyCount, packets);
  EXPECT_EQ(flitsEjected, net.totalFlitsEjected());
  EXPECT_EQ(flitsInjected, flitsEjected + net.occupancy());
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, DhetpnocNeverLosesUnderHeavySkew) {
  // The headline comparison must not be an artifact of one RNG stream.
  SimulationParameters params;
  params.pattern = "skewed3";
  params.offeredLoad = 0.0014;  // past the Firefly knee
  params.warmupCycles = 500;
  params.measureCycles = 5000;
  params.seed = GetParam();
  params.architecture = Architecture::kFirefly;
  PhotonicNetwork firefly(params);
  const auto fireflyMetrics = firefly.run();
  params.architecture = Architecture::kDhetpnoc;
  PhotonicNetwork dhet(params);
  const auto dhetMetrics = dhet.run();
  EXPECT_GT(dhetMetrics.bitsDelivered, fireflyMetrics.bitsDelivered)
      << "seed " << GetParam();
  EXPECT_LT(dhetMetrics.energyPerPacketPj(), fireflyMetrics.energyPerPacketPj())
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1u, 7u, 1234u, 987654321u),
                         ::testing::PrintToStringParamName());

TEST(AllocationSafety, HoldsUnderLiveTraffic) {
  // The DBA's central invariant — no wavelength double-owned, token and
  // owned lists in agreement — checked while real traffic and the token
  // ring run.
  SimulationParameters params;
  params.pattern = "skewed3";
  params.offeredLoad = 0.002;
  PhotonicNetwork net(params);
  auto* policy = dynamic_cast<DhetpnocPolicy*>(&net.policy());
  ASSERT_NE(policy, nullptr);
  for (int chunk = 0; chunk < 20; ++chunk) {
    net.step(100);
    for (ClusterId c = 0; c < 16; ++c) {
      EXPECT_GE(policy->controller(c).ownedCount(), 1u);
    }
    EXPECT_EQ(policy->ownershipViolation(), "") << "chunk " << chunk;
  }
}

TEST(AllocationSafety, SurvivesRepeatedRemapping) {
  // Oscillate demands between skewed3 and uniform while traffic flows.
  SimulationParameters params;
  params.pattern = "skewed3";
  params.offeredLoad = 0.001;
  PhotonicNetwork net(params);
  auto* policy = dynamic_cast<DhetpnocPolicy*>(&net.policy());
  ASSERT_NE(policy, nullptr);
  const auto uniform = traffic::makePattern("uniform", net.topology(),
                                            params.bandwidthSet);
  const auto skewed = traffic::makePattern("skewed3", net.topology(),
                                           params.bandwidthSet);
  for (int round = 0; round < 10; ++round) {
    policy->publishDemands(round % 2 == 0 ? *uniform : *skewed);
    net.step(50);
    EXPECT_EQ(policy->ownershipViolation(), "") << "round " << round;
  }
  // Flit conservation still holds after all the churn.
  EXPECT_EQ(net.totalFlitsInjected(), net.totalFlitsEjected() + net.occupancy());
}

}  // namespace
}  // namespace pnoc::network
