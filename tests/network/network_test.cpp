#include "network/network.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "network/channel_policy.hpp"

namespace pnoc::network {
namespace {

SimulationParameters baseParams() {
  SimulationParameters params;
  params.pattern = "uniform";
  params.offeredLoad = 0.0005;  // comfortably below saturation
  params.warmupCycles = 500;
  params.measureCycles = 3000;
  params.seed = 12345;
  return params;
}

TEST(Params, DefaultsValidate) {
  EXPECT_NO_THROW(baseParams().validate());
}

TEST(Params, RejectsBadGeometry) {
  auto params = baseParams();
  params.numCores = 10;
  EXPECT_THROW(params.validate(), std::invalid_argument);
}

TEST(Params, RejectsZeroReserved) {
  auto params = baseParams();
  params.reservedPerCluster = 0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
}

TEST(Params, RejectsReservedOverBudget) {
  auto params = baseParams();
  params.reservedPerCluster = 5;  // 5 * 16 = 80 > 64
  EXPECT_THROW(params.validate(), std::invalid_argument);
}

TEST(Params, RejectsVcShallowerThanPacket) {
  auto params = baseParams();
  params.coreRouter.vcDepthFlits = 32;  // packet is 64 flits in set 1
  EXPECT_THROW(PhotonicNetwork net(params), std::invalid_argument);
}

TEST(Params, RejectsVcCountsOutsideMaskRange) {
  // VC occupancy / head-front / lock / bound-core state is kept in 32-bit
  // masks; a 33rd VC would shift out of range (UB), so validate() must refuse
  // it before any bank is constructed.
  auto params = baseParams();
  params.coreRouter.vcsPerPort = 33;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  EXPECT_THROW(PhotonicNetwork net(params), std::invalid_argument);
  params.coreRouter.vcsPerPort = 0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
}

TEST(Params, RejectsCoreRoutersWiderThanMaskRange) {
  // Router arbitration keeps port state in 32-bit masks: 32 cores per
  // cluster would need a 33-port router.
  auto params = baseParams();
  params.clusterSize = 32;
  params.coreRouter.numPorts = 33;
  try {
    params.validate();
    FAIL() << "a 33-port core router was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("at most 32 ports"), std::string::npos)
        << error.what();
  }
}

TEST(Params, RejectsMoreClustersThanTheWaiterMask) {
  // A photonic router keeps the clusters whose reservations it refused in a
  // 64-bit waiter mask: a 65th cluster would shift out of range.  Bandwidth
  // set 3 has the wavelength budget for it (65 reserved <= 512), so only the
  // cluster limit can refuse this geometry.
  auto params = baseParams();
  params.bandwidthSet = traffic::BandwidthSet::set3();
  params.numCores = 260;  // 65 clusters of 4
  try {
    params.validate();
    FAIL() << "a 65-cluster network was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("64-bit mask"), std::string::npos)
        << error.what();
  }
  params.numCores = 256;  // 64 clusters: the widest legal mask
  EXPECT_NO_THROW(params.validate());
}

TEST(Params, AcceptsFullMaskWidthVcCount) {
  // 32 VCs exactly fills the mask (`~0u`), the widest legal configuration.
  auto params = baseParams();
  params.coreRouter.vcsPerPort = 32;
  EXPECT_NO_THROW(params.validate());
  PhotonicNetwork net(params);
  net.step(200);
}

TEST(Params, RejectsZeroLinkLatency) {
  // A link's pipe holds `latency` flits, so a zero-latency link is full
  // forever and would silently deliver nothing.
  auto params = baseParams();
  params.intraClusterLinkLatency = 0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  EXPECT_THROW(PhotonicNetwork net(params), std::invalid_argument);
  params.intraClusterLinkLatency = 1;
  EXPECT_NO_THROW(params.validate());
}

TEST(FireflyPolicy, StaticEvenSplit) {
  noc::ClusterTopology topology;
  FireflyPolicy policy(topology, traffic::BandwidthSet::set1());
  EXPECT_EQ(policy.lambdasFor(0, 1), 4u);
  EXPECT_EQ(policy.lambdasFor(9, 2), 4u);
  EXPECT_EQ(policy.maxReservationIdentifiers(), 0u);
  EXPECT_EQ(policy.numDataWaveguides(), 16u);  // one write waveguide per cluster
}

TEST(DhetpnocPolicy, ConvergesToDemandAfterRotations) {
  noc::ClusterTopology topology;
  const auto set = traffic::BandwidthSet::set1();
  const auto pattern = traffic::makePattern("skewed3", topology, set);
  DhetpnocPolicy policy(topology, set, *pattern, sim::Clock(), 1);
  sim::Engine engine;
  policy.attachTo(engine);
  engine.run(64);  // several full token rotations (16 hops x 1 cycle each)
  // Clusters converge to their class demands {1,2,4,8}.
  EXPECT_EQ(policy.lambdasFor(3, 0), 8u);
  EXPECT_EQ(policy.lambdasFor(2, 0), 4u);
  EXPECT_EQ(policy.lambdasFor(1, 0), 2u);
  EXPECT_EQ(policy.lambdasFor(0, 1), 1u);
  // The controller owns enough identifiers to back its largest grant.
  EXPECT_GE(policy.controller(3).ownedWavelengths().size(), 8u);
}

TEST(DhetpnocPolicy, NumDataWaveguidesFollowsBandwidthSet) {
  noc::ClusterTopology topology;
  const std::uint32_t expected[3] = {1, 4, 8};  // 64 / 256 / 512 lambdas over 64
  const auto sets = traffic::BandwidthSet::all();
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const auto pattern = traffic::makePattern("uniform", topology, sets[i]);
    DhetpnocPolicy policy(topology, sets[i], *pattern, sim::Clock(), 1);
    EXPECT_EQ(policy.numDataWaveguides(), expected[i]) << sets[i].name;
  }
}

TEST(DhetpnocPolicy, ResetReturnsToReservedOnlyOwnership) {
  noc::ClusterTopology topology;
  const auto set = traffic::BandwidthSet::set1();
  const auto pattern = traffic::makePattern("skewed3", topology, set);
  DhetpnocPolicy policy(topology, set, *pattern, sim::Clock(), 1);
  sim::Engine engine;
  policy.attachTo(engine);
  engine.run(64);
  ASSERT_EQ(policy.ownershipViolation(), "");
  ASSERT_GT(policy.controller(3).ownedCount(), 1u);
  policy.reset(*pattern);
  EXPECT_EQ(policy.ownershipViolation(), "");
  for (ClusterId c = 0; c < 16; ++c) EXPECT_EQ(policy.controller(c).ownedCount(), 1u);
  const core::Token& token = policy.tokenRing().token();
  EXPECT_EQ(token.freeCount(), token.sizeBits());
}

TEST(DhetpnocPolicy, UniformMatchesFireflyAllocation) {
  noc::ClusterTopology topology;
  const auto set = traffic::BandwidthSet::set1();
  const auto pattern = traffic::makePattern("uniform", topology, set);
  DhetpnocPolicy policy(topology, set, *pattern, sim::Clock(), 1);
  FireflyPolicy firefly(topology, set);
  sim::Engine engine;
  policy.attachTo(engine);
  engine.run(64);
  for (ClusterId src = 0; src < 16; ++src) {
    const ClusterId dst = (src + 1) % 16;
    EXPECT_EQ(policy.lambdasFor(src, dst), firefly.lambdasFor(src, dst));
  }
}

TEST(Network, DeliversEverythingAtLowLoad) {
  auto params = baseParams();
  PhotonicNetwork net(params);
  const metrics::RunMetrics m = net.run();
  EXPECT_GT(m.packetsDelivered, 50u);
  EXPECT_GT(m.acceptance(), 0.95);
  EXPECT_EQ(m.packetsRefused, 0u);
}

TEST(Network, DeterministicAcrossRuns) {
  auto params = baseParams();
  params.pattern = "skewed2";
  PhotonicNetwork a(params);
  PhotonicNetwork b(params);
  const auto ma = a.run();
  const auto mb = b.run();
  EXPECT_EQ(ma.packetsDelivered, mb.packetsDelivered);
  EXPECT_EQ(ma.bitsDelivered, mb.bitsDelivered);
  EXPECT_EQ(ma.latencyCyclesSum, mb.latencyCyclesSum);
  EXPECT_DOUBLE_EQ(ma.ledger.total(), mb.ledger.total());
}

TEST(Network, SeedChangesTheRun) {
  auto params = baseParams();
  PhotonicNetwork a(params);
  params.seed = 999;
  PhotonicNetwork b(params);
  EXPECT_NE(a.run().packetsDelivered, b.run().packetsDelivered);
}

TEST(Network, FlitConservationAfterDrain) {
  // Stop offering traffic and drain: everything generated must either be
  // delivered or still counted buffered (here: drained to zero).
  auto params = baseParams();
  params.measureCycles = 2000;
  PhotonicNetwork net(params);
  net.run();
  // Freeze injection by stepping well past the run; queued offers continue,
  // so instead assert occupancy is bounded by what was generated and that
  // the network keeps making progress.
  const auto before = net.occupancy();
  net.step(3000);
  EXPECT_LE(net.occupancy(), before + 64 * 8 * 64);  // bounded by queue capacity
}

TEST(Network, IntraClusterTrafficBypassesPhotonics) {
  // With all traffic inside cluster 0 (cores 0..3), the photonic routers must
  // see nothing.  Build via a custom pattern through params: use uniform but
  // a 4-core chip with a single cluster is invalid for photonics (needs >= 2
  // clusters); instead run the full chip and check conservation of photonic
  // vs electrical delivery on a uniform run.
  auto params = baseParams();
  PhotonicNetwork net(params);
  const auto m = net.run();
  std::uint64_t photonicTx = 0;
  for (ClusterId c = 0; c < net.topology().numClusters(); ++c) {
    photonicTx += net.photonicRouter(c).stats().packetsTransmitted;
  }
  // Uniform traffic: 60/63 of destinations are inter-cluster.
  EXPECT_GT(photonicTx, m.packetsDelivered / 2);
  EXPECT_LT(photonicTx, m.packetsDelivered + 64u);  // intra-cluster not photonic
}

TEST(Network, EnergyLedgerHasAllComponents) {
  auto params = baseParams();
  PhotonicNetwork net(params);
  const auto m = net.run();
  using photonic::EnergyCategory;
  EXPECT_GT(m.ledger.of(EnergyCategory::kLaunch), 0.0);
  EXPECT_GT(m.ledger.of(EnergyCategory::kModulation), 0.0);
  EXPECT_GT(m.ledger.of(EnergyCategory::kTuning), 0.0);
  EXPECT_GT(m.ledger.of(EnergyCategory::kPhotonicBuffer), 0.0);
  EXPECT_GT(m.ledger.of(EnergyCategory::kElectricalRouter), 0.0);
  EXPECT_GT(m.ledger.of(EnergyCategory::kElectricalLink), 0.0);
  EXPECT_NEAR(m.ledger.total(), m.ledger.photonic() + m.ledger.electrical(), 1e-6);
}

TEST(Network, LatencyIncludesSerializationFloor) {
  // Even unloaded, an inter-cluster packet needs at least
  // packetBits / (lambdas * 5) cycles of serialization; uniform set 1 gives
  // 2048 / 20 = 102.4 cycles, so the average must exceed that.
  auto params = baseParams();
  params.offeredLoad = 0.0001;
  PhotonicNetwork net(params);
  const auto m = net.run();
  ASSERT_GT(m.packetsDelivered, 10u);
  EXPECT_GT(m.avgLatencyCycles(), 100.0);
  EXPECT_LT(m.avgLatencyCycles(), 400.0);  // but not pathological
}

TEST(Network, RunIsRepeatable) {
  // A second run() (without reset) is a well-defined continuation: another
  // warmup+measure episode over the live network.  Conservation must hold
  // across episodes and the second window still delivers traffic.
  PhotonicNetwork net(baseParams());
  const auto first = net.run();
  const auto second = net.run();
  EXPECT_GT(first.packetsDelivered, 0u);
  EXPECT_GT(second.packetsDelivered, 0u);
  EXPECT_EQ(net.totalFlitsInjected(), net.totalFlitsEjected() + net.occupancy());
}

TEST(Network, SetOfferedLoadRetargetsInjectors) {
  auto params = baseParams();
  PhotonicNetwork net(params);
  const auto low = net.run();
  net.setOfferedLoad(params.offeredLoad * 8.0);
  net.reset();
  const auto high = net.run();
  EXPECT_GT(high.packetsOffered, low.packetsOffered * 4);
}

TEST(Network, ConstructionAllocatesLittleHeap) {
  // Ring storage (VC arrival rings, link pipes, injection queues) grows on
  // demand, so building a default network must not allocate the 16 VCs x 64
  // flits per port the routers are sized for: eagerly, that alone was
  // 3.3 MB of a 4.2 MB build.  Measured as the malloc arena delta
  // (in-use arena bytes plus mmapped chunks) across construction.
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan's allocator does not report through mallinfo2";
#elif !defined(__GLIBC__)
  GTEST_SKIP() << "needs glibc's mallinfo2";
#else
  const auto heapInUse = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const SimulationParameters params;
  const std::size_t before = heapInUse();
  const auto net = std::make_unique<PhotonicNetwork>(params);
  const std::size_t after = heapInUse();
  ASSERT_GE(after, before);
  EXPECT_LT(after - before, std::size_t{1536} * 1024) << "bytes allocated: " << after - before;
#endif
}

class BandwidthSetSweep : public ::testing::TestWithParam<int> {};

TEST_P(BandwidthSetSweep, AllSetsDeliverUnderBothArchitectures) {
  for (const auto arch : {Architecture::kFirefly, Architecture::kDhetpnoc}) {
    auto params = baseParams();
    params.architecture = arch;
    params.bandwidthSet = traffic::BandwidthSet::byIndex(GetParam());
    params.pattern = "skewed2";
    PhotonicNetwork net(params);
    const auto m = net.run();
    EXPECT_GT(m.packetsDelivered, 10u)
        << toString(arch) << " " << params.bandwidthSet.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Sets, BandwidthSetSweep, ::testing::Values(1, 2, 3),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace pnoc::network
