// Tests of the waveguide-restricted d-HetPNoC variant from the thesis
// conclusion: router x may only modulate waveguides x .. x+k-1 mod NW.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/dba.hpp"
#include "core/tables.hpp"
#include "core/token.hpp"
#include "network/network.hpp"

namespace pnoc::core {
namespace {

WavelengthTable demandAll(std::uint32_t numClusters, ClusterId self, std::uint32_t lambdas) {
  WavelengthTable table(numClusters);
  for (ClusterId d = 0; d < numClusters; ++d) {
    if (d != self) table.set(d, lambdas);
  }
  return table;
}

/// Set-3-like rig: 512 wavelengths over 8 waveguides, 16 clusters.
struct Rig {
  explicit Rig(std::uint32_t writableWaveguides) : token(512, 16) {
    DbaConfig config;
    config.maxChannelWavelengths = 64;
    config.reservedPerCluster = 1;
    config.writableWaveguides = writableWaveguides;
    for (ClusterId c = 0; c < 16; ++c) {
      tables.push_back(std::make_unique<RouterTables>(c, 16, 4));
      controllers.push_back(std::make_unique<DbaController>(c, config, *tables[c]));
    }
  }
  /// One full token rotation; ownership must stay consistent.
  void rotate(Cycle now = 0) {
    for (auto& controller : controllers) controller->onToken(token, now);
    EXPECT_EQ(ownershipViolation(token, controllers), "");
  }
  Token token;
  std::vector<std::unique_ptr<RouterTables>> tables;
  std::vector<std::unique_ptr<DbaController>> controllers;
};

TEST(RestrictedDba, AcquiresOnlyWithinAllowedWaveguides) {
  Rig rig(2);
  rig.tables[3]->updateDemand(0, demandAll(16, 3, 64));
  rig.rotate();
  for (const auto& id : rig.controllers[3]->ownedWavelengths()) {
    if (id == rig.controllers[3]->ownedWavelengths().front()) continue;  // reserved
    EXPECT_TRUE(id.waveguide == 3 || id.waveguide == 4) << "waveguide " << id.waveguide;
  }
  EXPECT_EQ(rig.controllers[3]->ownedCount(), 64u);  // 2 x 64 >= 64 demanded
}

TEST(RestrictedDba, WindowWrapsAroundLastWaveguide) {
  Rig rig(2);
  // Cluster 15 -> first waveguide 15 mod 8 = 7, window {7, 0}.
  rig.tables[15]->updateDemand(0, demandAll(16, 15, 32));
  rig.rotate();
  for (const auto& id : rig.controllers[15]->ownedWavelengths()) {
    if (id == rig.controllers[15]->ownedWavelengths().front()) continue;
    EXPECT_TRUE(id.waveguide == 7 || id.waveguide == 0) << "waveguide " << id.waveguide;
  }
}

TEST(RestrictedDba, SingleWaveguideWindowCapsAcquisition) {
  Rig rig(1);
  rig.tables[2]->updateDemand(0, demandAll(16, 2, 64));
  rig.rotate();
  // Waveguide 2 has 64 lambdas but shares them with other windows; cluster 2
  // can never own more than one waveguide's worth.
  EXPECT_LE(rig.controllers[2]->ownedCount(), 64u);
  for (const auto& id : rig.controllers[2]->ownedWavelengths()) {
    if (id == rig.controllers[2]->ownedWavelengths().front()) continue;
    EXPECT_EQ(id.waveguide, 2u);
  }
}

TEST(RestrictedDba, WindowFollowsTheTokensWaveguideCount) {
  // 128 wavelengths = 2 waveguides, so cluster 3's one-waveguide window is
  // waveguide 3 mod 2 = 1, not waveguide 3 as it would be at set 3.
  Token token(128, 16);
  DbaConfig config;
  config.maxChannelWavelengths = 64;
  config.writableWaveguides = 1;
  std::vector<std::unique_ptr<RouterTables>> tables;
  std::vector<std::unique_ptr<DbaController>> controllers;
  for (ClusterId c = 0; c < 16; ++c) {
    tables.push_back(std::make_unique<RouterTables>(c, 16, 4));
    controllers.push_back(std::make_unique<DbaController>(c, config, *tables[c]));
  }
  tables[3]->updateDemand(0, demandAll(16, 3, 64));
  controllers[3]->onToken(token, 0);
  const auto& owned = controllers[3]->ownedWavelengths();
  EXPECT_EQ(owned.size(), 64u);  // waveguide 1 holds 64 tradeable lambdas
  for (std::size_t i = 1; i < owned.size(); ++i) {
    EXPECT_EQ(owned[i].waveguide, 1u) << photonic::toString(owned[i]);
  }
  EXPECT_EQ(ownershipViolation(token, controllers), "");
}

TEST(RestrictedDba, RestrictionReducesSatisfactionUnderContention) {
  // All clusters demand the cap.  Unrestricted: first-come clusters win big.
  // Restricted to 1 waveguide: each window is contended by ~2 clusters, so
  // allocations are flatter and total satisfaction differs.
  Rig unrestricted(0);
  Rig restricted(1);
  for (ClusterId c = 0; c < 16; ++c) {
    unrestricted.tables[c]->updateDemand(0, demandAll(16, c, 64));
    restricted.tables[c]->updateDemand(0, demandAll(16, c, 64));
  }
  unrestricted.rotate();
  restricted.rotate();
  EXPECT_GT(unrestricted.controllers[0]->ownedCount(),
            restricted.controllers[0]->ownedCount());
}

}  // namespace
}  // namespace pnoc::core

namespace pnoc::network {
namespace {

TEST(RestrictedDbaSystem, FullSystemRunsRestricted) {
  SimulationParameters params;
  params.architecture = Architecture::kDhetpnoc;
  params.bandwidthSet = traffic::BandwidthSet::set3();  // 8 data waveguides
  params.pattern = "skewed3";
  params.offeredLoad = 0.004;
  params.writableWaveguides = 2;
  // Seven 500-cycle windows: one of warmup, then 3000 measured cycles, with
  // wavelength ownership checked after each window.
  params.warmupCycles = 0;
  params.measureCycles = 500;
  PhotonicNetwork net(params);
  auto* policy = dynamic_cast<DhetpnocPolicy*>(&net.policy());
  ASSERT_NE(policy, nullptr);
  std::uint64_t delivered = 0;
  for (int window = 0; window < 7; ++window) {
    const auto m = net.run();
    if (window > 0) delivered += m.packetsDelivered;
    EXPECT_EQ(policy->ownershipViolation(), "") << "cycle " << (window + 1) * 500;
  }
  EXPECT_GT(delivered, 100u);
  EXPECT_EQ(net.totalFlitsInjected(), net.totalFlitsEjected() + net.occupancy());
}

}  // namespace
}  // namespace pnoc::network
