#include "core/dba.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/tables.hpp"
#include "core/token.hpp"
#include "sim/rng.hpp"

namespace pnoc::core {
namespace {

constexpr std::uint32_t kClusters = 16;
constexpr std::uint32_t kCoresPerCluster = 4;

WavelengthTable uniformDemand(std::uint32_t numClusters, ClusterId self,
                              std::uint32_t lambdas) {
  WavelengthTable table(numClusters);
  for (ClusterId d = 0; d < numClusters; ++d) {
    if (d != self) table.set(d, lambdas);
  }
  return table;
}

TEST(RouterTables, RequestIsElementwiseMaxOfDemands) {
  RouterTables tables(0, 4, 2);
  WavelengthTable demandA(4);
  demandA.set(1, 3);
  demandA.set(2, 1);
  WavelengthTable demandB(4);
  demandB.set(1, 1);
  demandB.set(2, 5);
  tables.updateDemand(0, demandA);
  tables.updateDemand(1, demandB);
  EXPECT_EQ(tables.request().get(1), 3u);
  EXPECT_EQ(tables.request().get(2), 5u);
  EXPECT_EQ(tables.request().get(3), 0u);
  EXPECT_EQ(tables.request().get(0), 0u);  // self entry forced to zero
}

TEST(RouterTables, RequestUpdatesWhenDemandChanges) {
  RouterTables tables(0, 4, 1);
  tables.updateDemand(0, uniformDemand(4, 0, 6));
  EXPECT_EQ(tables.request().maxEntry(), 6u);
  tables.updateDemand(0, uniformDemand(4, 0, 2));
  EXPECT_EQ(tables.request().maxEntry(), 2u);
}

/// A 16-cluster DBA fixture with the paper's set-1 budget: 64 wavelengths,
/// 1 reserved per cluster, per-channel cap 8.
class DbaFixture : public ::testing::Test {
 protected:
  DbaFixture() : token_(64, 16) {
    DbaConfig config;
    config.maxChannelWavelengths = 8;
    config.reservedPerCluster = 1;
    for (ClusterId c = 0; c < kClusters; ++c) {
      tables_.push_back(std::make_unique<RouterTables>(c, kClusters, kCoresPerCluster));
      controllers_.push_back(
          std::make_unique<DbaController>(c, config, *tables_[c]));
    }
  }

  void setDemand(ClusterId cluster, std::uint32_t lambdas) {
    tables_[cluster]->updateDemand(0, uniformDemand(kClusters, cluster, lambdas));
  }

  /// One full token rotation.
  void rotate() {
    for (auto& controller : controllers_) controller->onToken(token_, 0);
  }

  /// The safety invariant: the token and the owned lists agree and nothing
  /// is owned twice, plus the starvation guard.
  void checkInvariants() {
    EXPECT_EQ(ownershipViolation(token_, controllers_), "");
    for (ClusterId c = 0; c < kClusters; ++c) {
      EXPECT_GE(controllers_[c]->ownedCount(), 1u);  // starvation guard
    }
  }

  Token token_;
  std::vector<std::unique_ptr<RouterTables>> tables_;
  std::vector<std::unique_ptr<DbaController>> controllers_;
};

TEST_F(DbaFixture, ReservedWavelengthPreallocated) {
  for (ClusterId c = 0; c < kClusters; ++c) {
    EXPECT_EQ(controllers_[c]->ownedCount(), 1u);
    EXPECT_EQ(controllers_[c]->ownedWavelengths().front(), photonic::unflatten(c, 64));
  }
  checkInvariants();
}

TEST_F(DbaFixture, UniformDemandConvergesToEvenSplit) {
  for (ClusterId c = 0; c < kClusters; ++c) setDemand(c, 4);
  rotate();
  for (ClusterId c = 0; c < kClusters; ++c) {
    EXPECT_EQ(controllers_[c]->ownedCount(), 4u) << "cluster " << c;
    EXPECT_EQ(controllers_[c]->lambdasFor((c + 1) % kClusters), 4u);
  }
  EXPECT_EQ(token_.freeCount(), 0u);  // 16 * 4 = 64, fully allocated
  checkInvariants();
}

TEST_F(DbaFixture, SkewedDemandSatisfiedWithinBudget) {
  // Classes {1,2,4,8} on clusters (c mod 4): total 60 <= 64.
  const std::uint32_t classDemand[4] = {1, 2, 4, 8};
  for (ClusterId c = 0; c < kClusters; ++c) setDemand(c, classDemand[c % 4]);
  rotate();
  for (ClusterId c = 0; c < kClusters; ++c) {
    EXPECT_EQ(controllers_[c]->ownedCount(), classDemand[c % 4]) << "cluster " << c;
    EXPECT_EQ(controllers_[c]->stats().shortfallVisits, 0u);
  }
  EXPECT_EQ(token_.freeCount(), 4u);
  checkInvariants();
}

TEST_F(DbaFixture, CapLimitsAcquisition) {
  setDemand(0, 50);  // far above the per-channel cap of 8
  rotate();
  EXPECT_EQ(controllers_[0]->ownedCount(), 8u);
  checkInvariants();
}

TEST_F(DbaFixture, ReleasesWhenDemandDrops) {
  for (ClusterId c = 0; c < kClusters; ++c) setDemand(c, 4);
  rotate();
  EXPECT_EQ(controllers_[3]->ownedCount(), 4u);
  setDemand(3, 1);
  rotate();
  EXPECT_EQ(controllers_[3]->ownedCount(), 1u);
  EXPECT_GE(controllers_[3]->stats().releases, 3u);
  checkInvariants();
}

TEST_F(DbaFixture, ReleasedWavelengthsBecomeAcquirable) {
  for (ClusterId c = 0; c < kClusters; ++c) setDemand(c, 4);
  rotate();
  EXPECT_EQ(token_.freeCount(), 0u);
  // Cluster 5 shrinks; cluster 2 wants more.  Cluster 2 holds the token
  // BEFORE cluster 5 releases in the same rotation, so it only sees the
  // freed wavelengths one rotation later — exactly the retry behaviour
  // Section 3.2.1 describes (the request table is kept, not cleared).
  setDemand(5, 1);
  setDemand(2, 7);
  rotate();
  EXPECT_EQ(controllers_[5]->ownedCount(), 1u);
  EXPECT_EQ(controllers_[2]->ownedCount(), 4u);  // pool was empty at its turn
  EXPECT_GE(controllers_[2]->stats().shortfallVisits, 1u);
  rotate();
  EXPECT_EQ(controllers_[2]->ownedCount(), 7u);  // satisfied on retry
  checkInvariants();
}

TEST_F(DbaFixture, OversubscriptionRetriesAcrossRotations) {
  // Everyone wants the cap: 16*8 = 128 > 64 available.  The early token
  // holders win; the request table is not cleared, so the shortfall is
  // re-attempted on the next rotation (Section 3.2.1).
  for (ClusterId c = 0; c < kClusters; ++c) setDemand(c, 8);
  rotate();
  std::uint32_t total = 0;
  bool anyShortfall = false;
  for (ClusterId c = 0; c < kClusters; ++c) {
    total += controllers_[c]->ownedCount();
    anyShortfall |= controllers_[c]->stats().shortfallVisits > 0;
  }
  EXPECT_EQ(total, 64u);  // everything allocated
  EXPECT_TRUE(anyShortfall);
  EXPECT_EQ(token_.freeCount(), 0u);
  checkInvariants();
  // A second rotation cannot violate safety.
  rotate();
  checkInvariants();
}

TEST_F(DbaFixture, CurrentTablePerDestinationBounds) {
  // Cluster 0 demands 8 to cluster 1 but only 2 to cluster 2.
  WavelengthTable demand(kClusters);
  demand.set(1, 8);
  demand.set(2, 2);
  tables_[0]->updateDemand(0, demand);
  rotate();
  EXPECT_EQ(controllers_[0]->ownedCount(), 8u);
  EXPECT_EQ(controllers_[0]->lambdasFor(1), 8u);
  EXPECT_EQ(controllers_[0]->lambdasFor(2), 2u);
  // No demand to cluster 3: floor at the reserved minimum, never zero.
  EXPECT_EQ(controllers_[0]->lambdasFor(3), 1u);
}

TEST_F(DbaFixture, OwnedWavelengthsKeepReservedFirst) {
  setDemand(6, 5);
  rotate();
  const auto& owned = controllers_[6]->ownedWavelengths();
  ASSERT_EQ(owned.size(), 5u);
  EXPECT_EQ(owned[0], photonic::unflatten(6, 64));  // the reserved lambda
}

TEST_F(DbaFixture, RandomDemandChurnPreservesInvariants) {
  // Property test: random demand updates and rotations never violate the
  // allocation invariants (no double ownership, token/owned-list agreement, floor).
  sim::Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    const auto cluster = static_cast<ClusterId>(rng.nextBelow(kClusters));
    const auto demand = static_cast<std::uint32_t>(rng.nextBelow(12));  // may exceed cap
    setDemand(cluster, demand);
    controllers_[round % kClusters]->onToken(token_, round);
    checkInvariants();
  }
}

TEST(DbaController, MultiWaveguideAcquisitionSpansWaveguides) {
  // Set-3 geometry: 512 wavelengths over 8 waveguides; demands can exceed a
  // single waveguide's remaining capacity and must spread (Section 3.2.1:
  // "Multiple wavelengths for a particular cluster could be spread over
  // multiple waveguides").
  Token token(512, 16);
  DbaConfig config;
  config.maxChannelWavelengths = 64;
  std::vector<std::unique_ptr<RouterTables>> tables;
  std::vector<std::unique_ptr<DbaController>> controllers;
  for (ClusterId c = 0; c < 16; ++c) {
    tables.push_back(std::make_unique<RouterTables>(c, 16, 4));
    controllers.push_back(std::make_unique<DbaController>(c, config, *tables[c]));
  }
  WavelengthTable demand(16);
  demand.set(1, 64);
  tables[0]->updateDemand(0, demand);
  DbaController& controller = *controllers[0];
  controller.onToken(token, 0);
  EXPECT_EQ(controller.ownedCount(), 64u);
  bool spansMultiple = false;
  for (const auto& id : controller.ownedWavelengths()) {
    if (id.waveguide != controller.ownedWavelengths().front().waveguide) {
      spansMultiple = true;
      break;
    }
  }
  EXPECT_TRUE(spansMultiple);
  EXPECT_EQ(ownershipViolation(token, controllers), "");
}

TEST(DbaController, ReservedWavelengthsCrossIntoSecondWaveguide) {
  // 32 clusters x 4 reserved = 128 reserved flat indices, so cluster 16's
  // reserved block starts at flat 64: the first lambda of waveguide 1 at
  // kMaxWavelengthsPerWaveguide lambdas per waveguide.
  Token token(256, 128);
  DbaConfig config;
  config.reservedPerCluster = 4;
  std::vector<std::unique_ptr<RouterTables>> tables;
  std::vector<std::unique_ptr<DbaController>> controllers;
  for (ClusterId c = 0; c < 32; ++c) {
    tables.push_back(std::make_unique<RouterTables>(c, 32, 1));
    controllers.push_back(std::make_unique<DbaController>(c, config, *tables[c]));
  }
  const auto& owned = controllers[16]->ownedWavelengths();
  ASSERT_EQ(owned.size(), 4u);
  EXPECT_EQ(owned.front(), (photonic::WavelengthId{1, 0}));
  EXPECT_EQ(owned.back(), (photonic::WavelengthId{1, 3}));
  EXPECT_EQ(controllers[15]->ownedWavelengths().back(), (photonic::WavelengthId{0, 63}));
  EXPECT_EQ(ownershipViolation(token, controllers), "");
}

/// Each test damages a consistent rig through the public Token API only and
/// requires ownershipViolation() to name the damaged wavelength.
class DbaOwnership : public DbaFixture {
 protected:
  /// Cluster `cluster` acquires one dynamic wavelength; returns it.
  photonic::WavelengthId acquireOne(ClusterId cluster) {
    setDemand(cluster, 2);
    controllers_[cluster]->onToken(token_, 0);
    EXPECT_EQ(controllers_[cluster]->ownedCount(), 2u);
    return controllers_[cluster]->ownedWavelengths().back();
  }

  std::uint32_t bitOf(const photonic::WavelengthId& id) const {
    return token_.tokenBitFor(photonic::flatten(id, 64));
  }

  static bool names(const std::string& violation, const photonic::WavelengthId& id) {
    return violation.find(photonic::toString(id)) != std::string::npos;
  }
};

TEST_F(DbaOwnership, NamesDoubleOwnedWavelength) {
  const photonic::WavelengthId stolen = acquireOne(0);
  ASSERT_EQ(ownershipViolation(token_, controllers_), "");
  token_.markFree(bitOf(stolen));
  EXPECT_EQ(acquireOne(1), stolen);  // the first free bit again
  const std::string violation = ownershipViolation(token_, controllers_);
  EXPECT_TRUE(names(violation, stolen)) << violation;
  EXPECT_NE(violation.find("cluster 0 and cluster 1"), std::string::npos) << violation;
}

TEST_F(DbaOwnership, NamesAllocatedBitWithoutOwner) {
  acquireOne(0);
  ASSERT_EQ(ownershipViolation(token_, controllers_), "");
  const photonic::WavelengthId orphan = photonic::unflatten(63, 64);
  token_.markAllocated(bitOf(orphan));
  const std::string violation = ownershipViolation(token_, controllers_);
  EXPECT_TRUE(names(violation, orphan)) << violation;
  EXPECT_NE(violation.find("no cluster owns it"), std::string::npos) << violation;
}

TEST_F(DbaOwnership, NamesOwnedWavelengthWithFreeBit) {
  const photonic::WavelengthId held = acquireOne(4);
  ASSERT_EQ(ownershipViolation(token_, controllers_), "");
  token_.markFree(bitOf(held));
  const std::string violation = ownershipViolation(token_, controllers_);
  EXPECT_TRUE(names(violation, held)) << violation;
  EXPECT_NE(violation.find("cluster 4"), std::string::npos) << violation;
  EXPECT_NE(violation.find("token bit is free"), std::string::npos) << violation;
}

TEST_F(DbaOwnership, NamesShortTotalWhenAControllerIsLeftOut) {
  acquireOne(2);
  ASSERT_EQ(ownershipViolation(token_, controllers_), "");
  // Every check but the totals passes on a subset; the missing cluster's
  // reserved wavelength is then neither owned nor free.
  controllers_.pop_back();
  EXPECT_EQ(ownershipViolation(token_, controllers_), "16 owned + 47 free != 64 total");
}

TEST_F(DbaOwnership, ConsistentAgainAfterResetAndClear) {
  for (ClusterId c = 0; c < kClusters; ++c) setDemand(c, 8);
  rotate();
  ASSERT_EQ(token_.freeCount(), 0u);
  for (ClusterId c = 0; c < kClusters; ++c) setDemand(c, 0);
  token_.clear();
  // Cleared token, full owned lists: every dynamic wavelength's bit is free.
  EXPECT_NE(ownershipViolation(token_, controllers_).find("token bit is free"),
            std::string::npos);
  for (auto& controller : controllers_) controller->reset();
  EXPECT_EQ(ownershipViolation(token_, controllers_), "");
  for (ClusterId c = 0; c < kClusters; ++c) {
    EXPECT_EQ(controllers_[c]->ownedCount(), 1u);
    EXPECT_EQ(controllers_[c]->stats().acquisitions, 0u);
  }
  EXPECT_EQ(token_.freeCount(), token_.sizeBits());
}

}  // namespace
}  // namespace pnoc::core
