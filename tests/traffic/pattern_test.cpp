#include "traffic/pattern.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>

#include "traffic/app_profile.hpp"
#include "traffic/bandwidth_set.hpp"
#include "traffic/skewed.hpp"
#include "traffic/synthetic.hpp"
#include "traffic/uniform.hpp"

namespace pnoc::traffic {
namespace {

const noc::ClusterTopology& topo() {
  static noc::ClusterTopology topology;  // 64 cores / 16 clusters
  return topology;
}

TEST(BandwidthSet, Table31Values) {
  const BandwidthSet s1 = BandwidthSet::set1();
  EXPECT_EQ(s1.totalWavelengths, 64u);
  EXPECT_EQ(s1.maxChannelWavelengths, 8u);
  EXPECT_DOUBLE_EQ(s1.channelGbps[0], 12.5);
  EXPECT_DOUBLE_EQ(s1.channelGbps[3], 100.0);

  const BandwidthSet s2 = BandwidthSet::set2();
  EXPECT_EQ(s2.totalWavelengths, 256u);
  EXPECT_EQ(s2.maxChannelWavelengths, 32u);

  const BandwidthSet s3 = BandwidthSet::set3();
  EXPECT_EQ(s3.totalWavelengths, 512u);
  EXPECT_EQ(s3.maxChannelWavelengths, 64u);
  EXPECT_DOUBLE_EQ(s3.channelGbps[3], 800.0);
}

TEST(BandwidthSet, Table33PacketGeometry) {
  // Packet is always 2048 bits; flit size tracks the set.
  for (const auto& set : BandwidthSet::all()) {
    EXPECT_EQ(set.packetBits(), 2048u) << set.name;
  }
  EXPECT_EQ(BandwidthSet::set1().flitBits, 32u);
  EXPECT_EQ(BandwidthSet::set2().flitBits, 128u);
  EXPECT_EQ(BandwidthSet::set3().flitBits, 256u);
}

TEST(BandwidthSet, WavelengthDemands) {
  // Demand = bandwidth / 12.5 Gb/s (Section 3.4.1).
  const BandwidthSet s1 = BandwidthSet::set1();
  EXPECT_EQ(s1.demandWavelengths(0), 1u);
  EXPECT_EQ(s1.demandWavelengths(1), 2u);
  EXPECT_EQ(s1.demandWavelengths(2), 4u);
  EXPECT_EQ(s1.demandWavelengths(3), 8u);
  EXPECT_EQ(BandwidthSet::set3().demandWavelengths(3), 64u);
}

TEST(BandwidthSet, FireflySplitMatchesTable33) {
  EXPECT_EQ(BandwidthSet::set1().fireflyLambdasPerChannel(16), 4u);
  EXPECT_EQ(BandwidthSet::set2().fireflyLambdasPerChannel(16), 16u);
  EXPECT_EQ(BandwidthSet::set3().fireflyLambdasPerChannel(16), 32u);
}

TEST(BandwidthSet, ByIndexRejectsOutOfRange) {
  EXPECT_THROW(BandwidthSet::byIndex(0), std::invalid_argument);
  EXPECT_THROW(BandwidthSet::byIndex(4), std::invalid_argument);
}

TEST(SkewedFractions, Table32Rows) {
  // Ascending class order {12.5, 25, 50, 100}-equivalents.
  EXPECT_EQ(skewedFractions(1), (std::array<double, 4>{0.125, 0.125, 0.25, 0.50}));
  EXPECT_EQ(skewedFractions(2), (std::array<double, 4>{0.0625, 0.0625, 0.125, 0.75}));
  EXPECT_EQ(skewedFractions(3), (std::array<double, 4>{0.025, 0.025, 0.05, 0.90}));
  EXPECT_THROW(skewedFractions(4), std::invalid_argument);
}

TEST(SkewedFractions, EachRowSumsToOne) {
  for (int level = 1; level <= 3; ++level) {
    double sum = 0.0;
    for (const double f : skewedFractions(level)) sum += f;
    EXPECT_DOUBLE_EQ(sum, 1.0) << "level " << level;
  }
}

TEST(UniformPattern, DestinationNeverSelf) {
  UniformRandomPattern pattern(topo(), BandwidthSet::set1());
  sim::Rng rng(1);
  for (CoreId src = 0; src < 64; src += 7) {
    for (int i = 0; i < 200; ++i) EXPECT_NE(pattern.sampleDestination(src, rng), src);
  }
}

TEST(UniformPattern, DestinationsCoverAllCores) {
  UniformRandomPattern pattern(topo(), BandwidthSet::set1());
  sim::Rng rng(2);
  std::map<CoreId, int> counts;
  for (int i = 0; i < 63 * 400; ++i) ++counts[pattern.sampleDestination(5, rng)];
  EXPECT_EQ(counts.size(), 63u);
  for (const auto& [core, count] : counts) EXPECT_NEAR(count, 400, 150);
}

TEST(UniformPattern, DemandIsEvenSplit) {
  UniformRandomPattern pattern(topo(), BandwidthSet::set1());
  EXPECT_EQ(pattern.wavelengthDemand(0, 1), 4u);  // 64 / 16
  UniformRandomPattern pattern3(topo(), BandwidthSet::set3());
  EXPECT_EQ(pattern3.wavelengthDemand(2, 9), 32u);  // 512 / 16
}

TEST(UniformPattern, EqualWeights) {
  UniformRandomPattern pattern(topo(), BandwidthSet::set1());
  for (CoreId c = 0; c < 64; ++c) EXPECT_EQ(pattern.sourceWeight(c), 1.0);
}

TEST(SkewedPattern, ClusterClassesRoundRobin) {
  EXPECT_EQ(clusterAppClass(0), 0u);
  EXPECT_EQ(clusterAppClass(3), 3u);
  EXPECT_EQ(clusterAppClass(4), 0u);
  EXPECT_EQ(clusterAppClass(15), 3u);
}

TEST(SkewedPattern, DemandFollowsSourceClass) {
  SkewedPattern pattern(3, topo(), BandwidthSet::set1());
  // Cluster 3 runs the 100 Gb/s class -> 8 lambdas toward everyone.
  EXPECT_EQ(pattern.wavelengthDemand(3, 0), 8u);
  EXPECT_EQ(pattern.wavelengthDemand(3, 9), 8u);
  // Cluster 0 runs the 12.5 Gb/s class -> 1 lambda.
  EXPECT_EQ(pattern.wavelengthDemand(0, 3), 1u);
  EXPECT_EQ(pattern.wavelengthDemand(1, 3), 2u);
  EXPECT_EQ(pattern.wavelengthDemand(2, 3), 4u);
}

TEST(SkewedPattern, AggregateDemandFitsWavelengthBudget) {
  // 4 clusters per class demanding {1,2,4,8} -> 60 <= 64 for set 1; the
  // analogous sums hold for sets 2 and 3 (240 <= 256, 480 <= 512).  This is
  // the structural fact that lets the DBA satisfy skewed demand fully.
  for (int setIndex = 1; setIndex <= 3; ++setIndex) {
    const BandwidthSet set = BandwidthSet::byIndex(setIndex);
    SkewedPattern pattern(3, topo(), set);
    std::uint32_t total = 0;
    for (ClusterId c = 0; c < 16; ++c) total += pattern.wavelengthDemand(c, (c + 1) % 16);
    EXPECT_LE(total, set.totalWavelengths) << set.name;
    EXPECT_GE(total, set.totalWavelengths * 9 / 10) << set.name;
  }
}

TEST(SkewedPattern, SourceWeightsFollowTable32) {
  SkewedPattern pattern(3, topo(), BandwidthSet::set1());
  // Class-3 cluster (e.g. 3): 90% over 4 clusters over 4 cores.
  EXPECT_DOUBLE_EQ(pattern.sourceWeight(topo().coreAt(3, 0)), 0.90 / 16.0);
  EXPECT_DOUBLE_EQ(pattern.sourceWeight(topo().coreAt(0, 0)), 0.025 / 16.0);
  // Weights over all cores sum to 1.
  double sum = 0.0;
  for (CoreId c = 0; c < 64; ++c) sum += pattern.sourceWeight(c);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

/// A registry-built skewed-hotspot pattern (a HotspotOverlayPattern).
std::unique_ptr<TrafficPattern> skewedHotspot(const std::string& spec) {
  return makePattern(spec, topo(), BandwidthSet::set1());
}

double hotspotFraction(const TrafficPattern& pattern) {
  const auto* overlay = dynamic_cast<const HotspotOverlayPattern*>(&pattern);
  return overlay == nullptr ? -1.0 : overlay->fraction();
}

TEST(HotspotPattern, VariantsMatchSection342) {
  EXPECT_DOUBLE_EQ(hotspotFraction(*skewedHotspot("skewed-hotspot1")), 0.10);
  EXPECT_DOUBLE_EQ(hotspotFraction(*skewedHotspot("skewed-hotspot3")), 0.20);
  EXPECT_THROW(skewedHotspot("skewed-hotspot:variant=5"), std::invalid_argument);
}

TEST(HotspotPattern, VariantsPickTheirSkewedBase) {
  // Section 3.4.2: variants 1/2 put 10% on the hotspot, 3/4 put 20%; odd
  // variants sit over skewed2, even ones over skewed3.  Demand and bandwidth
  // class come from the base, since the overlay only redirects destinations.
  const struct {
    int variant;
    double fraction;
    int level;
  } cases[] = {{1, 0.10, 2}, {2, 0.10, 3}, {3, 0.20, 2}, {4, 0.20, 3}};
  for (const auto& c : cases) {
    const std::string name = "skewed-hotspot" + std::to_string(c.variant);
    const auto pattern = skewedHotspot(name);
    const auto* overlay = dynamic_cast<const HotspotOverlayPattern*>(pattern.get());
    ASSERT_NE(overlay, nullptr) << name;
    EXPECT_EQ(overlay->name(), name);
    EXPECT_DOUBLE_EQ(overlay->fraction(), c.fraction) << name;
    EXPECT_EQ(overlay->base().name(), "skewed" + std::to_string(c.level)) << name;

    const SkewedPattern base(c.level, topo(), BandwidthSet::set1());
    for (ClusterId src = 0; src < topo().numClusters(); ++src) {
      for (ClusterId dst = 0; dst < topo().numClusters(); ++dst) {
        if (src == dst) continue;
        EXPECT_EQ(overlay->wavelengthDemand(src, dst), base.wavelengthDemand(src, dst))
            << name << " " << src << "->" << dst;
        EXPECT_EQ(overlay->bandwidthClass(src, dst), base.bandwidthClass(src, dst))
            << name << " " << src << "->" << dst;
      }
    }
    for (CoreId core = 0; core < topo().numCores(); ++core) {
      EXPECT_DOUBLE_EQ(overlay->sourceWeight(core), base.sourceWeight(core)) << name;
    }
  }
}

TEST(HotspotPattern, HotspotReceivesItsShare) {
  const auto pattern = skewedHotspot("skewed-hotspot:variant=3,hot=0");
  sim::Rng rng(3);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    hits += (pattern->sampleDestination(20, rng) == 0) ? 1 : 0;
  }
  // 20% direct + about 1/63 of the remaining 80%.
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.20 + 0.80 / 63.0, 0.01);
}

TEST(HotspotPattern, HotspotCoreDoesNotTargetItself) {
  const auto pattern = skewedHotspot("skewed-hotspot:variant=1,hot=0");
  sim::Rng rng(4);
  for (int i = 0; i < 2000; ++i) EXPECT_NE(pattern->sampleDestination(0, rng), 0u);
}

TEST(PatternFactory, BuildsAllPaperPatterns) {
  for (const std::string name :
       {"uniform", "skewed1", "skewed2", "skewed3", "skewed-hotspot1", "skewed-hotspot2",
        "skewed-hotspot3", "skewed-hotspot4", "real-apps"}) {
    const auto pattern = makePattern(name, topo(), BandwidthSet::set1());
    ASSERT_NE(pattern, nullptr) << name;
    EXPECT_EQ(pattern->name(), name);
  }
  EXPECT_THROW(makePattern("bogus", topo(), BandwidthSet::set1()), std::invalid_argument);
  EXPECT_THROW(makePattern("skewed9", topo(), BandwidthSet::set1()), std::invalid_argument);
}

TEST(RealApplicationPattern, PlacementMatchesSection342) {
  RealApplicationPattern pattern(topo(), BandwidthSet::set1());
  const auto& apps = pattern.placements();
  ASSERT_EQ(apps.size(), 5u);
  EXPECT_EQ(apps[0].name, "MUM");
  EXPECT_EQ(apps[0].clusters.size(), 5u);  // 20 cores
  EXPECT_EQ(apps[1].name, "BFS");
  EXPECT_EQ(apps[1].clusters.size(), 1u);  // 4 cores
  EXPECT_EQ(apps[4].name, "LPS");
  EXPECT_EQ(apps[4].clusters.size(), 4u);  // 16 cores
  EXPECT_EQ(pattern.memoryClusters().size(), 4u);
  EXPECT_TRUE(pattern.isMemoryCluster(12));
  EXPECT_FALSE(pattern.isMemoryCluster(0));
}

TEST(RealApplicationPattern, BandwidthBoundAppsDemandMore) {
  RealApplicationPattern pattern(topo(), BandwidthSet::set1());
  const auto& apps = pattern.placements();
  const auto demandOf = [&](const std::string& name) -> std::uint32_t {
    for (const auto& app : apps) {
      if (app.name == name) return app.demandLambdas;
    }
    ADD_FAILURE() << "missing app " << name;
    return 0;
  };
  // BFS and MUM are the bandwidth-sensitive benchmarks (Section 3.4.2).
  EXPECT_GT(demandOf("BFS"), demandOf("CP"));
  EXPECT_GT(demandOf("BFS"), demandOf("RAY"));
  EXPECT_GT(demandOf("MUM"), demandOf("CP"));
  EXPECT_GE(pattern.memoryDemandLambdas(), demandOf("CP"));
}

TEST(RealApplicationPattern, GpuTrafficTargetsMemoryClusters) {
  RealApplicationPattern pattern(topo(), BandwidthSet::set1());
  sim::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const CoreId dst = pattern.sampleDestination(0, rng);  // core 0 runs MUM
    EXPECT_TRUE(pattern.isMemoryCluster(topo().clusterOf(dst)));
  }
  for (int i = 0; i < 2000; ++i) {
    const CoreId dst = pattern.sampleDestination(topo().coreAt(12, 0), rng);
    EXPECT_FALSE(pattern.isMemoryCluster(topo().clusterOf(dst)));
  }
}

TEST(RealApplicationPattern, RejectsNonPaperGeometry) {
  noc::ClusterTopology small(16, 4);
  EXPECT_THROW(RealApplicationPattern(small, BandwidthSet::set1()),
               std::invalid_argument);
}

}  // namespace
}  // namespace pnoc::traffic
