// Pattern family-table tests: spec grammar, aliases, option and value
// rejection, and a golden table pinning wavelengthDemand / bandwidthClass
// for every built-in family (so a refactor that shifts any demand table is
// caught, and a new family must extend the golden table here).
#include "traffic/registry.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "traffic/synthetic.hpp"

namespace pnoc::traffic {
namespace {

const noc::ClusterTopology& topo() {
  static noc::ClusterTopology topology;  // 64 cores / 16 clusters
  return topology;
}

/// The message makePattern(spec) throws, or "(no exception)".
std::string errorOf(const std::string& spec) {
  try {
    makePattern(spec, topo(), BandwidthSet::set1());
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "(no exception)";
}

TEST(PatternSpecGrammar, ParsesFamilyAndOptions) {
  const auto bare = parsePatternSpec("uniform");
  EXPECT_EQ(bare.family, "uniform");
  EXPECT_TRUE(bare.options.unconsumedKeys().empty());

  const auto parameterized = parsePatternSpec("hotspot:frac=0.3,hot=5");
  EXPECT_EQ(parameterized.family, "hotspot");
  EXPECT_DOUBLE_EQ(parameterized.options.getDouble("frac", 0.0), 0.3);
  EXPECT_EQ(parameterized.options.getU32("hot", 0), 5u);
}

TEST(PatternSpecGrammar, RejectsMalformedSpecs) {
  EXPECT_THROW(parsePatternSpec(""), std::invalid_argument);
  EXPECT_THROW(parsePatternSpec("hotspot:"), std::invalid_argument);
  EXPECT_THROW(parsePatternSpec("hotspot:frac"), std::invalid_argument);
  EXPECT_THROW(parsePatternSpec("hotspot:=0.3"), std::invalid_argument);
  EXPECT_THROW(parsePatternSpec("hotspot:frac=0.3,,hot=1"), std::invalid_argument);
}

TEST(PatternSpecGrammar, EveryCommaSplitsAndTheFirstEqualsSeparates) {
  // No grouping: a value is the text between its first '=' and the next
  // comma, so a trace path may hold '=' but not ','.
  const auto parsed = parsePatternSpec("trace:path=runs/seed=3.ndjson");
  EXPECT_EQ(parsed.family, "trace");
  EXPECT_EQ(parsed.options.getString("path", ""), "runs/seed=3.ndjson");

  const auto split = parsePatternSpec("hotspot:frac=(0.3,hot=5)");
  EXPECT_EQ(split.options.getString("frac", ""), "(0.3");
  EXPECT_EQ(split.options.getString("hot", ""), "5)");

  EXPECT_THROW(parsePatternSpec("hotspot:frac=0.3,"), std::invalid_argument);
  EXPECT_THROW(parsePatternSpec("hotspot:,frac=0.3"), std::invalid_argument);
}

TEST(PatternRegistry, BuiltinFamiliesAreRegistered) {
  std::set<std::string> names;
  for (const PatternFamily& family : patternFamilies()) names.emplace(family.name);
  // The exact set: a family stays only while a paper grid, a perfbench
  // workload, a CI smoke or an oracle test runs it, so adding one back is a
  // deliberate edit here.
  EXPECT_EQ(names, (std::set<std::string>{"hotspot", "real-apps", "skewed",
                                          "skewed-hotspot", "uniform"}));
}

TEST(PatternRegistry, LegacyAliasesStillBuildThePaperPatterns) {
  for (const std::string name :
       {"uniform", "skewed1", "skewed2", "skewed3", "skewed-hotspot1", "skewed-hotspot2",
        "skewed-hotspot3", "skewed-hotspot4", "real-apps"}) {
    const auto pattern = makePattern(name, topo(), BandwidthSet::set1());
    ASSERT_NE(pattern, nullptr) << name;
    EXPECT_EQ(pattern->name(), name);
  }
}

TEST(PatternRegistry, UnknownFamilyAndUnknownOptionAreRejected) {
  EXPECT_THROW(makePattern("bogus", topo(), BandwidthSet::set1()),
               std::invalid_argument);
  EXPECT_THROW(makePattern("skewed9", topo(), BandwidthSet::set1()),
               std::invalid_argument);
  // Known family, typo'd option: must fail loudly, not silently default.
  EXPECT_THROW(makePattern("hotspot:fraction=0.3", topo(), BandwidthSet::set1()),
               std::invalid_argument);
  EXPECT_THROW(makePattern("skewed:level=9", topo(), BandwidthSet::set1()),
               std::invalid_argument);
  EXPECT_THROW(makePattern("hotspot:frac=1.5", topo(), BandwidthSet::set1()),
               std::invalid_argument);
  EXPECT_THROW(makePattern("hotspot:frac=-0.1", topo(), BandwidthSet::set1()),
               std::invalid_argument);
}

TEST(PatternRegistry, ParameterizedHotspotSpecWorks) {
  const auto pattern =
      makePattern("hotspot:frac=0.3,hot=5", topo(), BandwidthSet::set1());
  const auto* overlay = dynamic_cast<const HotspotOverlayPattern*>(pattern.get());
  ASSERT_NE(overlay, nullptr);
  EXPECT_DOUBLE_EQ(overlay->fraction(), 0.3);
  EXPECT_EQ(overlay->hotspotCore(), 5u);
  EXPECT_EQ(overlay->base().name(), "uniform");

  // The hotspot core receives ~frac of draws plus its base share.
  sim::Rng rng(3);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    hits += (pattern->sampleDestination(20, rng) == 5) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.30 + 0.70 / 63.0, 0.01);
}

TEST(PatternRegistry, HotspotFamilyOverlaysUniformTraffic) {
  // Off the hotspot, `hotspot` is the uniform pattern: same source weights,
  // demands and classes on every pair, and a name that carries its options.
  const auto set = BandwidthSet::set1();
  const auto hotspot = makePattern("hotspot:frac=0.3,hot=5", topo(), set);
  const auto uniform = makePattern("uniform", topo(), set);
  EXPECT_EQ(hotspot->name(), "hotspot:frac=0.3,hot=5");
  for (CoreId core = 0; core < topo().numCores(); ++core) {
    EXPECT_EQ(hotspot->sourceWeight(core), uniform->sourceWeight(core)) << core;
  }
  for (ClusterId src = 0; src < topo().numClusters(); ++src) {
    for (ClusterId dst = 0; dst < topo().numClusters(); ++dst) {
      if (src == dst) continue;
      EXPECT_EQ(hotspot->wavelengthDemand(src, dst), uniform->wavelengthDemand(src, dst));
      EXPECT_EQ(hotspot->bandwidthClass(src, dst), uniform->bandwidthClass(src, dst));
    }
  }
}

TEST(PatternRegistry, SkewedHotspotRejectsOutOfRangeCoreAndVariant) {
  // 64 cores: core 64 does not exist, and there are only four variants.
  EXPECT_THROW(makePattern("skewed-hotspot:hot=64", topo(), BandwidthSet::set1()),
               std::invalid_argument);
  EXPECT_THROW(makePattern("skewed-hotspot:variant=5", topo(), BandwidthSet::set1()),
               std::invalid_argument);
  EXPECT_THROW(makePattern("skewed-hotspot:variant=0", topo(), BandwidthSet::set1()),
               std::invalid_argument);
  EXPECT_NO_THROW(makePattern("skewed-hotspot:hot=63", topo(), BandwidthSet::set1()));
}

TEST(PatternRegistry, OutOfRangeHotspotCoreIsNamedInTheError) {
  // The overlay's range check is the same in every build type, and its
  // message names the pattern, the core and the core count.
  EXPECT_EQ(errorOf("skewed-hotspot:variant=2,hot=100"),
            "skewed-hotspot2: hotspot core 100 out of range for 64 cores");
  EXPECT_EQ(errorOf("hotspot:frac=0.3,hot=64"),
            "hotspot:frac=0.3,hot=64: hotspot core 64 out of range for 64 cores");
}

TEST(PatternRegistry, RemovedFamiliesAndTheBaseOptionAreRefused) {
  // The fixed-target permutations, the CSV matrix replay and hotspot's
  // nested base spec are gone: each is an unknown family or option now.
  for (const std::string family :
       {"transpose", "tornado", "bitcomp", "permutation", "matrix"}) {
    EXPECT_EQ(errorOf(family).rfind("unknown traffic pattern: '" + family + "'", 0), 0u)
        << errorOf(family);
  }
  EXPECT_EQ(errorOf("hotspot:base=uniform"),
            "traffic pattern 'hotspot' does not take option 'base'");
}

TEST(PatternRegistry, OutOfRangeValuesAreRefusedNamingTheOption) {
  // Values past an option's width were once wrapped: hot=4294967299 ran as
  // hot=3.
  EXPECT_EQ(errorOf("skewed-hotspot:variant=4294967297"),
            "option 'variant': '4294967297' does not fit in 32 bits");
  EXPECT_EQ(errorOf("hotspot:frac=0.3,hot=4294967299"),
            "option 'hot': '4294967299' does not fit in 32 bits");
  EXPECT_EQ(errorOf("skewed:level=-1"), "option 'level': '-1' is not an unsigned integer");
  EXPECT_EQ(errorOf("skewed-hotspot:hot=-1"),
            "option 'hot': '-1' is not an unsigned integer");
}

TEST(PatternRegistry, OptionTyposSuggestAKeyTheFamilyReads) {
  EXPECT_EQ(errorOf("hotspot:fracc=0.3"),
            "traffic pattern 'hotspot' does not take option 'fracc'; did you mean 'frac'?");
  EXPECT_EQ(errorOf("skewed3:level=1"),
            "unknown traffic pattern: 'skewed3'; did you mean 'skewed'?");
  EXPECT_EQ(errorOf("uniformm"), "unknown traffic pattern: 'uniformm'; did you mean 'uniform'?");
}

TEST(PatternRegistry, HelpTextListsEveryFamily) {
  const std::string help = patternHelpText();
  for (const PatternFamily& family : patternFamilies()) {
    EXPECT_NE(help.find(family.name), std::string::npos) << family.name;
  }
  EXPECT_NE(help.find("skewed3=skewed:level=3"), std::string::npos);
}

// --- golden demand/class table ----------------------------------------------
//
// For every built-in family (default options, BW set 1, 64 cores / 16
// clusters): pin wavelengthDemand and bandwidthClass on representative
// (src, dst) cluster pairs.  Values were derived from the pattern
// definitions; see each family's header for the underlying rule.

struct GoldenEntry {
  ClusterId src;
  ClusterId dst;
  std::uint32_t demand;
  std::uint32_t bandwidthClass;
};

TEST(PatternRegistryGolden, DemandsAndClassesArePinnedForEveryFamily) {
  const auto set = BandwidthSet::set1();

  const std::map<std::string, std::vector<GoldenEntry>> golden = {
      // Even split: 64/16 = 4 lambdas everywhere; 4 lambdas = the 50 Gb/s
      // class (index 2).
      {"uniform", {{0, 1, 4, 2}, {3, 9, 4, 2}, {15, 0, 4, 2}}},
      // Cluster class = cluster % 4 -> demands {1,2,4,8}, class = own class.
      {"skewed", {{0, 1, 1, 0}, {1, 0, 2, 1}, {2, 0, 4, 2}, {3, 0, 8, 3}}},
      // Hotspot overlays keep the base skewed demands (extra load, not extra
      // provisioned bandwidth).
      {"skewed-hotspot", {{0, 1, 1, 0}, {1, 0, 2, 1}, {2, 0, 4, 2}, {3, 0, 8, 3}}},
      {"hotspot", {{0, 1, 4, 2}, {3, 9, 4, 2}}},  // over uniform
      // GPU clusters address memory clusters with the uniform even split in
      // the demand tables (profiled bandwidth shapes the placements).
      {"real-apps", {{0, 1, 4, 2}, {3, 12, 4, 2}}},
  };

  std::set<std::string> covered;
  for (const auto& [family, entries] : golden) {
    const auto pattern = makePattern(family, topo(), set);
    ASSERT_NE(pattern, nullptr) << family;
    for (const GoldenEntry& entry : entries) {
      EXPECT_EQ(pattern->wavelengthDemand(entry.src, entry.dst), entry.demand)
          << family << " demand(" << entry.src << "," << entry.dst << ")";
      EXPECT_EQ(pattern->bandwidthClass(entry.src, entry.dst), entry.bandwidthClass)
          << family << " class(" << entry.src << "," << entry.dst << ")";
    }
    covered.insert(family);
  }

  // Every built-in must appear in the golden table.  Extending the family
  // table means extending this table.
  for (const PatternFamily& family : patternFamilies()) {
    EXPECT_TRUE(covered.count(std::string(family.name)) == 1)
        << "family '" << family.name << "' has no golden demand entries";
  }
}

TEST(SyntheticPatterns, GeometryViolationsThrow) {
  // The hotspot core is checked against the topology the pattern is built
  // for, not against the default 64 cores.
  const noc::ClusterTopology small(32, 4);
  const BandwidthSet set = BandwidthSet::set1();
  EXPECT_NO_THROW(makePattern("hotspot:hot=31", small, set));
  EXPECT_THROW(makePattern("hotspot:hot=32", small, set), std::invalid_argument);
  EXPECT_THROW(makePattern("skewed-hotspot:variant=3,hot=32", small, set),
               std::invalid_argument);
  EXPECT_NO_THROW(makePattern("hotspot:hot=32", topo(), set));
}

}  // namespace
}  // namespace pnoc::traffic
