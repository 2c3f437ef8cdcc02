// ScenarioSpec binding-table tests: the key=value (spec-file) and JSON forms
// must round-trip byte-identically (they are the scenario interchange format
// for sweeps, sharding and replay), unknown keys and malformed values must
// fail loudly, and the generated help must cover every binding.
#include "scenario/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "scenario/execution_backend.hpp"
#include "scenario/spec_file.hpp"

namespace pnoc::scenario {
namespace {

/// "key=value" per field, one per line, in canonical field order.
std::string keyValueText(const ScenarioSpec& spec) {
  std::string out;
  for (const ScenarioField& field : ScenarioSpec::fields()) {
    out += field.key + "=" + field.format(spec) + "\n";
  }
  return out;
}

/// One spec read through the production key=value reader.
ScenarioSpec readKeyValueSpec(const std::string& text) {
  const std::vector<ScenarioSpec> specs = parseSpecFileText(text, {}, "<test>");
  EXPECT_EQ(specs.size(), 1u);
  return specs.at(0);
}

ScenarioSpec nonDefaultSpec() {
  ScenarioSpec spec;
  spec.set("arch", "firefly");
  spec.set("set", "2");
  spec.set("pattern", "hotspot:frac=0.3,hot=5");
  spec.set("load", "0.00125");
  spec.set("seed", "987654321");
  spec.set("warmup", "123");
  spec.set("measure", "4567");
  spec.set("reserved", "2");
  spec.set("gating", "false");
  spec.set("queue", "4");
  spec.set("workload", "closed:window=4,think=0");
  spec.set("label", "round trip \"quoted\" label");
  return spec;
}

TEST(ScenarioSpec, SetWritesThroughToParameters) {
  const ScenarioSpec spec = nonDefaultSpec();
  EXPECT_EQ(spec.params.architecture, network::Architecture::kFirefly);
  EXPECT_EQ(spec.params.bandwidthSet.totalWavelengths, 256u);
  EXPECT_EQ(spec.params.pattern, "hotspot:frac=0.3,hot=5");
  EXPECT_DOUBLE_EQ(spec.params.offeredLoad, 0.00125);
  EXPECT_EQ(spec.params.seed, 987654321u);
  EXPECT_EQ(spec.params.warmupCycles, 123u);
  EXPECT_EQ(spec.params.measureCycles, 4567u);
  EXPECT_EQ(spec.params.reservedPerCluster, 2u);
  EXPECT_FALSE(spec.params.activityGating);
  EXPECT_EQ(spec.params.injectionQueuePackets, 4u);
  EXPECT_EQ(spec.params.workload, "closed:window=4,think=0");
}

TEST(ScenarioSpec, KeyValueRoundTripIsByteIdentical) {
  const ScenarioSpec spec = nonDefaultSpec();
  const std::string text = keyValueText(spec);
  const ScenarioSpec back = readKeyValueSpec(text);
  EXPECT_EQ(text, keyValueText(back));
  EXPECT_EQ(back.toJson(), spec.toJson());
}

TEST(ScenarioSpec, JsonRoundTripIsByteIdentical) {
  const ScenarioSpec spec = nonDefaultSpec();
  const std::string json = spec.toJson();
  const ScenarioSpec back = ScenarioSpec::fromJson(json);
  EXPECT_EQ(json, back.toJson());
  // And the two forms describe the same spec.
  EXPECT_EQ(keyValueText(back), keyValueText(spec));
}

TEST(ScenarioSpec, DefaultsRoundTripToo) {
  const ScenarioSpec spec;
  EXPECT_EQ(ScenarioSpec::fromJson(spec.toJson()).toJson(), spec.toJson());
  EXPECT_EQ(keyValueText(readKeyValueSpec(keyValueText(spec))), keyValueText(spec));
}

TEST(ScenarioSpec, UnknownKeyIsRejected) {
  ScenarioSpec spec;
  EXPECT_THROW(spec.set("wavelenghts", "64"), std::invalid_argument);  // typo
  EXPECT_THROW(readKeyValueSpec("bogus=1\n"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::fromJson(R"({"bogus":1})"), std::invalid_argument);
}

TEST(ScenarioSpec, RemovedArbiterKeyIsRefused) {
  // There is one arbiter, so `arbiter` is no scenario key.  A spec written
  // while it was one (a journal entry, a checkpoint's spec) is refused by
  // name rather than run with the key dropped.
  ScenarioSpec spec;
  EXPECT_THROW(spec.set("arbiter", "matrix"), std::invalid_argument);
  EXPECT_THROW(readKeyValueSpec("arbiter=round-robin\n"), std::invalid_argument);

  std::string json = ScenarioSpec{}.toJson();
  ASSERT_EQ(json.find("arbiter"), std::string::npos) << json;
  ASSERT_EQ(json.front(), '{');
  json.insert(1, "\"arbiter\":\"round-robin\",");
  try {
    ScenarioSpec::fromJson(json);
    FAIL() << "expected std::invalid_argument for " << json;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("unknown scenario key 'arbiter'"),
              std::string::npos)
        << error.what();
  }
}

TEST(ScenarioSpec, MalformedValuesAreRejected) {
  ScenarioSpec spec;
  EXPECT_THROW(spec.set("load", "fast"), std::invalid_argument);
  EXPECT_THROW(spec.set("seed", "-3"), std::invalid_argument);
  EXPECT_THROW(spec.set("seed", " -3"), std::invalid_argument);  // stoull would wrap
  EXPECT_THROW(spec.set("seed", "+3"), std::invalid_argument);
  EXPECT_THROW(spec.set("seed", "12x"), std::invalid_argument);
  EXPECT_THROW(spec.set("arch", "fireflyy"), std::invalid_argument);
  EXPECT_THROW(spec.set("set", "4"), std::invalid_argument);
  EXPECT_THROW(spec.set("gating", "maybe"), std::invalid_argument);
}

TEST(ScenarioSpec, BoolKeysTakeTheSharedSpellings) {
  // Scenario keys read values with the same grammar as every other key.
  ScenarioSpec spec;
  spec.set("gating", "TRUE");
  EXPECT_TRUE(spec.params.activityGating);
  spec.set("gating", "Off");
  EXPECT_FALSE(spec.params.activityGating);
  spec.set("profile", "yes");
  EXPECT_TRUE(spec.params.profile);
  EXPECT_EQ(spec.get("gating"), "false");  // the canonical form is unchanged
}

TEST(ScenarioSpec, HelpListsEveryBindingKey) {
  const ScenarioSpec defaults;
  const std::string help = ScenarioSpec::helpText(defaults);
  for (const ScenarioField& field : ScenarioSpec::fields()) {
    EXPECT_NE(help.find("  " + field.key + "="), std::string::npos)
        << "help is missing key '" << field.key << "'";
  }
}

TEST(ScenarioSpec, ApplyOverridesConsumesOnlyBindingKeys) {
  sim::Config config;
  config.set("pattern", "skewed:level=2");
  config.set("load", "0.004");
  config.set("minMs", "50");  // binary-specific key, not a binding
  ScenarioSpec spec;
  spec.applyOverrides(config);
  EXPECT_EQ(spec.params.pattern, "skewed:level=2");
  EXPECT_DOUBLE_EQ(spec.params.offeredLoad, 0.004);
  const auto leftover = config.unconsumedKeys();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "minMs");
}

TEST(ScenarioSpec, BandwidthSetIndexRecognizesStandardSets) {
  EXPECT_EQ(bandwidthSetIndex(traffic::BandwidthSet::set1()), 1);
  EXPECT_EQ(bandwidthSetIndex(traffic::BandwidthSet::set2()), 2);
  EXPECT_EQ(bandwidthSetIndex(traffic::BandwidthSet::set3()), 3);
  traffic::BandwidthSet custom = traffic::BandwidthSet::set1();
  custom.totalWavelengths = 128;
  EXPECT_FALSE(bandwidthSetIndex(custom).has_value());
  ScenarioSpec spec;
  spec.params.bandwidthSet = custom;
  EXPECT_THROW(spec.get("set"), std::invalid_argument);
}

TEST(ScenarioSpec, ParamsBuildAndRunThroughTheNetwork) {
  // A spec is a complete run description: the default spec must validate.
  ScenarioSpec spec;
  EXPECT_NO_THROW(spec.params.validate());
}

TEST(ScenarioSpec, ParamsRejectZeroLinkLatencyBeforeBuildingANetwork) {
  // link_latency is a user key and parses as any u32, but a zero-latency
  // link could never accept a flit: validation must refuse the spec before
  // runScenario builds a network from it.
  const ScenarioSpec spec =
      readKeyValueSpec("link_latency=0\nwarmup=100\nmeasure=500\n");
  EXPECT_EQ(spec.params.intraClusterLinkLatency, 0u);
  EXPECT_THROW(spec.params.validate(), std::invalid_argument);
  EXPECT_THROW(runScenario(spec), std::invalid_argument);
}

}  // namespace
}  // namespace pnoc::scenario
