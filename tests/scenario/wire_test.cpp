// Wire-format tests: RunMetrics, PeakSearchResult and the scenario results
// must round-trip through JSON byte-identically — that exactness is the
// foundation of every dispatch path's bit-identical-merge guarantee (a metric
// that crossed a process boundary must be indistinguishable from one
// computed in-process).
#include "scenario/wire.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "scenario/json_util.hpp"

namespace pnoc::scenario {
namespace {

metrics::RunMetrics syntheticMetrics() {
  metrics::RunMetrics m;
  m.measuredCycles = 123456;
  m.measuredSeconds = 123456 / 2.5e9;  // not exactly representable: the
                                       // shortest-round-trip formatter must
                                       // preserve it bit for bit
  m.packetsDelivered = 987;
  m.bitsDelivered = 987 * 4096;
  m.latencyCyclesSum = 54321;
  m.latency.record(3);
  m.latency.record(17);
  m.latency.record(17);
  m.latency.record(900);
  m.packetsOffered = 1000;
  m.packetsRefused = 13;
  m.packetsGenerated = 1013;
  m.headRetries = 7;
  m.reservationsIssued = 450;
  m.reservationFailures = 21;
  m.ledger.add(photonic::EnergyCategory::kLaunch, 0.123456789);
  m.ledger.add(photonic::EnergyCategory::kModulation, 1.0 / 3.0);
  m.ledger.add(photonic::EnergyCategory::kTuning, 2.4);
  m.ledger.add(photonic::EnergyCategory::kPhotonicBuffer, 0.078125);
  m.ledger.add(photonic::EnergyCategory::kElectricalRouter, 625.625);
  m.ledger.add(photonic::EnergyCategory::kElectricalLink, 1e-7);
  return m;
}

metrics::PeakSearchResult syntheticSearch() {
  metrics::PeakSearchResult search;
  double load = 0.0002;
  for (int i = 0; i < 3; ++i) {
    metrics::LoadPoint point;
    point.offeredLoad = load;
    point.metrics = syntheticMetrics();
    point.metrics.packetsDelivered += static_cast<std::uint64_t>(i);
    search.sweep.push_back(point);
    load *= 1.5;
  }
  search.peak = search.sweep[1];
  return search;
}

TEST(Wire, RunMetricsRoundTripIsByteIdentical) {
  const metrics::RunMetrics original = syntheticMetrics();
  const std::string json = wire::toJson(original);
  const metrics::RunMetrics back = wire::runMetricsFromJson(json);
  EXPECT_EQ(wire::toJson(back), json);
}

TEST(Wire, RunMetricsRoundTripPreservesEveryField) {
  const metrics::RunMetrics original = syntheticMetrics();
  const metrics::RunMetrics back = wire::runMetricsFromJson(wire::toJson(original));
  EXPECT_EQ(back.measuredCycles, original.measuredCycles);
  EXPECT_EQ(back.measuredSeconds, original.measuredSeconds);  // bit-exact
  EXPECT_EQ(back.packetsDelivered, original.packetsDelivered);
  EXPECT_EQ(back.bitsDelivered, original.bitsDelivered);
  EXPECT_EQ(back.latencyCyclesSum, original.latencyCyclesSum);
  EXPECT_EQ(back.latency.count(), original.latency.count());
  EXPECT_EQ(back.latency.min(), original.latency.min());
  EXPECT_EQ(back.latency.max(), original.latency.max());
  EXPECT_EQ(back.latency.sumCycles(), original.latency.sumCycles());
  EXPECT_DOUBLE_EQ(back.latency.quantile(0.99), original.latency.quantile(0.99));
  EXPECT_EQ(back.packetsOffered, original.packetsOffered);
  EXPECT_EQ(back.packetsRefused, original.packetsRefused);
  EXPECT_EQ(back.packetsGenerated, original.packetsGenerated);
  EXPECT_EQ(back.headRetries, original.headRetries);
  EXPECT_EQ(back.reservationsIssued, original.reservationsIssued);
  EXPECT_EQ(back.reservationFailures, original.reservationFailures);
  EXPECT_EQ(back.ledger.total(), original.ledger.total());  // bit-exact
  EXPECT_EQ(back.ledger.of(photonic::EnergyCategory::kElectricalLink),
            original.ledger.of(photonic::EnergyCategory::kElectricalLink));
  // Derived quantities (what BENCH records publish) follow exactly.
  EXPECT_EQ(back.deliveredGbps(), original.deliveredGbps());
  EXPECT_EQ(back.energyPerPacketPj(), original.energyPerPacketPj());
}

TEST(Wire, EmptyRunMetricsRoundTrip) {
  const metrics::RunMetrics original;  // all zero, empty histogram
  const std::string json = wire::toJson(original);
  const metrics::RunMetrics back = wire::runMetricsFromJson(json);
  EXPECT_EQ(wire::toJson(back), json);
  EXPECT_EQ(back.latency.count(), 0u);
  EXPECT_EQ(back.latency.min(), 0u);  // empty-histogram sentinel restored
}

TEST(Wire, PeakSearchResultRoundTripIsByteIdentical) {
  const metrics::PeakSearchResult original = syntheticSearch();
  const std::string json = wire::toJson(original);
  const metrics::PeakSearchResult back = wire::peakSearchFromJson(json);
  EXPECT_EQ(wire::toJson(back), json);
  ASSERT_EQ(back.sweep.size(), original.sweep.size());
  EXPECT_EQ(back.peak.offeredLoad, original.peak.offeredLoad);
}

TEST(Wire, JobAndReplyLinesRoundTrip) {
  ScenarioJob job;
  job.op = ScenarioJob::Op::kFindPeak;
  job.spec.set("pattern", "hotspot:frac=0.3,hot=5");
  const std::string line = wire::jobLine(42, job);
  std::size_t index = 0;
  const ScenarioJob back = wire::parseJobLine(line, index);
  EXPECT_EQ(index, 42u);
  EXPECT_EQ(back.op, ScenarioJob::Op::kFindPeak);
  EXPECT_EQ(back.spec.toJson(), job.spec.toJson());

  ScenarioOutcome outcome;
  outcome.op = ScenarioJob::Op::kRun;
  outcome.metrics = syntheticMetrics();
  const wire::WorkerReply reply = wire::parseReplyLine(wire::outcomeLine(7, outcome));
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.index, 7u);
  EXPECT_EQ(wire::toJson(reply.outcome.metrics), wire::toJson(outcome.metrics));

  const wire::WorkerReply error =
      wire::parseReplyLine(wire::errorLine(3, "network \"exploded\"\nbadly"));
  EXPECT_FALSE(error.ok);
  EXPECT_EQ(error.index, 3u);
  EXPECT_EQ(error.error, "network \"exploded\"\nbadly");
}

TEST(JsonString, DecodesUnicodeEscapesToUtf8) {
  // BMP code points: 1-, 2- and 3-byte UTF-8, upper- and lower-case hex.
  EXPECT_EQ(JsonValue::parse("\"\\u0041\"").asString(), "A");
  EXPECT_EQ(JsonValue::parse("\"\\u00E9\"").asString(), "\xC3\xA9");    // é
  EXPECT_EQ(JsonValue::parse("\"\\u20ac\"").asString(), "\xE2\x82\xAC");  // €
  // Supplementary plane via a surrogate pair: U+1F600.
  EXPECT_EQ(JsonValue::parse("\"\\uD83D\\uDE00\"").asString(),
            "\xF0\x9F\x98\x80");
  // Escapes compose with surrounding literal text.
  EXPECT_EQ(JsonValue::parse("\"a\\u0009b\"").asString(), "a\tb");
}

TEST(JsonString, RejectsMalformedUnicodeEscapes) {
  EXPECT_THROW(JsonValue::parse("\"\\u12\""), std::invalid_argument);    // short
  EXPECT_THROW(JsonValue::parse("\"\\u12g4\""), std::invalid_argument);  // bad hex
  EXPECT_THROW(JsonValue::parse("\"\\uD83D\""), std::invalid_argument);  // lone high
  EXPECT_THROW(JsonValue::parse("\"\\uD83Dx\""), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("\"\\uD83D\\u0041\""),
               std::invalid_argument);  // high + non-surrogate
  EXPECT_THROW(JsonValue::parse("\"\\uDE00\""), std::invalid_argument);  // lone low
}

TEST(JsonString, EscapeRoundTripIsByteIdentical) {
  // Every byte a metrics label or error message can carry must survive
  // escape -> parse unchanged, including control characters (which JSON
  // forbids raw) and multi-byte UTF-8 (which passes through verbatim).
  std::string raw;
  for (int b = 1; b < 0x20; ++b) raw += static_cast<char>(b);
  raw += "plain \"quoted\" back\\slash ";
  raw += "\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80";  // é € 😀 as UTF-8
  const std::string wire = "\"" + jsonEscape(raw) + "\"";
  EXPECT_EQ(JsonValue::parse(wire).asString(), raw);
}

TEST(JsonString, NestingDepthIsBounded) {
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  // 64 levels is the limit and parses, for arrays and objects alike.
  EXPECT_EQ(JsonValue::parse(arrays(64)).kind(), JsonValue::Kind::kArray);
  std::string objects = "1";
  for (int i = 0; i < 64; ++i) objects = "{\"k\":" + objects + "}";
  EXPECT_EQ(JsonValue::parse(objects).kind(), JsonValue::Kind::kObject);
  // One level deeper throws, naming the offset of the offending bracket.
  try {
    JsonValue::parse(arrays(65));
    FAIL() << "65 levels must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("at offset 64"), std::string::npos)
        << error.what();
  }
  EXPECT_THROW(JsonValue::parse("{\"k\":" + objects + "}"), std::invalid_argument);
  // A hostile line far past the limit is an error, not a stack overflow.
  EXPECT_THROW(JsonValue::parse(arrays(100000)), std::invalid_argument);
}

TEST(Wire, MalformedInputIsRejected) {
  EXPECT_THROW(wire::runMetricsFromJson("{\"measured_cycles\":1}"),
               std::invalid_argument);  // missing fields
  EXPECT_THROW(wire::runMetricsFromJson("not json"), std::invalid_argument);
  std::size_t index = 0;
  EXPECT_THROW(wire::parseJobLine("{\"op\":\"walk\",\"index\":0,\"spec\":{}}", index),
               std::invalid_argument);  // bad op
  EXPECT_THROW(wire::parseReplyLine("{\"index\":0,\"op\":\"run\"}"),
               std::invalid_argument);  // reply without payload
}

}  // namespace
}  // namespace pnoc::scenario
