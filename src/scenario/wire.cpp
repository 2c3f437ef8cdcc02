#include "scenario/wire.hpp"

#include <array>
#include <stdexcept>

#include "photonic/energy_model.hpp"
#include "scenario/version.hpp"

namespace pnoc::scenario::wire {
namespace {

using photonic::EnergyCategory;

constexpr std::size_t kEnergyCategories =
    static_cast<std::size_t>(EnergyCategory::kCount);

std::string u64(std::uint64_t value) { return std::to_string(value); }

std::string latencyToJson(const metrics::LatencyHistogram& latency) {
  // Sparse bucket pairs: almost all of the 64 power-of-two buckets are empty
  // at realistic latencies, so lines stay short.
  std::string out = "{\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < metrics::LatencyHistogram::kBuckets; ++b) {
    if (latency.bucketCount(b) == 0) continue;
    if (!first) out += ",";
    first = false;
    out += '[';
    out += std::to_string(b) + "," + u64(latency.bucketCount(b)) + "]";
  }
  out += "],\"sum\":" + u64(latency.sumCycles());
  out += ",\"min\":" + u64(latency.min());
  out += ",\"max\":" + u64(latency.max()) + "}";
  return out;
}

metrics::LatencyHistogram latencyFromJson(const JsonValue& value) {
  std::array<std::uint64_t, metrics::LatencyHistogram::kBuckets> buckets{};
  for (const JsonValue& pair : value.at("buckets").items()) {
    const auto& items = pair.items();
    if (items.size() != 2) {
      throw std::invalid_argument("latency bucket is not a [bucket,count] pair");
    }
    const std::uint64_t bucket = items[0].asU64();
    if (bucket >= buckets.size()) {
      throw std::invalid_argument("latency bucket index out of range");
    }
    buckets[bucket] = items[1].asU64();
  }
  return metrics::LatencyHistogram::restore(buckets, value.at("sum").asU64(),
                                            value.at("min").asU64(),
                                            value.at("max").asU64());
}

std::string energyToJson(const photonic::EnergyLedger& ledger) {
  std::string out = "{";
  for (std::size_t c = 0; c < kEnergyCategories; ++c) {
    if (c > 0) out += ",";
    const auto category = static_cast<EnergyCategory>(c);
    out += '"';
    out += photonic::toString(category);
    out += "\":";
    out += formatDouble(ledger.of(category));
  }
  out += "}";
  return out;
}

photonic::EnergyLedger energyFromJson(const JsonValue& value) {
  photonic::EnergyLedger ledger;
  for (std::size_t c = 0; c < kEnergyCategories; ++c) {
    const auto category = static_cast<EnergyCategory>(c);
    ledger.add(category,
               value.at(std::string(photonic::toString(category))).asDouble());
  }
  return ledger;
}

std::string loadPointToJson(const metrics::LoadPoint& point) {
  return "{\"offered_load\":" + formatDouble(point.offeredLoad) +
         ",\"metrics\":" + toJson(point.metrics) + "}";
}

metrics::LoadPoint loadPointFromJson(const JsonValue& value) {
  metrics::LoadPoint point;
  point.offeredLoad = value.at("offered_load").asDouble();
  point.metrics = runMetricsFromJson(value.at("metrics"));
  return point;
}

}  // namespace

std::string opName(ScenarioJob::Op op) {
  return op == ScenarioJob::Op::kRun ? "run" : "peak";
}

ScenarioJob::Op parseOp(const std::string& name) {
  if (name == "run") return ScenarioJob::Op::kRun;
  if (name == "peak") return ScenarioJob::Op::kFindPeak;
  throw std::invalid_argument("mode must be run or peak, not '" + name + "'");
}

std::string toJson(const metrics::RunMetrics& metrics) {
  std::string out = "{";
  out += "\"measured_cycles\":" + u64(metrics.measuredCycles);
  out += ",\"measured_seconds\":" + formatDouble(metrics.measuredSeconds);
  out += ",\"packets_delivered\":" + u64(metrics.packetsDelivered);
  out += ",\"bits_delivered\":" + u64(metrics.bitsDelivered);
  out += ",\"latency_cycles_sum\":" + u64(metrics.latencyCyclesSum);
  out += ",\"latency\":" + latencyToJson(metrics.latency);
  out += ",\"packets_offered\":" + u64(metrics.packetsOffered);
  out += ",\"packets_refused\":" + u64(metrics.packetsRefused);
  out += ",\"packets_generated\":" + u64(metrics.packetsGenerated);
  out += ",\"head_retries\":" + u64(metrics.headRetries);
  out += ",\"reservations_issued\":" + u64(metrics.reservationsIssued);
  out += ",\"reservation_failures\":" + u64(metrics.reservationFailures);
  out += ",\"requests_issued\":" + u64(metrics.requestsIssued);
  out += ",\"replies_generated\":" + u64(metrics.repliesGenerated);
  out += ",\"requests_completed\":" + u64(metrics.requestsCompleted);
  out += ",\"request_latency_cycles_sum\":" + u64(metrics.requestLatencyCyclesSum);
  out += ",\"request_latency\":" + latencyToJson(metrics.requestLatency);
  out += ",\"energy\":" + energyToJson(metrics.ledger);
  out += "}";
  return out;
}

metrics::RunMetrics runMetricsFromJson(const JsonValue& value) {
  metrics::RunMetrics metrics;
  metrics.measuredCycles = value.at("measured_cycles").asU64();
  metrics.measuredSeconds = value.at("measured_seconds").asDouble();
  metrics.packetsDelivered = value.at("packets_delivered").asU64();
  metrics.bitsDelivered = value.at("bits_delivered").asU64();
  metrics.latencyCyclesSum = value.at("latency_cycles_sum").asU64();
  metrics.latency = latencyFromJson(value.at("latency"));
  metrics.packetsOffered = value.at("packets_offered").asU64();
  metrics.packetsRefused = value.at("packets_refused").asU64();
  metrics.packetsGenerated = value.at("packets_generated").asU64();
  metrics.headRetries = value.at("head_retries").asU64();
  metrics.reservationsIssued = value.at("reservations_issued").asU64();
  metrics.reservationFailures = value.at("reservation_failures").asU64();
  metrics.requestsIssued = value.at("requests_issued").asU64();
  metrics.repliesGenerated = value.at("replies_generated").asU64();
  metrics.requestsCompleted = value.at("requests_completed").asU64();
  metrics.requestLatencyCyclesSum = value.at("request_latency_cycles_sum").asU64();
  metrics.requestLatency = latencyFromJson(value.at("request_latency"));
  metrics.ledger = energyFromJson(value.at("energy"));
  return metrics;
}

metrics::RunMetrics runMetricsFromJson(const std::string& json) {
  return runMetricsFromJson(JsonValue::parse(json));
}

std::string toJson(const metrics::PeakSearchResult& search) {
  std::string out = "{\"peak\":" + loadPointToJson(search.peak) + ",\"sweep\":[";
  for (std::size_t i = 0; i < search.sweep.size(); ++i) {
    if (i > 0) out += ",";
    out += loadPointToJson(search.sweep[i]);
  }
  out += "]}";
  return out;
}

metrics::PeakSearchResult peakSearchFromJson(const JsonValue& value) {
  metrics::PeakSearchResult search;
  search.peak = loadPointFromJson(value.at("peak"));
  for (const JsonValue& point : value.at("sweep").items()) {
    search.sweep.push_back(loadPointFromJson(point));
  }
  return search;
}

metrics::PeakSearchResult peakSearchFromJson(const std::string& json) {
  return peakSearchFromJson(JsonValue::parse(json));
}

std::string streamHelloLine() {
  return "{\"pnoc_stream_hello\":" + std::to_string(kStreamProtocolVersion) +
         ",\"build\":\"" + std::string(kBuildVersion) + "\"}";
}

std::string streamAckLine() {
  return "{\"pnoc_stream_ack\":" + std::to_string(kStreamProtocolVersion) +
         ",\"build\":\"" + std::string(kBuildVersion) + "\"}";
}

bool parseStreamHello(const std::string& line, int& version) {
  // Cheap reject before parsing: anything without the key is not a hello.
  if (line.find("\"pnoc_stream_hello\"") == std::string::npos) return false;
  try {
    const JsonValue value = JsonValue::parse(line);
    const JsonValue* hello = value.find("pnoc_stream_hello");
    if (hello == nullptr) return false;
    version = static_cast<int>(hello->asU64());
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

void checkHandshake(const std::string& line, const Handshake& handshake) {
  const std::string peer = handshake.peer;
  std::uint64_t version = 0;
  const JsonValue* build = nullptr;
  JsonValue value;
  try {
    value = JsonValue::parse(line);
    version = value.at(handshake.key).asU64();
    build = value.find("build");
    if (build != nullptr) build->asString();  // a non-string stamp: no handshake
  } catch (const std::invalid_argument&) {
    throw std::runtime_error(peer + " did not acknowledge the " + handshake.protocol +
                             " (got '" + line.substr(0, 120) + "')");
  }
  if (version != static_cast<std::uint64_t>(handshake.version)) {
    throw std::runtime_error(peer + " speaks " + handshake.protocol + " version " +
                             std::to_string(version) + ", this " + handshake.self +
                             " speaks " + std::to_string(handshake.version));
  }
  // The protocol version gates the session SHAPE; the build stamp gates the
  // payload format, so a peer from another build is refused here by name.
  if (build == nullptr) {
    throw std::runtime_error(peer + " carries no build stamp — a " + peer +
                             " from an older build; " + handshake.remedy);
  }
  if (build->asString() != kBuildVersion) {
    throw std::runtime_error(peer + " build '" + build->asString() + "' does not match " +
                             handshake.self + " build '" + kBuildVersion + "' — " +
                             handshake.remedy);
  }
}

void checkStreamAck(const std::string& line) {
  checkHandshake(line, {"pnoc_stream_ack", kStreamProtocolVersion, "worker", "driver",
                        "streaming protocol", "rebuild the fleet from one tree"});
}

std::string jobLine(std::size_t index, const ScenarioJob& job) {
  return "{\"op\":\"" + opName(job.op) + "\",\"index\":" + std::to_string(index) +
         ",\"spec\":" + job.spec.toJson() + "}";
}

ScenarioJob parseJobLine(const std::string& line, std::size_t& index) {
  const JsonValue value = JsonValue::parse(line);
  index = static_cast<std::size_t>(value.at("index").asU64());
  ScenarioJob job;
  job.op = parseOp(value.at("op").asString());
  job.spec.applyJsonObject(value.at("spec"));
  return job;
}

std::string outcomeLine(std::size_t index, const ScenarioOutcome& outcome) {
  std::string out = "{\"index\":" + std::to_string(index) + ",\"op\":\"" +
                    opName(outcome.op) + "\",";
  if (outcome.op == ScenarioJob::Op::kRun) {
    out += "\"metrics\":" + toJson(outcome.metrics);
  } else {
    out += "\"search\":" + toJson(outcome.search);
  }
  out += "}";
  return out;
}

std::string errorLine(std::size_t index, const std::string& message) {
  return "{\"index\":" + std::to_string(index) + ",\"error\":\"" +
         jsonEscape(message) + "\"}";
}

WorkerReply parseReplyLine(const std::string& line) {
  const JsonValue value = JsonValue::parse(line);
  WorkerReply reply;
  reply.index = static_cast<std::size_t>(value.at("index").asU64());
  if (const JsonValue* error = value.find("error")) {
    reply.ok = false;
    reply.error = error->asString();
    return reply;
  }
  reply.ok = true;
  reply.outcome.op = parseOp(value.at("op").asString());
  if (reply.outcome.op == ScenarioJob::Op::kRun) {
    reply.outcome.metrics = runMetricsFromJson(value.at("metrics"));
  } else {
    reply.outcome.search = peakSearchFromJson(value.at("search"));
  }
  return reply;
}

}  // namespace pnoc::scenario::wire
