#include "scenario/scenario_spec.hpp"

#include <stdexcept>

#include "noc/topology.hpp"
#include "scenario/json_util.hpp"
#include "sim/suggest.hpp"
#include "traffic/pattern.hpp"
#include "workload/registry.hpp"

namespace pnoc::scenario {
namespace {

using sim::parseBool;
using sim::parseDouble;
using sim::parseU32;
using sim::parseU64;

network::Architecture parseArchitecture(const std::string& value) {
  if (value == "firefly") return network::Architecture::kFirefly;
  if (value == "dhetpnoc") return network::Architecture::kDhetpnoc;
  throw std::invalid_argument("'" + value + "' is not an architecture (firefly | dhetpnoc)");
}

std::string formatArchitecture(network::Architecture arch) {
  return arch == network::Architecture::kFirefly ? "firefly" : "dhetpnoc";
}

/// A field whose storage is an unsigned 32-bit member of the params.
ScenarioField u32Field(std::string key, std::string doc,
                       std::uint32_t network::SimulationParameters::* member) {
  return ScenarioField{
      std::move(key), std::move(doc),
      [member](ScenarioSpec& spec, const std::string& value) {
        spec.params.*member = parseU32(value);
      },
      [member](const ScenarioSpec& spec) {
        return std::to_string(spec.params.*member);
      },
      false};
}

ScenarioField cycleField(std::string key, std::string doc,
                         Cycle network::SimulationParameters::* member) {
  return ScenarioField{
      std::move(key), std::move(doc),
      [member](ScenarioSpec& spec, const std::string& value) {
        spec.params.*member = parseU64(value);
      },
      [member](const ScenarioSpec& spec) {
        return std::to_string(spec.params.*member);
      },
      false};
}

std::vector<ScenarioField> makeFields() {
  std::vector<ScenarioField> fields;

  fields.push_back(ScenarioField{
      "arch", "architecture under test: firefly | dhetpnoc",
      [](ScenarioSpec& spec, const std::string& value) {
        spec.params.architecture = parseArchitecture(value);
      },
      [](const ScenarioSpec& spec) {
        return formatArchitecture(spec.params.architecture);
      },
      true});

  fields.push_back(ScenarioField{
      "set", "bandwidth set index (Table 3-1): 1 | 2 | 3",
      [](ScenarioSpec& spec, const std::string& value) {
        spec.params.bandwidthSet =
            traffic::BandwidthSet::byIndex(static_cast<int>(parseU32(value)));
      },
      [](const ScenarioSpec& spec) {
        const auto index = bandwidthSetIndex(spec.params.bandwidthSet);
        if (!index) {
          throw std::invalid_argument(
              "custom bandwidth sets cannot be serialized through 'set'");
        }
        return std::to_string(*index);
      },
      false});

  fields.push_back(ScenarioField{
      "pattern", "traffic pattern spec, e.g. uniform | skewed3 | hotspot:frac=0.3,hot=5",
      [](ScenarioSpec& spec, const std::string& value) { spec.params.pattern = value; },
      [](const ScenarioSpec& spec) { return spec.params.pattern; },
      true});

  fields.push_back(ScenarioField{
      "workload",
      "workload model spec: open | closed:window=4,think=0 | chain:... | "
      "trace:file=PATH (closed loops ignore load=)",
      [](ScenarioSpec& spec, const std::string& value) { spec.params.workload = value; },
      [](const ScenarioSpec& spec) { return spec.params.workload; },
      true});

  fields.push_back(ScenarioField{
      "trace_out",
      "record every injected packet and write an NDJSON trace here "
      "(replay with workload=trace:file=...)",
      [](ScenarioSpec& spec, const std::string& value) { spec.params.traceOut = value; },
      [](const ScenarioSpec& spec) { return spec.params.traceOut; },
      true});

  fields.push_back(ScenarioField{
      "load", "offered load in packets per core per cycle",
      [](ScenarioSpec& spec, const std::string& value) {
        spec.params.offeredLoad = parseDouble(value);
      },
      [](const ScenarioSpec& spec) { return formatDouble(spec.params.offeredLoad); },
      false});

  fields.push_back(ScenarioField{
      "seed", "RNG seed; same seed + same spec = bit-identical run",
      [](ScenarioSpec& spec, const std::string& value) {
        spec.params.seed = parseU64(value);
      },
      [](const ScenarioSpec& spec) { return std::to_string(spec.params.seed); },
      false});

  fields.push_back(cycleField("warmup", "warmup cycles before the measurement window",
                              &network::SimulationParameters::warmupCycles));
  fields.push_back(cycleField("measure", "measurement window length in cycles",
                              &network::SimulationParameters::measureCycles));
  fields.push_back(u32Field("cores", "total processing cores",
                            &network::SimulationParameters::numCores));
  fields.push_back(u32Field("cluster_size", "cores per cluster",
                            &network::SimulationParameters::clusterSize));
  fields.push_back(u32Field("reserved", "reserved (non-tradeable) wavelengths per cluster",
                            &network::SimulationParameters::reservedPerCluster));
  fields.push_back(cycleField("token_hop",
                              "token-ring hop latency override in cycles (0 = eq. (2))",
                              &network::SimulationParameters::tokenHopCyclesOverride));
  fields.push_back(u32Field("channel_cap",
                            "per-channel wavelength cap override (0 = Table 3-3)",
                            &network::SimulationParameters::maxChannelWavelengthsOverride));
  fields.push_back(u32Field("writable_waveguides",
                            "restricted-waveguide variant: writable waveguides per router "
                            "(0 = unrestricted)",
                            &network::SimulationParameters::writableWaveguides));

  fields.push_back(ScenarioField{
      "gating", "activity-gated engine (bit-identical; off = step everything)",
      [](ScenarioSpec& spec, const std::string& value) {
        spec.params.activityGating = parseBool(value);
      },
      [](const ScenarioSpec& spec) {
        return spec.params.activityGating ? "true" : "false";
      },
      false});

  fields.push_back(ScenarioField{
      "profile",
      "cycle profiler: per-phase/per-kind engine time (bit-identical)",
      [](ScenarioSpec& spec, const std::string& value) {
        spec.params.profile = parseBool(value);
      },
      [](const ScenarioSpec& spec) {
        return spec.params.profile ? "true" : "false";
      },
      false});

  fields.push_back(u32Field("queue", "injection queue capacity in packets",
                            &network::SimulationParameters::injectionQueuePackets));

  fields.push_back(ScenarioField{
      "vcs", "virtual channels per router port",
      [](ScenarioSpec& spec, const std::string& value) {
        spec.params.coreRouter.vcsPerPort = parseU32(value);
      },
      [](const ScenarioSpec& spec) {
        return std::to_string(spec.params.coreRouter.vcsPerPort);
      },
      false});

  fields.push_back(ScenarioField{
      "vc_depth", "virtual channel depth in flits",
      [](ScenarioSpec& spec, const std::string& value) {
        spec.params.coreRouter.vcDepthFlits = parseU32(value);
      },
      [](const ScenarioSpec& spec) {
        return std::to_string(spec.params.coreRouter.vcDepthFlits);
      },
      false});

  fields.push_back(u32Field("link_latency", "intra-cluster copper link latency in cycles",
                            &network::SimulationParameters::intraClusterLinkLatency));

  fields.push_back(ScenarioField{
      "link_pj", "electrical link energy per bit in pJ",
      [](ScenarioSpec& spec, const std::string& value) {
        spec.params.linkEnergyPerBitPj = parseDouble(value);
      },
      [](const ScenarioSpec& spec) {
        return formatDouble(spec.params.linkEnergyPerBitPj);
      },
      false});

  fields.push_back(cycleField("propagation", "photonic propagation latency in cycles",
                              &network::SimulationParameters::photonicPropagationCycles));

  fields.push_back(ScenarioField{
      "clock_ghz", "network clock frequency in GHz (Table 3-3: 2.5)",
      [](ScenarioSpec& spec, const std::string& value) {
        spec.params.clock = sim::Clock(parseDouble(value) * 1e9);
      },
      [](const ScenarioSpec& spec) {
        return formatDouble(spec.params.clock.frequencyHz() / 1e9);
      },
      false});

  fields.push_back(ScenarioField{
      "label", "free-form label carried into reports and BENCH_*.json records",
      [](ScenarioSpec& spec, const std::string& value) { spec.label = value; },
      [](const ScenarioSpec& spec) { return spec.label; },
      true});

  return fields;
}

}  // namespace

std::optional<int> bandwidthSetIndex(const traffic::BandwidthSet& set) {
  for (int index = 1; index <= 3; ++index) {
    const traffic::BandwidthSet standard = traffic::BandwidthSet::byIndex(index);
    if (set.name == standard.name && set.totalWavelengths == standard.totalWavelengths &&
        set.maxChannelWavelengths == standard.maxChannelWavelengths &&
        set.packetFlits == standard.packetFlits && set.flitBits == standard.flitBits &&
        set.channelGbps == standard.channelGbps) {
      return index;
    }
  }
  return std::nullopt;
}

const std::vector<ScenarioField>& ScenarioSpec::fields() {
  static const std::vector<ScenarioField> kFields = makeFields();
  return kFields;
}

const ScenarioField* ScenarioSpec::findField(const std::string& key) {
  for (const ScenarioField& field : fields()) {
    if (field.key == key) return &field;
  }
  return nullptr;
}

void ScenarioSpec::set(const std::string& key, const std::string& value) {
  const ScenarioField* field = findField(key);
  if (field == nullptr) {
    std::vector<std::string> keys;
    keys.reserve(fields().size());
    for (const ScenarioField& candidate : fields()) keys.push_back(candidate.key);
    throw std::invalid_argument("unknown scenario key '" + key + "'" +
                                sim::didYouMean(key, keys) +
                                " (help=1 lists the available keys)");
  }
  try {
    field->parse(*this, value);
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument("scenario key '" + key + "': " + error.what());
  }
}

std::string ScenarioSpec::get(const std::string& key) const {
  const ScenarioField* field = findField(key);
  if (field == nullptr) {
    throw std::invalid_argument("unknown scenario key '" + key + "'");
  }
  return field->format(*this);
}

void ScenarioSpec::applyOverrides(sim::Config& config) {
  for (const ScenarioField& field : fields()) {
    if (config.contains(field.key)) {
      set(field.key, config.getString(field.key, ""));
    }
  }
}

void ScenarioSpec::validate() const {
  params.validate();
  // Built as the network builds them, then dropped.
  const noc::ClusterTopology topology(params.numCores, params.clusterSize);
  const auto pattern =
      traffic::makePattern(params.pattern, topology, params.bandwidthSet);
  workload::WorkloadBuildContext context;
  context.topology = &topology;
  context.pattern = pattern.get();
  context.defaultPacketFlits = params.bandwidthSet.packetFlits;
  workload::makeWorkload(params.workload, context);
}

std::string ScenarioSpec::toJson() const {
  std::string out = "{";
  bool first = true;
  for (const ScenarioField& field : fields()) {
    if (!first) out += ",";
    first = false;
    out += "\"" + field.key + "\":";
    const std::string value = field.format(*this);
    if (field.jsonString) {
      out += '"';
      out += jsonEscape(value);
      out += '"';
    } else {
      out += value;
    }
  }
  out += "}";
  return out;
}

ScenarioSpec ScenarioSpec::fromJson(const std::string& json) {
  ScenarioSpec spec;
  spec.applyJsonObject(JsonValue::parse(json));
  return spec;
}

void ScenarioSpec::applyJsonObject(const JsonValue& object) {
  for (const auto& [key, value] : object.members()) {
    set(key, value.scalarText());
  }
}

std::string ScenarioSpec::helpText(const ScenarioSpec& defaults) {
  std::string out = "scenario keys (key=value; also the JSON field names):\n";
  for (const ScenarioField& field : fields()) {
    std::string left = "  " + field.key + "=" + field.format(defaults);
    if (left.size() < 30) left.resize(30, ' ');
    out += left + "  " + field.doc + "\n";
  }
  return out;
}

}  // namespace pnoc::scenario
