#include "traffic/registry.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "traffic/app_profile.hpp"
#include "traffic/matrix_pattern.hpp"
#include "traffic/skewed.hpp"
#include "traffic/synthetic.hpp"
#include "traffic/uniform.hpp"

namespace pnoc::traffic {
namespace {

std::string readFileOrThrow(const std::string& path, const std::string& what) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument(what + ": cannot read '" + path + "'");
  }
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

/// Registers the built-in families and legacy aliases.  Lives here (not in
/// per-family static initializers) so a static-library link can never drop a
/// family: this translation unit also defines the registry, so touching the
/// registry pulls in the bootstrap.
void registerBuiltins(PatternRegistry& registry) {
  registry.add(PatternFamily{
      "uniform", "uniform random traffic, even wavelength split (Section 3.4.1)", "",
      [](const PatternOptions&, const noc::ClusterTopology& topology,
         const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
        return std::make_unique<UniformRandomPattern>(topology, set);
      }});

  registry.add(PatternFamily{
      "skewed", "four app classes, traffic skewed to the hot class (Table 3-2)",
      "level=<1|2|3> (3)",
      [](const PatternOptions& options, const noc::ClusterTopology& topology,
         const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
        const int level = static_cast<int>(options.getInt("level", 3));
        return std::make_unique<SkewedPattern>(level, topology, set);
      }});

  registry.add(PatternFamily{
      "skewed-hotspot", "paper case studies: hotspot share over a skewed base (Section 3.4.2)",
      "variant=<1..4> (1), hot=<core> (0)",
      [](const PatternOptions& options, const noc::ClusterTopology& topology,
         const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
        // Variants 1..4: 10% over skewed2, 10% over skewed3, 20% over
        // skewed2, 20% over skewed3.
        const int variant = static_cast<int>(options.getInt("variant", 1));
        if (variant < 1 || variant > 4) {
          throw std::invalid_argument("skewed-hotspot variant must be 1..4");
        }
        const auto hot = static_cast<CoreId>(options.getInt("hot", 0));
        const double share = variant <= 2 ? 0.10 : 0.20;
        const int level = variant % 2 == 1 ? 2 : 3;
        return std::make_unique<HotspotOverlayPattern>(
            "skewed-hotspot" + std::to_string(variant),
            std::make_unique<SkewedPattern>(level, topology, set), share, hot, topology);
      }});

  registry.add(PatternFamily{
      "hotspot", "fraction of all traffic to one core over any base pattern",
      "frac=<0..1) (0.1), hot=<core> (0), base=<spec> (uniform)",
      [](const PatternOptions& options, const noc::ClusterTopology& topology,
         const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
        const double frac = options.getDouble("frac", 0.1);
        const auto hot = static_cast<CoreId>(options.getInt("hot", 0));
        const std::string base = options.getString("base", "uniform");
        std::ostringstream name;
        name << "hotspot:frac=" << frac << ",hot=" << hot << ",base=" << base;
        return std::make_unique<HotspotOverlayPattern>(
            name.str(), PatternRegistry::global().make(base, topology, set), frac, hot,
            topology);
      }});

  registry.add(PatternFamily{
      "real-apps", "MUM/BFS/CP/RAY/LPS GPU clusters + memory clusters (Section 3.4.2)", "",
      [](const PatternOptions&, const noc::ClusterTopology& topology,
         const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
        return std::make_unique<RealApplicationPattern>(topology, set);
      }});

  registry.add(PatternFamily{
      "transpose", "matrix-transpose permutation on the core grid", "",
      [](const PatternOptions&, const noc::ClusterTopology& topology,
         const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
        return std::make_unique<StaticTargetPattern>("transpose", topology, set,
                                                     transposeTargets(topology));
      }});

  registry.add(PatternFamily{
      "tornado", "every cluster targets the cluster `offset` hops ahead",
      "offset=<1..numClusters-1> (numClusters/2)",
      [](const PatternOptions& options, const noc::ClusterTopology& topology,
         const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
        const auto offset = static_cast<std::uint32_t>(
            options.getInt("offset", topology.numClusters() / 2));
        return std::make_unique<StaticTargetPattern>(
            "tornado:offset=" + std::to_string(offset), topology, set,
            tornadoTargets(topology, offset));
      }});

  registry.add(PatternFamily{
      "bitcomp", "bit-complement permutation (core i -> ~i)", "",
      [](const PatternOptions&, const noc::ClusterTopology& topology,
         const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
        return std::make_unique<StaticTargetPattern>("bitcomp", topology, set,
                                                     bitComplementTargets(topology));
      }});

  registry.add(PatternFamily{
      "permutation", "seeded random core permutation (single N-cycle)",
      "seed=<u64> (1)",
      [](const PatternOptions& options, const noc::ClusterTopology& topology,
         const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
        const auto seed = static_cast<std::uint64_t>(options.getInt("seed", 1));
        return std::make_unique<StaticTargetPattern>(
            "permutation:seed=" + std::to_string(seed), topology, set,
            permutationTargets(topology, seed));
      }});

  registry.add(PatternFamily{
      "matrix", "replay a profiled workload from CSV rate/demand matrices",
      "rates=<csv path>, demands=<csv path>",
      [](const PatternOptions& options, const noc::ClusterTopology& topology,
         const BandwidthSet&) -> std::unique_ptr<TrafficPattern> {
        const std::string ratesPath = options.getString("rates", "");
        const std::string demandsPath = options.getString("demands", "");
        if (ratesPath.empty() || demandsPath.empty()) {
          throw std::invalid_argument(
              "matrix pattern needs rates=<csv path> and demands=<csv path>");
        }
        return std::make_unique<MatrixPattern>(MatrixPattern::fromCsv(
            topology, readFileOrThrow(ratesPath, "matrix rates"),
            readFileOrThrow(demandsPath, "matrix demands")));
      }});

  // Legacy single-token names used throughout the paper's figures.
  for (int level = 1; level <= 3; ++level) {
    registry.addAlias("skewed" + std::to_string(level),
                      "skewed:level=" + std::to_string(level));
  }
  for (int variant = 1; variant <= 4; ++variant) {
    registry.addAlias("skewed-hotspot" + std::to_string(variant),
                      "skewed-hotspot:variant=" + std::to_string(variant));
  }
}

}  // namespace

ParsedPatternSpec parsePatternSpec(const std::string& spec) {
  ParsedPatternSpec parsed;
  const auto colon = spec.find(':');
  parsed.family = spec.substr(0, colon);
  if (parsed.family.empty()) {
    throw std::invalid_argument("pattern spec '" + spec + "' has no family name");
  }
  if (colon == std::string::npos) return parsed;
  const std::string tail = spec.substr(colon + 1);
  if (tail.empty()) {
    throw std::invalid_argument("pattern spec '" + spec + "' has an empty option list");
  }
  // Split on commas at parenthesis depth 0 only, so nested specs can carry
  // their own option lists: hotspot:frac=0.2,base=(skewed-hotspot:hot=5).
  std::size_t begin = 0;
  std::size_t cursor = 0;
  int depth = 0;
  while (cursor <= tail.size()) {
    if (cursor < tail.size() && tail[cursor] == '(') ++depth;
    if (cursor < tail.size() && tail[cursor] == ')') {
      if (--depth < 0) {
        throw std::invalid_argument("unbalanced ')' in pattern spec '" + spec + "'");
      }
    }
    const bool split = cursor == tail.size() || (tail[cursor] == ',' && depth == 0);
    if (!split) {
      ++cursor;
      continue;
    }
    const std::string token = tail.substr(begin, cursor - begin);
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("pattern option '" + token + "' in spec '" + spec +
                                  "' is not key=value");
    }
    std::string value = token.substr(eq + 1);
    // Unwrap one grouping layer: base=(family:k=v,k2=v2) -> family:k=v,k2=v2.
    if (value.size() >= 2 && value.front() == '(' && value.back() == ')') {
      value = value.substr(1, value.size() - 2);
    }
    parsed.options.set(token.substr(0, eq), value);
    begin = ++cursor;
  }
  if (depth != 0) {
    throw std::invalid_argument("unbalanced '(' in pattern spec '" + spec + "'");
  }
  return parsed;
}

PatternRegistry& PatternRegistry::global() {
  static PatternRegistry* instance = [] {
    auto* registry = new PatternRegistry();
    registerBuiltins(*registry);
    return registry;
  }();
  return *instance;
}

bool PatternRegistry::add(PatternFamily family) {
  if (family.name.empty() || !family.factory) return false;
  if (families_.count(family.name) != 0 || aliases_.count(family.name) != 0) {
    return false;
  }
  families_.emplace(family.name, std::move(family));
  return true;
}

bool PatternRegistry::addAlias(std::string alias, std::string target) {
  if (alias.empty() || target.empty()) return false;
  if (families_.count(alias) != 0 || aliases_.count(alias) != 0) return false;
  aliases_.emplace(std::move(alias), std::move(target));
  return true;
}

bool PatternRegistry::contains(const std::string& family) const {
  return families_.count(family) != 0;
}

const PatternFamily* PatternRegistry::find(const std::string& family) const {
  const auto it = families_.find(family);
  return it == families_.end() ? nullptr : &it->second;
}

std::vector<const PatternFamily*> PatternRegistry::families() const {
  std::vector<const PatternFamily*> out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) out.push_back(&family);
  return out;  // std::map iteration is already name-sorted
}

std::unique_ptr<TrafficPattern> PatternRegistry::make(
    const std::string& spec, const noc::ClusterTopology& topology,
    const BandwidthSet& bandwidthSet) const {
  const auto alias = aliases_.find(spec);
  const std::string& resolved = alias == aliases_.end() ? spec : alias->second;
  ParsedPatternSpec parsed = parsePatternSpec(resolved);
  const PatternFamily* family = find(parsed.family);
  if (family == nullptr) {
    throw std::invalid_argument("unknown traffic pattern: '" + spec + "'");
  }
  auto pattern = family->factory(parsed.options, topology, bandwidthSet);
  const auto unknown = parsed.options.unconsumedKeys();
  if (!unknown.empty()) {
    std::string keys;
    for (const auto& key : unknown) keys += (keys.empty() ? "" : ", ") + key;
    throw std::invalid_argument("pattern '" + parsed.family +
                                "' does not take option(s): " + keys);
  }
  // Legacy aliases promise pattern->name() == the legacy token; the
  // family implementations uphold that (e.g. SkewedPattern level 3 names
  // itself "skewed3").
  return pattern;
}

std::string PatternRegistry::helpText() const {
  std::string out = "traffic pattern families (pattern=<family[:k=v,...]>):\n";
  for (const PatternFamily* family : families()) {
    out += "  " + family->name;
    if (!family->optionsDoc.empty()) out += ":" + family->optionsDoc;
    out += "\n      " + family->summary + "\n";
  }
  if (!aliases_.empty()) {
    out += "  aliases:";
    for (const auto& [alias, target] : aliases_) {
      out += " " + alias + "=" + target;
    }
    out += "\n";
  }
  return out;
}

}  // namespace pnoc::traffic
