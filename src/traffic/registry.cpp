#include "traffic/registry.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/suggest.hpp"
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

/// Every built-in family, name-sorted (the help listing's order).
constexpr PatternFamily kFamilies[] = {
    {"bitcomp", "bit-complement permutation (core i -> ~i)", "",
     [](const sim::Config&, const noc::ClusterTopology& topology,
        const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
       return std::make_unique<StaticTargetPattern>("bitcomp", topology, set,
                                                    bitComplementTargets(topology));
     }},
    {"hotspot", "fraction of all traffic to one core over any base pattern",
     "frac=<0..1) (0.1), hot=<core> (0), base=<spec> (uniform)",
     [](const sim::Config& options, const noc::ClusterTopology& topology,
        const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
       const double frac = options.getDouble("frac", 0.1);
       const CoreId hot = options.getU32("hot", 0);
       const std::string base = options.getString("base", "uniform");
       std::ostringstream name;
       name << "hotspot:frac=" << frac << ",hot=" << hot << ",base=" << base;
       return std::make_unique<HotspotOverlayPattern>(
           name.str(), makePattern(base, topology, set), frac, hot, topology);
     }},
    {"matrix", "replay a profiled workload from CSV rate/demand matrices",
     "rates=<csv path>, demands=<csv path>",
     [](const sim::Config& options, const noc::ClusterTopology& topology,
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
     }},
    {"permutation", "seeded random core permutation (single N-cycle)", "seed=<u64> (1)",
     [](const sim::Config& options, const noc::ClusterTopology& topology,
        const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
       const std::uint64_t seed = options.getU64("seed", 1);
       return std::make_unique<StaticTargetPattern>(
           "permutation:seed=" + std::to_string(seed), topology, set,
           permutationTargets(topology, seed));
     }},
    {"real-apps", "MUM/BFS/CP/RAY/LPS GPU clusters + memory clusters (Section 3.4.2)", "",
     [](const sim::Config&, const noc::ClusterTopology& topology,
        const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
       return std::make_unique<RealApplicationPattern>(topology, set);
     }},
    {"skewed", "four app classes, traffic skewed to the hot class (Table 3-2)",
     "level=<1|2|3> (3)",
     [](const sim::Config& options, const noc::ClusterTopology& topology,
        const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
       return std::make_unique<SkewedPattern>(options.getU32("level", 3), topology, set);
     }},
    {"skewed-hotspot", "paper case studies: hotspot share over a skewed base (Section 3.4.2)",
     "variant=<1..4> (1), hot=<core> (0)",
     [](const sim::Config& options, const noc::ClusterTopology& topology,
        const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
       // Variants 1..4: 10% over skewed2, 10% over skewed3, 20% over
       // skewed2, 20% over skewed3.
       const std::uint32_t variant = options.getU32("variant", 1);
       if (variant < 1 || variant > 4) {
         throw std::invalid_argument("skewed-hotspot variant must be 1..4");
       }
       const CoreId hot = options.getU32("hot", 0);
       const double share = variant <= 2 ? 0.10 : 0.20;
       const std::uint32_t level = variant % 2 == 1 ? 2 : 3;
       return std::make_unique<HotspotOverlayPattern>(
           "skewed-hotspot" + std::to_string(variant),
           std::make_unique<SkewedPattern>(level, topology, set), share, hot, topology);
     }},
    {"tornado", "every cluster targets the cluster `offset` hops ahead",
     "offset=<1..numClusters-1> (numClusters/2)",
     [](const sim::Config& options, const noc::ClusterTopology& topology,
        const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
       const std::uint32_t offset = options.getU32("offset", topology.numClusters() / 2);
       return std::make_unique<StaticTargetPattern>(
           "tornado:offset=" + std::to_string(offset), topology, set,
           tornadoTargets(topology, offset));
     }},
    {"transpose", "matrix-transpose permutation on the core grid", "",
     [](const sim::Config&, const noc::ClusterTopology& topology,
        const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
       return std::make_unique<StaticTargetPattern>("transpose", topology, set,
                                                    transposeTargets(topology));
     }},
    {"uniform", "uniform random traffic, even wavelength split (Section 3.4.1)", "",
     [](const sim::Config&, const noc::ClusterTopology& topology,
        const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
       return std::make_unique<UniformRandomPattern>(topology, set);
     }},
};

/// Legacy single-token names used throughout the paper's figures.  Each
/// pattern names itself by its alias (SkewedPattern level 3 is "skewed3").
constexpr SpecAlias kAliases[] = {
    {"skewed-hotspot1", "skewed-hotspot:variant=1"},
    {"skewed-hotspot2", "skewed-hotspot:variant=2"},
    {"skewed-hotspot3", "skewed-hotspot:variant=3"},
    {"skewed-hotspot4", "skewed-hotspot:variant=4"},
    {"skewed1", "skewed:level=1"},
    {"skewed2", "skewed:level=2"},
    {"skewed3", "skewed:level=3"},
};

constexpr SpecFamilyTable<PatternFactory> kPatterns{"traffic pattern", "pattern",
                                                    kFamilies, kAliases};

}  // namespace

ParsedPatternSpec parsePatternSpec(std::string_view spec) {
  const auto fail = [spec](const std::string& what) {
    throw std::invalid_argument(what + " in spec '" + std::string(spec) + "'");
  };
  ParsedPatternSpec parsed;
  const auto colon = spec.find(':');
  parsed.family = spec.substr(0, colon);
  if (parsed.family.empty()) fail("no family name");
  if (colon == std::string_view::npos) return parsed;
  const std::string_view tail = spec.substr(colon + 1);
  if (tail.empty()) fail("empty option list");
  // Split on commas at parenthesis depth 0 only, so nested specs can carry
  // their own option lists: hotspot:frac=0.2,base=(skewed-hotspot:hot=5).
  std::size_t begin = 0;
  std::size_t cursor = 0;
  int depth = 0;
  while (cursor <= tail.size()) {
    if (cursor < tail.size() && tail[cursor] == '(') ++depth;
    if (cursor < tail.size() && tail[cursor] == ')' && --depth < 0) fail("unbalanced ')'");
    const bool split = cursor == tail.size() || (tail[cursor] == ',' && depth == 0);
    if (!split) {
      ++cursor;
      continue;
    }
    const std::string_view token = tail.substr(begin, cursor - begin);
    const auto eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      fail("option '" + std::string(token) + "' is not key=value");
    }
    std::string_view value = token.substr(eq + 1);
    // Unwrap one grouping layer: base=(family:k=v,k2=v2) -> family:k=v,k2=v2.
    if (value.size() >= 2 && value.front() == '(' && value.back() == ')') {
      value = value.substr(1, value.size() - 2);
    }
    parsed.options.set(std::string(token.substr(0, eq)), std::string(value));
    begin = ++cursor;
  }
  if (depth != 0) fail("unbalanced '('");
  return parsed;
}

[[noreturn]] void throwUnknownFamily(std::string_view kind, std::string_view family,
                                     const std::vector<std::string>& candidates) {
  throw std::invalid_argument("unknown " + std::string(kind) + ": '" +
                              std::string(family) + "'" +
                              sim::didYouMean(std::string(family), candidates));
}

void rejectUnreadOptions(const sim::Config& options, std::string_view kind,
                         std::string_view family) {
  for (const std::string& key : options.unconsumedKeys()) {
    throw std::invalid_argument(std::string(kind) + " '" + std::string(family) +
                                "' does not take option '" + key + "'" +
                                sim::didYouMean(key, options.consumedKeys()));
  }
}

void appendFamilyHelp(std::string& out, std::string_view name, std::string_view summary,
                      std::string_view optionsDoc) {
  std::string left = "  " + std::string(name);
  if (left.size() < 18) left.resize(18, ' ');
  out.append(left).append(summary).append("\n");
  if (!optionsDoc.empty()) {
    out.append("                  options: ").append(optionsDoc).append("\n");
  }
}

std::span<const PatternFamily> patternFamilies() { return kFamilies; }

std::string patternHelpText() { return kPatterns.helpText(); }

std::unique_ptr<TrafficPattern> makePattern(const std::string& spec,
                                            const noc::ClusterTopology& topology,
                                            const BandwidthSet& bandwidthSet) {
  return kPatterns.make(spec, topology, bandwidthSet);
}

}  // namespace pnoc::traffic
