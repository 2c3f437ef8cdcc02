#include "traffic/registry.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sim/suggest.hpp"
#include "traffic/app_profile.hpp"
#include "traffic/skewed.hpp"
#include "traffic/synthetic.hpp"
#include "traffic/uniform.hpp"

namespace pnoc::traffic {
namespace {

/// Every built-in family, name-sorted (the help listing's order).
constexpr PatternFamily kFamilies[] = {
    {"hotspot", "fraction of all traffic to one core over uniform random traffic",
     "frac=<0..1) (0.1), hot=<core> (0)",
     [](const sim::Config& options, const noc::ClusterTopology& topology,
        const BandwidthSet& set) -> std::unique_ptr<TrafficPattern> {
       const double frac = options.getDouble("frac", 0.1);
       const CoreId hot = options.getU32("hot", 0);
       std::ostringstream name;
       name << "hotspot:frac=" << frac << ",hot=" << hot;
       return std::make_unique<HotspotOverlayPattern>(
           name.str(), std::make_unique<UniformRandomPattern>(topology, set), frac, hot,
           topology);
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
  for (std::size_t begin = 0; begin <= tail.size();) {
    const std::size_t end = std::min(tail.find(',', begin), tail.size());
    const std::string_view token = tail.substr(begin, end - begin);
    const auto eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      fail("option '" + std::string(token) + "' is not key=value");
    }
    parsed.options.set(std::string(token.substr(0, eq)), std::string(token.substr(eq + 1)));
    begin = end + 1;
  }
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
