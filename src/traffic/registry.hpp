// Spec-family tables: the one lookup behind every `pattern=` and `workload=`
// spec string, and the traffic-pattern table it serves first.
//
//   spec     := family [":" options]
//   options  := key "=" value { "," key "=" value }
//   value    := text without ","
//
//   "uniform"
//   "skewed:level=3"
//   "hotspot:frac=0.3,hot=5"
//
// A family table is a const array of {name, summary, optionsDoc, factory}
// rows plus a const list of whole-spec aliases.  SpecFamilyTable::make
// resolves an alias, splits the options into a sim::Config, finds the
// family and runs its factory.  The factory reads its options through
// Config's typed getters, so every value goes through the one grammar of
// sim/config.hpp.  Three mistakes are refused with a std::invalid_argument:
// an unknown family (with a did-you-mean over the family names), a value
// the grammar refuses (naming the option), and an option the factory never
// read (with a did-you-mean over the keys it did read).
//
// The pattern table holds the built-in families and the paper's legacy
// single-token names ("skewed1".."skewed3", "skewed-hotspot1"..
// "skewed-hotspot4"), which are aliases of the parameterized specs.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "noc/topology.hpp"
#include "sim/config.hpp"
#include "traffic/bandwidth_set.hpp"
#include "traffic/pattern.hpp"

namespace pnoc::traffic {

/// "family[:options]" split into its parts; throws std::invalid_argument on
/// malformed option syntax.
struct ParsedPatternSpec {
  std::string family;
  sim::Config options;
};
ParsedPatternSpec parsePatternSpec(std::string_view spec);

/// One row of a family table.
template <typename Factory>
struct SpecFamily {
  std::string_view name;
  /// One-line description for help listings.
  std::string_view summary;
  /// Option synopsis for help listings, e.g. "frac=<0..1> (0.1), hot=<core> (0)".
  std::string_view optionsDoc;
  Factory* factory;
};

/// A whole spec string that stands for another, e.g. {"skewed3", "skewed:level=3"}.
using SpecAlias = std::pair<std::string_view, std::string_view>;

[[noreturn]] void throwUnknownFamily(std::string_view kind, std::string_view family,
                                     const std::vector<std::string>& candidates);
/// Throws when `options` holds a key no getter read, suggesting the
/// nearest key that was read.
void rejectUnreadOptions(const sim::Config& options, std::string_view kind,
                         std::string_view family);
void appendFamilyHelp(std::string& out, std::string_view name, std::string_view summary,
                      std::string_view optionsDoc);

/// The lookup, build and help rules every family table shares.
template <typename Factory>
struct SpecFamilyTable {
  /// Names the table in errors and help: "traffic pattern", "workload".
  std::string_view kind;
  /// The scenario key the specs are given under: "pattern", "workload".
  std::string_view key;
  std::span<const SpecFamily<Factory>> families;  // name-sorted
  std::span<const SpecAlias> aliases;

  /// Builds from `spec`, handing the factory its options and `args`.
  template <typename... Args>
  auto make(std::string_view spec, const Args&... args) const {
    for (const SpecAlias& alias : aliases) {
      if (alias.first == spec) {
        spec = alias.second;
        break;
      }
    }
    const ParsedPatternSpec parsed = parsePatternSpec(spec);
    for (const SpecFamily<Factory>& family : families) {
      if (family.name != parsed.family) continue;
      auto built = family.factory(parsed.options, args...);
      rejectUnreadOptions(parsed.options, kind, family.name);
      return built;
    }
    std::vector<std::string> names;
    for (const SpecFamily<Factory>& family : families) names.emplace_back(family.name);
    throwUnknownFamily(kind, parsed.family, names);
  }

  /// Human-readable family/option listing for help=1 output.
  std::string helpText() const {
    std::string out;
    out.append(kind).append(" families (").append(key).append(
        "=family[:key=value,...]):\n");
    for (const SpecFamily<Factory>& entry : families) {
      appendFamilyHelp(out, entry.name, entry.summary, entry.optionsDoc);
    }
    if (!aliases.empty()) {
      out += "  aliases:";
      for (const SpecAlias& alias : aliases) {
        out.append(" ").append(alias.first).append("=").append(alias.second);
      }
      out += "\n";
    }
    return out;
  }
};

using PatternFactory = std::unique_ptr<TrafficPattern>(const sim::Config& options,
                                                       const noc::ClusterTopology& topology,
                                                       const BandwidthSet& bandwidthSet);
using PatternFamily = SpecFamily<PatternFactory>;

/// The built-in traffic-pattern families, name-sorted.
std::span<const PatternFamily> patternFamilies();

/// The pattern families and aliases, for help=1 output.
std::string patternHelpText();

}  // namespace pnoc::traffic
