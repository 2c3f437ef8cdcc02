// ScenarioSpec: the declarative description of one simulation run, and the
// single source of truth for how runs are named, parsed and serialized.
//
// Every public knob of network::SimulationParameters is bound, field by
// field, to a named entry in a reflection-style binding table (key, doc
// string, parse function, format function).  The key=value form (command
// line and spec files), the JSON form and the generated help=1 listing are
// all derived from that one table, so adding a parameter in one place makes
// it scriptable everywhere:
//
//   ScenarioSpec spec;
//   spec.set("pattern", "hotspot:frac=0.3,hot=5");
//   spec.set("load", "0.004");
//   std::string json = spec.toJson();          // round-trips byte-identical
//   ScenarioSpec back = ScenarioSpec::fromJson(json);
//
// Values are read with the shared grammar of sim/config.hpp.  Unknown keys
// and malformed values throw std::invalid_argument — scenario typos fail
// loudly instead of silently simulating the wrong thing.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "network/params.hpp"
#include "sim/config.hpp"

namespace pnoc::scenario {

class JsonValue;
class ScenarioSpec;

/// One row of the binding table.
struct ScenarioField {
  std::string key;  // key=value / JSON name
  std::string doc;  // one-line help text
  std::function<void(ScenarioSpec&, const std::string&)> parse;
  std::function<std::string(const ScenarioSpec&)> format;
  /// True when the JSON value is a quoted string (false: number / bool).
  bool jsonString = false;
};

class ScenarioSpec {
 public:
  /// The parameters this scenario runs with.  Freely mutable directly; the
  /// binding table reads and writes the same object.
  network::SimulationParameters params;

  /// Optional human label carried into reports and BENCH_*.json records.
  std::string label;

  /// The binding table: one row per serializable field, in canonical order.
  static const std::vector<ScenarioField>& fields();
  static const ScenarioField* findField(const std::string& key);

  /// Sets one field from its textual value; throws std::invalid_argument on
  /// unknown keys or unparseable values.
  void set(const std::string& key, const std::string& value);

  /// Formats one field; throws std::invalid_argument on unknown keys.
  std::string get(const std::string& key) const;

  /// Applies every binding key present in `config` to this spec, consuming
  /// them (binary-specific keys remain unconsumed for the caller).
  void applyOverrides(sim::Config& config);

  /// The one intake check: the params' own rules, plus building the
  /// pattern and the workload once (then dropping them).  Throws
  /// std::invalid_argument with the builder's message ("unknown traffic
  /// pattern: 'bogus'").  Cli::parse, pnoc_run's grid and the daemon's
  /// submit call it before anything is dispatched.
  void validate() const;

  /// Single-line flat JSON object, canonical field order; round-trips
  /// byte-identically through fromJson().
  std::string toJson() const;
  static ScenarioSpec fromJson(const std::string& json);

  /// Applies a parsed flat JSON object's members onto *this* spec (partial
  /// specs layer over defaults — spec files and the wire format use this).
  /// Throws std::invalid_argument on unknown keys or malformed values.
  void applyJsonObject(const JsonValue& object);

  /// Generated key listing with `defaults`' values — the help=1 output.
  static std::string helpText(const ScenarioSpec& defaults);
};

/// 1-based Table 3-1 index of a bandwidth set (1..3), or nullopt when the
/// set matches none of the standard three (custom sets are not serializable
/// through the `set` binding).
std::optional<int> bandwidthSetIndex(const traffic::BandwidthSet& set);

}  // namespace pnoc::scenario
