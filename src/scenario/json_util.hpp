// Minimal JSON machinery shared by the scenario layer's wire formats.
//
// ScenarioSpec, RunMetrics and the worker protocol all speak flat
// or shallowly nested JSON; this header provides the one parser and the two
// formatting helpers they share so every layer round-trips values the same
// way:
//  * JsonValue — a small recursive JSON document (object member order is
//    preserved; numbers keep their raw text so 64-bit integers never pass
//    through a double),
//  * formatDouble — shortest decimal form that parses back to exactly the
//    same double (serialized metrics stay human-readable AND bit-exact),
//  * jsonEscape — string escaping matched by JsonValue's unescaping.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pnoc::scenario {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind() const { return kind_; }

  /// Typed accessors; std::invalid_argument on kind mismatch or bad numbers.
  bool asBool() const;
  double asDouble() const;
  std::uint64_t asU64() const;
  const std::string& asString() const;  // decoded string value
  /// Raw scalar text as it appeared in the document (numbers, true/false).
  const std::string& raw() const { return scalar_; }
  /// Scalar as the text a ScenarioSpec binding expects: decoded for strings,
  /// raw for numbers/bools.
  const std::string& scalarText() const;

  const std::vector<std::pair<std::string, JsonValue>>& members() const;
  const std::vector<JsonValue>& items() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;
  /// Object member lookup; std::invalid_argument when absent.
  const JsonValue& at(const std::string& key) const;

  /// Parses a complete document; trailing non-space text is rejected.
  static JsonValue parse(const std::string& text);

  /// Parses one value starting at `pos` (leading space skipped) and leaves
  /// `pos` just past it — the loop primitive for newline-delimited or
  /// concatenated JSON streams.  Arrays and objects nested more than 64
  /// deep are rejected with std::invalid_argument, so hostile input cannot
  /// exhaust the stack.
  static JsonValue parsePrefix(const std::string& text, std::size_t& pos);

 private:
  // parsePrefix's recursion; `depth` counts the enclosing arrays/objects.
  static JsonValue parseNested(const std::string& text, std::size_t& pos,
                               int depth);

  Kind kind_ = Kind::kNull;
  std::string scalar_;  // raw text for number/bool/null, decoded for string
  std::vector<std::pair<std::string, JsonValue>> members_;
  std::vector<JsonValue> items_;
};

/// Escapes a string for embedding between JSON quotes (inverse of the
/// JsonValue string decoder).
std::string jsonEscape(const std::string& raw);

/// Shortest decimal form that strtod()s back to exactly `value`.
std::string formatDouble(double value);

}  // namespace pnoc::scenario
