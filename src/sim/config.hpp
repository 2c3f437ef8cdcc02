// The one value grammar of every `key=value` input, and the key/value store
// that serves it.
//
// Scenario keys, pattern and workload options (`skewed:level=2`), runner
// keys (`shards=4`) and binary keys (`minMs=50`) all read their values
// through the four parsers below, so one spelling means the same thing
// everywhere and an out-of-range number is refused instead of wrapped:
//
//   unsigned  a leading digit, digits only, no sign and no trailing junk;
//             parseU32 also refuses anything past 32 bits
//   double    std::stod with no trailing junk, and finite
//   bool      1/true/yes/on or 0/false/no/off, in any case
//
// Config parses `key=value` tokens and serves them through typed getters
// that name the key in their errors.  Unread keys are detectable through
// unconsumedKeys(), so callers reject typos instead of silently ignoring
// them, and consumedKeys() lists the keys a reader asked for, which is what
// a typo hint suggests from.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace pnoc::sim {

/// The shared value parsers.  Each throws std::invalid_argument naming the
/// value it refused.
std::uint64_t parseU64(const std::string& value);
std::uint32_t parseU32(const std::string& value);
double parseDouble(const std::string& value);
bool parseBool(const std::string& value);

class Config {
 public:
  Config() = default;

  /// Parses tokens of the form "key=value". Tokens without '=' are invalid.
  /// Returns an error description, or std::nullopt on success.
  std::optional<std::string> parseArgs(int argc, const char* const* argv);

  /// Overload binding main()'s `char** argv` directly, so no caller ever
  /// needs a const_cast.
  std::optional<std::string> parseArgs(int argc, char** argv) {
    return parseArgs(argc, static_cast<const char* const*>(argv));
  }

  /// Inserts or overwrites one entry.
  void set(const std::string& key, const std::string& value);

  bool contains(const std::string& key) const { return values_.count(key) != 0; }

  /// Typed getters over the shared parsers. Each marks the key consumed and
  /// returns `fallback` when the key is absent. An unparseable value throws
  /// std::invalid_argument naming the key (misconfiguration fails loudly).
  std::string getString(const std::string& key, const std::string& fallback) const;
  std::uint64_t getU64(const std::string& key, std::uint64_t fallback) const;
  std::uint32_t getU32(const std::string& key, std::uint32_t fallback) const;
  double getDouble(const std::string& key, double fallback) const;
  bool getBool(const std::string& key, bool fallback) const;

  /// Keys present in the config but never read by any getter (likely typos).
  std::vector<std::string> unconsumedKeys() const;

  /// Every key a getter asked for, present or not, sorted.
  std::vector<std::string> consumedKeys() const;

 private:
  /// Marks `key` consumed; its value, or nullptr when absent.
  const std::string* read(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> consumed_;
};

}  // namespace pnoc::sim
