#include "sim/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

namespace pnoc::sim {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Runs one shared parser on a config value, naming the key in its error.
template <typename Parse>
auto parseNamed(const std::string& key, const std::string& value, Parse parse) {
  try {
    return parse(value);
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument("option '" + key + "': " + error.what());
  }
}

}  // namespace

std::uint64_t parseU64(const std::string& value) {
  // Require a leading digit outright: stoull would skip whitespace and
  // accept a sign, silently wrapping "-5" (or " -5") to a huge value.
  if (value.empty() || std::isdigit(static_cast<unsigned char>(value[0])) == 0) {
    throw std::invalid_argument("'" + value + "' is not an unsigned integer");
  }
  std::size_t pos = 0;
  unsigned long long parsed = 0;
  try {
    parsed = std::stoull(value, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("'" + value + "' is not an unsigned integer");
  }
  if (pos != value.size()) {
    throw std::invalid_argument("'" + value + "' is not an unsigned integer");
  }
  return parsed;
}

std::uint32_t parseU32(const std::string& value) {
  const std::uint64_t parsed = parseU64(value);
  if (parsed > 0xFFFFFFFFull) {
    throw std::invalid_argument("'" + value + "' does not fit in 32 bits");
  }
  return static_cast<std::uint32_t>(parsed);
}

double parseDouble(const std::string& value) {
  std::size_t pos = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("'" + value + "' is not a number");
  }
  if (pos != value.size()) {
    throw std::invalid_argument("'" + value + "' is not a number");
  }
  if (!std::isfinite(parsed)) {
    // stod reads "nan" and "inf"; no option means either, and a NaN load
    // would run and record a meaningless point instead of failing.
    throw std::invalid_argument("'" + value + "' is not a finite number");
  }
  return parsed;
}

bool parseBool(const std::string& value) {
  const std::string v = lower(value);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("'" + value + "' is not a boolean");
}

std::optional<std::string> Config::parseArgs(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) {
    const std::string token = argv[i];
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return "malformed argument '" + token + "' (expected key=value)";
    }
    set(token.substr(0, eq), token.substr(eq + 1));
  }
  return std::nullopt;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

const std::string* Config::read(const std::string& key) const {
  consumed_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::string Config::getString(const std::string& key, const std::string& fallback) const {
  const std::string* value = read(key);
  return value == nullptr ? fallback : *value;
}

std::uint64_t Config::getU64(const std::string& key, std::uint64_t fallback) const {
  const std::string* value = read(key);
  return value == nullptr ? fallback : parseNamed(key, *value, parseU64);
}

std::uint32_t Config::getU32(const std::string& key, std::uint32_t fallback) const {
  const std::string* value = read(key);
  return value == nullptr ? fallback : parseNamed(key, *value, parseU32);
}

double Config::getDouble(const std::string& key, double fallback) const {
  const std::string* value = read(key);
  return value == nullptr ? fallback : parseNamed(key, *value, parseDouble);
}

bool Config::getBool(const std::string& key, bool fallback) const {
  const std::string* value = read(key);
  return value == nullptr ? fallback : parseNamed(key, *value, parseBool);
}

std::vector<std::string> Config::unconsumedKeys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (consumed_.count(key) == 0) out.push_back(key);
  }
  return out;
}

std::vector<std::string> Config::consumedKeys() const {
  return {consumed_.begin(), consumed_.end()};
}

}  // namespace pnoc::sim
