// Stable names for parameterized tests over tuples of patterns,
// architectures, loads and counts.
//
// gtest prints a `const char*` parameter as its address, so without a name
// generator a suite's ctest names change with every build.  TupleName (the
// fourth INSTANTIATE_TEST_SUITE_P argument) joins the tuple's fields
// instead: {"skewed3", kDhetpnoc, 0.004} -> skewed3_dhetpnoc_0p004.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>

#include "network/params.hpp"

namespace pnoc::testsupport {

/// `text` as a test-name fragment: letters lowercased, digits kept, '.'
/// spelled 'p' (0.004 -> 0p004), anything else '_'.
inline std::string nameToken(std::string_view text) {
  std::string token;
  for (const char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      token += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      token += c == '.' ? 'p' : '_';
    }
  }
  return token;
}

inline std::string nameToken(double value) {
  std::ostringstream text;
  text << value;
  return nameToken(text.str());
}

inline std::string nameToken(network::Architecture arch) {
  return arch == network::Architecture::kFirefly ? "firefly" : "dhetpnoc";
}

/// Name generator: the tuple's fields as name tokens, joined by '_'.
struct TupleName {
  template <typename Tuple>
  std::string operator()(const ::testing::TestParamInfo<Tuple>& info) const {
    return std::apply(
        [](const auto&... fields) {
          std::string name;
          ((name += (name.empty() ? "" : "_") + nameToken(fields)), ...);
          return name;
        },
        info.param);
  }
};

}  // namespace pnoc::testsupport
