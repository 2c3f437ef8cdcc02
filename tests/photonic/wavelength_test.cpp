#include "photonic/wavelength.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pnoc::photonic {
namespace {

TEST(Wavelength, FlattenUnflattenRoundTrip) {
  for (std::uint32_t wg = 0; wg < 8; ++wg) {
    for (std::uint32_t l = 0; l < 64; ++l) {
      const WavelengthId id{wg, l};
      EXPECT_EQ(unflatten(flatten(id, 64), 64), id);
    }
  }
}

TEST(Wavelength, FlattenIsDense) {
  // Flat indices must cover 0..N-1 exactly once.
  std::vector<bool> seen(4 * 16, false);
  for (std::uint32_t wg = 0; wg < 4; ++wg) {
    for (std::uint32_t l = 0; l < 16; ++l) {
      const std::uint32_t flat = flatten(WavelengthId{wg, l}, 16);
      ASSERT_LT(flat, seen.size());
      EXPECT_FALSE(seen[flat]);
      seen[flat] = true;
    }
  }
}

TEST(Wavelength, CeilLog2) {
  EXPECT_EQ(ceilLog2(1), 0u);
  EXPECT_EQ(ceilLog2(2), 1u);
  EXPECT_EQ(ceilLog2(3), 2u);
  EXPECT_EQ(ceilLog2(8), 3u);
  EXPECT_EQ(ceilLog2(9), 4u);
  EXPECT_EQ(ceilLog2(64), 6u);
}

TEST(Wavelength, IdentifierBitsMatchSection3411) {
  // BW set 1: one data waveguide -> 6-bit identifiers.
  EXPECT_EQ(identifierBits(1), 6u);
  // BW set 3: 8 waveguides -> 6 + 3 = 9 bits.
  EXPECT_EQ(identifierBits(8), 9u);
  EXPECT_EQ(identifierBits(4), 8u);
}

TEST(Wavelength, ToStringNamesWaveguideAndLambda) {
  EXPECT_EQ(toString(WavelengthId{0, 0}), "wg0:l0");
  EXPECT_EQ(toString(WavelengthId{3, 17}), "wg3:l17");
  EXPECT_EQ(toString(unflatten(100, 64)), "wg1:l36");
}

}  // namespace
}  // namespace pnoc::photonic
