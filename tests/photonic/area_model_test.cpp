#include "photonic/area_model.hpp"

#include <gtest/gtest.h>

namespace pnoc::photonic {
namespace {

// The paper's studied configuration: 16 photonic routers, 64 lambdas per
// waveguide, 64 aggregate data wavelengths (Section 3.4.3).
AreaParams paperParams() { return AreaParams{}; }

TEST(AreaModel, DataWaveguideCount) {
  EXPECT_EQ(dataWaveguidesNeeded(64, 64), 1u);
  EXPECT_EQ(dataWaveguidesNeeded(65, 64), 2u);
  EXPECT_EQ(dataWaveguidesNeeded(256, 64), 4u);
  EXPECT_EQ(dataWaveguidesNeeded(512, 64), 8u);
  EXPECT_EQ(dataWaveguidesNeeded(1, 64), 1u);
}

TEST(AreaModel, DhetpnocCountsAt64Wavelengths) {
  // eqs. (6)-(8): 16*64*1 data, 16*64 reservation, 16*64 control modulators;
  // eqs. (15)-(17): 1024 data, 16*64*15 reservation, 1024 control detectors.
  const DeviceCounts counts = dhetpnocCounts(paperParams(), 64);
  EXPECT_EQ(counts.modulatorsData, 1024u);
  EXPECT_EQ(counts.modulatorsReservation, 1024u);
  EXPECT_EQ(counts.modulatorsControl, 1024u);
  EXPECT_EQ(counts.totalModulators(), 3072u);  // eq. (9)
  EXPECT_EQ(counts.detectorsData, 1024u);
  EXPECT_EQ(counts.detectorsReservation, 15360u);
  EXPECT_EQ(counts.detectorsControl, 1024u);
  EXPECT_EQ(counts.totalDetectors(), 17408u);  // eq. (18)
}

TEST(AreaModel, FireflyCountsAt64Wavelengths) {
  // lambda_NF = 64/16 = 4; eq. (13): 16*4 + 16*64 = 1088 modulators;
  // eq. (22): 16*4*15 + 16*64*15 = 16320 detectors.
  const DeviceCounts counts = fireflyCounts(paperParams(), 64);
  EXPECT_EQ(counts.modulatorsData, 64u);
  EXPECT_EQ(counts.modulatorsReservation, 1024u);
  EXPECT_EQ(counts.totalModulators(), 1088u);
  EXPECT_EQ(counts.detectorsData, 960u);
  EXPECT_EQ(counts.detectorsReservation, 15360u);
  EXPECT_EQ(counts.totalDetectors(), 16320u);
  EXPECT_EQ(counts.modulatorsControl, 0u);  // no control waveguide in Firefly
  EXPECT_EQ(counts.detectorsControl, 0u);
}

TEST(AreaModel, ReproducesPaperAreas) {
  // Section 3.4.3: "The total modulator/demodulator area for d-HetPNoC and
  // Firefly are 1.608 mm^2 and 1.367 mm^2 respectively for the configuration
  // with 64 data wavelengths studied in this work."
  const double dhet = areaMm2(dhetpnocCounts(paperParams(), 64));
  const double firefly = areaMm2(fireflyCounts(paperParams(), 64));
  EXPECT_NEAR(dhet, 1.608, 0.001);
  EXPECT_NEAR(firefly, 1.367, 0.001);
}

TEST(AreaModel, DhetpnocAlwaysLargerThanFirefly) {
  for (std::uint32_t lambdas : {64u, 128u, 256u, 384u, 512u}) {
    const double dhet = areaMm2(dhetpnocCounts(paperParams(), lambdas));
    const double firefly = areaMm2(fireflyCounts(paperParams(), lambdas));
    EXPECT_GT(dhet, firefly) << "at " << lambdas << " wavelengths";
  }
}

TEST(AreaModel, PaperScalingSixtyFourToFiveTwelve) {
  // Figures 3-8/3-9: "as the total wavelength changes from 64 to 512, the
  // total area increases by 70%".
  const double at64 = areaMm2(dhetpnocCounts(paperParams(), 64));
  const double at512 = areaMm2(dhetpnocCounts(paperParams(), 512));
  EXPECT_NEAR((at512 - at64) / at64, 0.70, 0.02);
}

TEST(AreaModel, FireflyScalingMatchesPaperFortyOnePercent) {
  // The Fig 3-10 discussion says Firefly's area grows 41.17% "as the total
  // wavelength changes from 64 to 256", but eqs. (10)-(13)/(19)-(22) give
  // +17.6% for 64->256 and exactly +41.17% (24576/17408 rings) for 64->512.
  // The text's "256" is a typo for 512 — the figure sweeps to 512 and the
  // parallel d-HetPNoC claim (+70%) is also quoted at 512.  Pin the exact
  // ring counts so any regression in the equations is caught.
  const double at64 = areaMm2(fireflyCounts(paperParams(), 64));
  const double at512 = areaMm2(fireflyCounts(paperParams(), 512));
  EXPECT_EQ(fireflyCounts(paperParams(), 64).totalRings(), 17408u);
  EXPECT_EQ(fireflyCounts(paperParams(), 512).totalRings(), 24576u);
  EXPECT_NEAR((at512 - at64) / at64, 0.4117, 0.001);
}

class AreaMonotonicity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AreaMonotonicity, MoreWavelengthsNeverShrinkEitherArchitecture) {
  const std::uint32_t lambdas = GetParam();
  const AreaParams params = paperParams();
  EXPECT_GE(areaMm2(dhetpnocCounts(params, lambdas + 64)),
            areaMm2(dhetpnocCounts(params, lambdas)));
  EXPECT_GE(areaMm2(fireflyCounts(params, lambdas + 64)),
            areaMm2(fireflyCounts(params, lambdas)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, AreaMonotonicity,
                         ::testing::Values(64u, 128u, 192u, 256u, 320u, 384u, 448u),
                         ::testing::PrintToStringParamName());

TEST(AreaModel, RestrictedVariantShrinksOnlyDataModulators) {
  // The thesis conclusion's mitigation: router x writes only waveguides x and
  // x+1.  At 512 wavelengths (8 data waveguides) the data modulators drop
  // from 16*64*8 to 16*64*2; everything else is unchanged.
  const AreaParams params = paperParams();
  const DeviceCounts full = dhetpnocCounts(params, 512);
  const DeviceCounts restricted = restrictedDhetpnocCounts(params, 512, 2);
  EXPECT_EQ(restricted.modulatorsData, 16u * 64u * 2u);
  EXPECT_LT(restricted.modulatorsData, full.modulatorsData);
  EXPECT_EQ(restricted.detectorsData, full.detectorsData);
  EXPECT_EQ(restricted.modulatorsReservation, full.modulatorsReservation);
  EXPECT_LT(areaMm2(restricted), areaMm2(full));
}

TEST(AreaModel, RestrictedVariantNoOpWhenCapExceedsWaveguides) {
  const AreaParams params = paperParams();
  const DeviceCounts full = dhetpnocCounts(params, 64);
  const DeviceCounts restricted = restrictedDhetpnocCounts(params, 64, 2);
  EXPECT_EQ(restricted.totalRings(), full.totalRings());
}

TEST(AreaModel, RingAreaUsesFiveMicronRadius) {
  DeviceCounts one;
  one.modulatorsData = 1;
  // pi * 25 um^2 = 78.54 um^2 = 7.854e-5 mm^2.
  EXPECT_NEAR(areaMm2(one), 7.854e-5, 1e-7);
}

TEST(AreaModel, DefaultRadiusIsTheSharedRingConstant) {
  const DeviceCounts counts = dhetpnocCounts(paperParams(), 64);
  EXPECT_DOUBLE_EQ(areaMm2(counts), areaMm2(counts, kMrrRadiusUm));
  // Area goes with r^2: doubling the radius quadruples it.
  EXPECT_NEAR(areaMm2(counts, 2 * kMrrRadiusUm), 4 * areaMm2(counts), 1e-12);
}

}  // namespace
}  // namespace pnoc::photonic
