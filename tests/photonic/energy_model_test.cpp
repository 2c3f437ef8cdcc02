#include "photonic/energy_model.hpp"

#include <gtest/gtest.h>

namespace pnoc::photonic {
namespace {

TEST(EnergyModel, TableConstants) {
  const EnergyParams params;  // Tables 3-4 / 3-5
  EXPECT_DOUBLE_EQ(params.modulationPjPerBit, 0.04);
  EXPECT_DOUBLE_EQ(params.tuningPjPerBit, 0.24);
  EXPECT_DOUBLE_EQ(params.launchPjPerBit, 0.15);
  EXPECT_DOUBLE_EQ(params.bufferPjPerBit, 0.0781250);
  EXPECT_DOUBLE_EQ(params.routerPjPerBit, 0.625);
  EXPECT_DOUBLE_EQ(params.laserPowerMwPerWavelength, 1.5);
  EXPECT_DOUBLE_EQ(params.tuningPowerMwPerNm, 2.4);
}

TEST(EnergyModel, LedgerCategorySplit) {
  EnergyLedger ledger;
  ledger.add(EnergyCategory::kLaunch, 1.0);
  ledger.add(EnergyCategory::kModulation, 2.0);
  ledger.add(EnergyCategory::kTuning, 3.0);
  ledger.add(EnergyCategory::kPhotonicBuffer, 4.0);
  ledger.add(EnergyCategory::kElectricalRouter, 5.0);
  ledger.add(EnergyCategory::kElectricalLink, 6.0);
  EXPECT_DOUBLE_EQ(ledger.photonic(), 10.0);   // eq. (4)
  EXPECT_DOUBLE_EQ(ledger.electrical(), 11.0);
  EXPECT_DOUBLE_EQ(ledger.total(), 21.0);      // eq. (3)
}

TEST(EnergyModel, ChargePhotonicTransferPerBit) {
  EnergyLedger ledger;
  const EnergyParams params;
  chargePhotonicTransfer(ledger, params, 1000);
  EXPECT_DOUBLE_EQ(ledger.of(EnergyCategory::kLaunch), 150.0);
  EXPECT_DOUBLE_EQ(ledger.of(EnergyCategory::kModulation), 40.0);
  EXPECT_DOUBLE_EQ(ledger.of(EnergyCategory::kTuning), 240.0);
  // 0.43 pJ/bit total photonic link energy.
  EXPECT_DOUBLE_EQ(ledger.photonic(), 430.0);
}

TEST(EnergyModel, LedgerAccumulates) {
  EnergyLedger a;
  EnergyLedger b;
  a.add(EnergyCategory::kLaunch, 1.5);
  b.add(EnergyCategory::kLaunch, 2.5);
  b.add(EnergyCategory::kTuning, 1.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.of(EnergyCategory::kLaunch), 4.0);
  EXPECT_DOUBLE_EQ(a.of(EnergyCategory::kTuning), 1.0);
}

}  // namespace
}  // namespace pnoc::photonic
