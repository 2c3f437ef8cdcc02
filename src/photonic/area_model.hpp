// Closed-form area model of Section 3.4.3, equations (5) through (24).
//
// Counts modulator and detector rings for the d-HetPNoC and for Firefly at a
// given aggregate data-wavelength budget, and converts ring counts to area
// using the 5 um MRR radius of [28].  For the configuration studied in the
// paper (64 data wavelengths, 16 photonic routers, 64 lambdas/waveguide) the
// model reproduces the published 1.608 mm^2 (d-HetPNoC) and 1.367 mm^2
// (Firefly) exactly; tests pin those values.
//
// Also implements the waveguide-restricted variant sketched in the thesis
// conclusion (router x may only use waveguides x and x+1), which trades
// allocation flexibility for a smaller modulator count — tabulated by
// bench/paper_tables and simulated by bench/grids/paper_runs.json.
#pragma once

#include <cstdint>

#include "photonic/wavelength.hpp"

namespace pnoc::photonic {

/// Micro-ring resonator radius in um [28].
inline constexpr double kMrrRadiusUm = 5.0;

struct AreaParams {
  std::uint32_t numPhotonicRouters = 16;  // NPR (Table 3-3: 16 clusters)
  std::uint32_t lambdasPerWaveguide = kMaxWavelengthsPerWaveguide;  // lambda_W
};

/// Ring counts broken down by function, mirroring the terms of the equations.
struct DeviceCounts {
  std::uint64_t modulatorsData = 0;         // N_MDD / N_MDF
  std::uint64_t modulatorsReservation = 0;  // N_MRD / N_MRF
  std::uint64_t modulatorsControl = 0;      // N_MCD (d-HetPNoC only)
  std::uint64_t detectorsData = 0;          // N_DMDD / N_DMDF
  std::uint64_t detectorsReservation = 0;   // N_DMRD / N_DMRF
  std::uint64_t detectorsControl = 0;       // N_DMCD (d-HetPNoC only)

  std::uint64_t totalModulators() const {
    return modulatorsData + modulatorsReservation + modulatorsControl;
  }
  std::uint64_t totalDetectors() const {
    return detectorsData + detectorsReservation + detectorsControl;
  }
  std::uint64_t totalRings() const { return totalModulators() + totalDetectors(); }
};

/// Number of data waveguides N_WD = ceil(Nlambda / lambda_W).
std::uint32_t dataWaveguidesNeeded(std::uint32_t totalDataWavelengths,
                                   std::uint32_t lambdasPerWaveguide);

/// d-HetPNoC device counts, eqs. (5)-(9) and (14)-(18).
DeviceCounts dhetpnocCounts(const AreaParams& params, std::uint32_t totalDataWavelengths);

/// Firefly device counts, eqs. (10)-(13) and (19)-(22).
DeviceCounts fireflyCounts(const AreaParams& params, std::uint32_t totalDataWavelengths);

/// Waveguide-restricted d-HetPNoC (conclusion's mitigation): each router may
/// modulate only on `waveguidesPerRouter` of the data waveguides.
DeviceCounts restrictedDhetpnocCounts(const AreaParams& params,
                                      std::uint32_t totalDataWavelengths,
                                      std::uint32_t waveguidesPerRouter);

/// Total electro-optic device area in mm^2, eqs. (23)/(24): rings * pi * r^2.
double areaMm2(const DeviceCounts& counts, double mrrRadiusUm = kMrrRadiusUm);

}  // namespace pnoc::photonic
