// Interactive exploration of the Section 3.4.3 area model: sweep the
// aggregate wavelength budget for a configurable chip and compare Firefly,
// d-HetPNoC and the waveguide-restricted d-HetPNoC variant.
//
//   ./build/area_explorer [routers=16] [lambdas_per_wg=64] \
//       [radius_um=5] [max_wavelengths=512] [restrict=2]
//
// Closed-form model only (no simulation scenario); help=1 lists the keys,
// unknown keys are rejected.
#include <iostream>
#include <stdexcept>

#include "metrics/report.hpp"
#include "photonic/area_model.hpp"
#include "scenario/cli.hpp"

using namespace pnoc;

int main(int argc, char** argv) {
  scenario::Cli cli("area_explorer", "Section 3.4.3 area model explorer");
  cli.addKey("routers", "photonic routers on the chip (default 16)");
  cli.addKey("lambdas_per_wg", "DWDM wavelengths per waveguide (default 64)");
  cli.addKey("radius_um", "microring radius in um (default 5)");
  cli.addKey("max_wavelengths", "upper end of the wavelength sweep (default 512)");
  cli.addKey("restrict", "writable waveguides per router in the restricted variant "
                         "(default 2)");
  switch (cli.parse(argc, argv, nullptr)) {
    case scenario::CliStatus::kHelp: return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }
  photonic::AreaParams params;
  double radiusUm = 0.0;
  std::uint32_t maxWavelengths = 0;
  std::uint32_t restrict_ = 0;
  try {
    params.numPhotonicRouters = cli.config().getU32("routers", 16);
    params.lambdasPerWaveguide = cli.config().getU32("lambdas_per_wg", 64);
    radiusUm = cli.config().getDouble("radius_um", photonic::kMrrRadiusUm);
    maxWavelengths = cli.config().getU32("max_wavelengths", 512);
    restrict_ = cli.config().getU32("restrict", 2);
  } catch (const std::invalid_argument& error) {
    std::cerr << "area_explorer: " << error.what() << "\n";
    return 1;
  }

  metrics::ReportTable table(
      "area model: " + std::to_string(params.numPhotonicRouters) + " routers, " +
      std::to_string(params.lambdasPerWaveguide) + " lambdas/waveguide, r=" +
      metrics::ReportTable::num(radiusUm, 1) + " um");
  table.setHeader({"wavelengths", "Firefly mm^2", "d-HetPNoC mm^2",
                   "restricted(" + std::to_string(restrict_) + ") mm^2", "overhead",
                   "restricted overhead"});
  for (std::uint32_t lambdas = params.lambdasPerWaveguide; lambdas <= maxWavelengths;
       lambdas += params.lambdasPerWaveguide) {
    const double firefly = photonic::areaMm2(photonic::fireflyCounts(params, lambdas),
                                             radiusUm);
    const double dhet = photonic::areaMm2(photonic::dhetpnocCounts(params, lambdas),
                                          radiusUm);
    const double restricted = photonic::areaMm2(
        photonic::restrictedDhetpnocCounts(params, lambdas, restrict_),
        radiusUm);
    table.addRow({std::to_string(lambdas), metrics::ReportTable::num(firefly, 3),
                  metrics::ReportTable::num(dhet, 3),
                  metrics::ReportTable::num(restricted, 3),
                  metrics::ReportTable::percent(dhet / firefly - 1.0),
                  metrics::ReportTable::percent(restricted / firefly - 1.0)});
  }
  table.print(std::cout);
  return 0;
}
