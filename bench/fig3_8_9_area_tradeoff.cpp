// Figures 3-8 and 3-9: d-HetPNoC area vs peak bandwidth (3-8) and area vs
// energy per message (3-9) for the skewed-3 pattern as the total wavelength
// budget grows 64 -> 256 -> 512.
//
// Paper anchors (64 -> 512): total area +70%, peak bandwidth +751.31%,
// packet energy -10.89%.
//
// The three saturation searches run in parallel on the execution backend.
#include <chrono>
#include <iostream>

#include "metrics/report.hpp"
#include "photonic/area_model.hpp"
#include "scenario/cli.hpp"
#include "scenario/scenario_runner.hpp"

using namespace pnoc;

int main(int argc, char** argv) {
  scenario::ScenarioSpec base;
  base.params.architecture = network::Architecture::kDhetpnoc;
  base.params.pattern = "skewed3";
  base.params.seed = 7;
  scenario::Cli cli("fig3_8_9_area_tradeoff",
                    "Figures 3-8/3-9: d-HetPNoC area vs peak bandwidth and EPM");
  cli.addKey("json", "directory for BENCH_fig3_8_9.json (default .)");
  switch (cli.parse(argc, argv, &base)) {
    case scenario::CliStatus::kHelp: return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }
  const std::string jsonDir = cli.config().getString("json", ".");
  const auto start = std::chrono::steady_clock::now();

  std::vector<scenario::ScenarioSpec> specs;
  for (const int set : {1, 2, 3}) {
    scenario::ScenarioSpec spec = base;
    spec.params.bandwidthSet = traffic::BandwidthSet::byIndex(set);
    specs.push_back(spec);
  }
  const auto peaks = scenario::makeBackend(cli.backendOptions())->findPeaks(specs);

  const photonic::AreaParams areaParams;
  metrics::ReportTable table(
      "Figures 3-8/3-9: d-HetPNoC area vs peak bandwidth and EPM (skewed3)");
  table.setHeader({"wavelengths", "area mm^2", "peak BW (Gb/s)", "EPM (pJ)"});

  scenario::JsonRecorder recorder("fig3_8_9");
  double area64 = 0.0;
  double bw64 = 0.0;
  double epm64 = 0.0;
  double area512 = 0.0;
  double bw512 = 0.0;
  double epm512 = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::uint32_t lambdas = specs[i].params.bandwidthSet.totalWavelengths;
    const double area = photonic::areaMm2(photonic::dhetpnocCounts(areaParams, lambdas));
    const double bw = peaks[i].search.peak.metrics.deliveredGbps();
    const double epm = peaks[i].search.peak.metrics.energyPerPacketPj();
    table.addRow({std::to_string(lambdas), metrics::ReportTable::num(area, 3),
                  metrics::ReportTable::num(bw), metrics::ReportTable::num(epm, 1)});
    scenario::recordPeak(recorder, peaks[i]).number("area_mm2", area);
    if (lambdas == 64) {
      area64 = area;
      bw64 = bw;
      epm64 = epm;
    }
    if (lambdas == 512) {
      area512 = area;
      bw512 = bw;
      epm512 = epm;
    }
  }
  table.print(std::cout);

  metrics::ReportTable deltas(
      "64 -> 512 wavelength scaling (paper: +70% area, +751.31% BW, -10.89% EPM)");
  deltas.setHeader({"quantity", "measured", "paper"});
  deltas.addRow({"total area", metrics::ReportTable::percent(area512 / area64 - 1.0), "+70%"});
  deltas.addRow({"peak bandwidth", metrics::ReportTable::percent(bw512 / bw64 - 1.0),
                 "+751.31%"});
  deltas.addRow({"energy per message", metrics::ReportTable::percent(epm512 / epm64 - 1.0),
                 "-10.89%"});
  deltas.print(std::cout);

  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  scenario::recordTiming(recorder, wallSeconds, specs.size());
  std::cout << "wrote " << recorder.write(jsonDir) << " (" << wallSeconds << " s)\n";
  return 0;
}
