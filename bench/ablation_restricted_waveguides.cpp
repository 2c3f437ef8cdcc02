// Ablation of the thesis conclusion's area mitigation: restrict each photonic
// router to modulating only `w` of the data waveguides (e.g. waveguides x and
// x+1 for router x) instead of all of them.  The closed-form area model
// quantifies the modulator savings; the flexibility cost is the reduced set
// of wavelengths a router can actually capture, bounded here analytically by
// the capturable fraction of the tradeable pool.
#include <algorithm>
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
  base.params.bandwidthSet = traffic::BandwidthSet::byIndex(3);
  base.params.offeredLoad = 0.006;
  base.params.seed = 7;
  scenario::Cli cli("ablation_restricted_waveguides",
                    "restricted-waveguide d-HetPNoC: runtime and area tradeoff");
  cli.addKey("json", "directory for BENCH_ablation_restricted_waveguides.json (default .)");
  switch (cli.parse(argc, argv, &base)) {
    case scenario::CliStatus::kHelp: return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }
  const std::string jsonDir = cli.config().getString("json", ".");
  const auto start = std::chrono::steady_clock::now();

  // Runtime comparison: the restricted DBA on the full system (skewed3,
  // BW set 3 where 8 data waveguides make the restriction bite).
  const std::uint32_t widths[] = {0, 4, 2, 1};
  std::vector<scenario::ScenarioSpec> specs;
  for (const std::uint32_t w : widths) {
    scenario::ScenarioSpec spec = base;
    spec.params.writableWaveguides = w;
    spec.label = w == 0 ? "unrestricted" : "writable=" + std::to_string(w);
    specs.push_back(spec);
  }
  const auto results = scenario::makeBackend(cli.backendOptions())->run(specs);
  scenario::JsonRecorder recorder("ablation_restricted_waveguides");

  metrics::ReportTable table(
      "Runtime: restricted DBA on the full system (skewed3, BW set 3, load 0.006)");
  table.setHeader({"writable waveguides/router", "Gb/s", "accept", "avg lat", "EPM pJ"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& m = results[i].metrics;
    table.addRow({widths[i] == 0 ? "unrestricted" : std::to_string(widths[i]),
                  metrics::ReportTable::num(m.deliveredGbps()),
                  metrics::ReportTable::num(m.acceptance(), 3),
                  metrics::ReportTable::num(m.avgLatencyCycles(), 1),
                  metrics::ReportTable::num(m.energyPerPacketPj(), 1)});
    scenario::recordRun(recorder, results[i].spec, m);
  }
  table.print(std::cout);

  const photonic::AreaParams params;
  for (const std::uint32_t lambdas : {256u, 512u}) {
    const std::uint32_t waveguides = photonic::dataWaveguidesNeeded(lambdas, 64);
    metrics::ReportTable areaTable("Restricted-waveguide d-HetPNoC at " +
                                   std::to_string(lambdas) + " wavelengths (" +
                                   std::to_string(waveguides) + " data waveguides)");
    areaTable.setHeader({"writable waveguides/router", "rings", "area mm^2", "area saved",
                         "max capturable lambdas"});
    const auto full = photonic::dhetpnocCounts(params, lambdas);
    const double fullArea = photonic::areaMm2(full);
    for (std::uint32_t w = 1; w <= waveguides; w *= 2) {
      const auto counts = photonic::restrictedDhetpnocCounts(params, lambdas, w);
      const double area = photonic::areaMm2(counts);
      // A router restricted to w waveguides can own at most w*64 wavelengths;
      // the per-channel cap of the matching BW set binds first when smaller.
      const std::uint32_t capturable = std::min(w * 64u, 64u);
      areaTable.addRow({std::to_string(w), std::to_string(counts.totalRings()),
                        metrics::ReportTable::num(area, 3),
                        metrics::ReportTable::percent(area / fullArea - 1.0),
                        std::to_string(capturable)});
    }
    areaTable.print(std::cout);
  }
  std::cout << "\nTwo waveguides per router retain the full per-channel cap (64\n"
               "lambdas <= 2 x 64) while cutting the data-modulator count by up to\n"
               "4x at 512 wavelengths — supporting the conclusion's proposal.\n";

  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  scenario::recordTiming(recorder, wallSeconds, specs.size());
  std::cout << "wrote " << recorder.write(jsonDir) << " (" << wallSeconds << " s)\n";
  return 0;
}
