// Figure 3-5: case studies with synthetic (skewed-hotspot 1..4) and real
// application based traffic (MUM/BFS/CP/RAY/LPS on 12 GPU clusters + 4 memory
// clusters, demands profiled via the gpusim substrate at 128B flits/700 MHz).
//
// Paper shape: d-HetPNoC's peak core bandwidth is higher and its packet
// energy lower in every case, with the same trend regardless of the hotspot
// percentage.
//
// The 10 saturation searches run in parallel on the execution backend.
#include <chrono>
#include <iostream>

#include "metrics/report.hpp"
#include "scenario/cli.hpp"
#include "scenario/scenario_runner.hpp"
#include "traffic/app_profile.hpp"

using namespace pnoc;

int main(int argc, char** argv) {
  scenario::ScenarioSpec base;
  base.params.seed = 7;
  scenario::Cli cli("fig3_5_case_studies",
                    "Figure 3-5: skewed-hotspot and real-application case studies");
  cli.addKey("json", "directory for BENCH_fig3_5.json (default .)");
  switch (cli.parse(argc, argv, &base)) {
    case scenario::CliStatus::kHelp: return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }
  const std::string jsonDir = cli.config().getString("json", ".");
  const auto start = std::chrono::steady_clock::now();

  // The application demand profile backing the real-apps rows.
  noc::ClusterTopology topology;
  traffic::RealApplicationPattern apps(topology, traffic::BandwidthSet::set1());
  metrics::ReportTable profile(
      "Section 3.4.2: application profile (gpusim, 128B flits @ 700 MHz)");
  profile.setHeader({"app", "cores", "clusters", "profiled Gb/s", "lambda demand/cluster"});
  for (const auto& app : apps.placements()) {
    profile.addRow({app.name, std::to_string(app.clusters.size() * 4),
                    std::to_string(app.clusters.size()),
                    metrics::ReportTable::num(app.totalGbps, 1),
                    std::to_string(app.demandLambdas)});
  }
  profile.addRow({"memory", "16", "4", "(responses)",
                  std::to_string(apps.memoryDemandLambdas())});
  profile.print(std::cout);

  const std::string patterns[] = {"skewed-hotspot1", "skewed-hotspot2", "skewed-hotspot3",
                                  "skewed-hotspot4", "real-apps"};
  std::vector<scenario::ScenarioSpec> specs;
  for (const auto& pattern : patterns) {
    for (const auto arch :
         {network::Architecture::kFirefly, network::Architecture::kDhetpnoc}) {
      scenario::ScenarioSpec spec = base;
      spec.params.pattern = pattern;
      spec.params.architecture = arch;
      specs.push_back(spec);
    }
  }
  const auto peaks = scenario::makeBackend(cli.backendOptions())->findPeaks(specs);

  scenario::JsonRecorder recorder("fig3_5");
  metrics::ReportTable table("Figure 3-5: Peak Core Bandwidth and Packet Energy, BW set 1");
  table.setHeader({"traffic", "Firefly (Gb/s/core)", "d-HetPNoC (Gb/s/core)", "BW gain",
                   "Firefly EPM (pJ)", "d-HetPNoC EPM (pJ)", "EPM delta"});
  std::size_t point = 0;
  for (const auto& pattern : patterns) {
    const auto& firefly = peaks[point++];
    const auto& dhet = peaks[point++];
    const double fireflyCore = firefly.search.peak.metrics.deliveredGbpsPerCore(64);
    const double dhetCore = dhet.search.peak.metrics.deliveredGbpsPerCore(64);
    const double fireflyEpm = firefly.search.peak.metrics.energyPerPacketPj();
    const double dhetEpm = dhet.search.peak.metrics.energyPerPacketPj();
    table.addRow({pattern, metrics::ReportTable::num(fireflyCore, 3),
                  metrics::ReportTable::num(dhetCore, 3),
                  metrics::ReportTable::percent(dhetCore / fireflyCore - 1.0),
                  metrics::ReportTable::num(fireflyEpm, 1),
                  metrics::ReportTable::num(dhetEpm, 1),
                  metrics::ReportTable::percent(dhetEpm / fireflyEpm - 1.0)});
    scenario::recordPeak(recorder, firefly);
    scenario::recordPeak(recorder, dhet);
  }
  table.print(std::cout);

  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  scenario::recordTiming(recorder, wallSeconds, specs.size());
  std::cout << "wrote " << recorder.write(jsonDir) << " (" << wallSeconds << " s)\n";
  return 0;
}
