// Figure 3-7 (a,b): d-HetPNoC peak core bandwidth and energy per message
// across the three bandwidth sets for uniform-random and skewed traffic.
//
// Paper shape: peak bandwidth rises strongly with the aggregate wavelength
// budget while energy per message falls slightly.
//
// The 12 saturation searches are declared as ScenarioSpecs and fanned across
// the execution backend; key=value overrides (seed=, measure=, ...) apply
// to every point, help=1 lists them.
#include <chrono>
#include <iostream>

#include "metrics/report.hpp"
#include "scenario/cli.hpp"
#include "scenario/scenario_runner.hpp"

using namespace pnoc;

int main(int argc, char** argv) {
  scenario::ScenarioSpec base;
  base.params.architecture = network::Architecture::kDhetpnoc;
  base.params.seed = 7;
  scenario::Cli cli("fig3_7_dhet_bwsets",
                    "Figure 3-7: d-HetPNoC peak core bandwidth and EPM per bandwidth set");
  cli.addKey("json", "directory for BENCH_fig3_7.json (default .)");
  switch (cli.parse(argc, argv, &base)) {
    case scenario::CliStatus::kHelp: return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }
  const std::string jsonDir = cli.config().getString("json", ".");

  const std::string patterns[] = {"uniform", "skewed1", "skewed2", "skewed3"};
  const auto start = std::chrono::steady_clock::now();

  std::vector<scenario::ScenarioSpec> specs;
  for (const auto& pattern : patterns) {
    for (int set = 1; set <= 3; ++set) {
      scenario::ScenarioSpec spec = base;
      spec.params.bandwidthSet = traffic::BandwidthSet::byIndex(set);
      spec.params.pattern = pattern;
      specs.push_back(spec);
    }
  }
  const auto peaks = scenario::makeBackend(cli.backendOptions())->findPeaks(specs);

  metrics::ReportTable bw("Figure 3-7(a): d-HetPNoC Peak Core Bandwidth (Gb/s/core)");
  bw.setHeader({"traffic", "BW set 1 (64)", "BW set 2 (256)", "BW set 3 (512)"});
  metrics::ReportTable epm("Figure 3-7(b): d-HetPNoC Energy Per Message (pJ)");
  epm.setHeader({"traffic", "BW set 1 (64)", "BW set 2 (256)", "BW set 3 (512)"});

  scenario::JsonRecorder recorder("fig3_7");
  std::size_t point = 0;
  for (const auto& pattern : patterns) {
    std::vector<std::string> bwRow{pattern};
    std::vector<std::string> epmRow{pattern};
    for (int set = 1; set <= 3; ++set, ++point) {
      const auto& peak = peaks[point];
      bwRow.push_back(
          metrics::ReportTable::num(peak.search.peak.metrics.deliveredGbpsPerCore(64), 3));
      epmRow.push_back(
          metrics::ReportTable::num(peak.search.peak.metrics.energyPerPacketPj(), 1));
      scenario::recordPeak(recorder, peak);
    }
    bw.addRow(bwRow);
    epm.addRow(epmRow);
  }
  bw.print(std::cout);
  epm.print(std::cout);

  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  scenario::recordTiming(recorder, wallSeconds, specs.size());
  std::cout << "wrote " << recorder.write(jsonDir) << " (" << wallSeconds << " s)\n";
  return 0;
}
