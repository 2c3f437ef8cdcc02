// Figure 3-10 (a,b): Firefly peak core bandwidth and energy per message
// across the three bandwidth sets, for uniform-random and skewed traffic.
//
// Paper shape: same growth-with-budget trend as d-HetPNoC (Fig 3-7), but the
// absolute peak bandwidths are lower and the energies per message higher
// under skew.  The 64 -> 512 scaling anchors quoted in the text: area
// +41.17% (see the area-model tests for the 256-vs-512 typo note),
// bandwidth +764.52%, EPM -10.85%.
//
// All 12 saturation searches are ScenarioSpecs fanned across the
// execution backend; key=value overrides apply to every point.
#include <chrono>
#include <iostream>

#include "metrics/report.hpp"
#include "photonic/area_model.hpp"
#include "scenario/cli.hpp"
#include "scenario/scenario_runner.hpp"

using namespace pnoc;

int main(int argc, char** argv) {
  scenario::ScenarioSpec base;
  base.params.architecture = network::Architecture::kFirefly;
  base.params.seed = 7;
  scenario::Cli cli("fig3_10_firefly_bwsets",
                    "Figure 3-10: Firefly peak core bandwidth and EPM per bandwidth set");
  cli.addKey("json", "directory for BENCH_fig3_10.json (default .)");
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

  metrics::ReportTable bw("Figure 3-10(a): Firefly Peak Core Bandwidth (Gb/s/core)");
  bw.setHeader({"traffic", "BW set 1 (64)", "BW set 2 (256)", "BW set 3 (512)"});
  metrics::ReportTable epm("Figure 3-10(b): Firefly Energy Per Message (pJ)");
  epm.setHeader({"traffic", "BW set 1 (64)", "BW set 2 (256)", "BW set 3 (512)"});

  scenario::JsonRecorder recorder("fig3_10");
  double bw64skew3 = 0.0;
  double bw512skew3 = 0.0;
  double epm64skew3 = 0.0;
  double epm512skew3 = 0.0;
  std::size_t point = 0;
  for (const auto& pattern : patterns) {
    std::vector<std::string> bwRow{pattern};
    std::vector<std::string> epmRow{pattern};
    for (int set = 1; set <= 3; ++set, ++point) {
      const auto& m = peaks[point].search.peak.metrics;
      bwRow.push_back(metrics::ReportTable::num(m.deliveredGbpsPerCore(64), 3));
      epmRow.push_back(metrics::ReportTable::num(m.energyPerPacketPj(), 1));
      scenario::recordPeak(recorder, peaks[point]);
      if (pattern == "skewed3" && set == 1) {
        bw64skew3 = m.deliveredGbps();
        epm64skew3 = m.energyPerPacketPj();
      }
      if (pattern == "skewed3" && set == 3) {
        bw512skew3 = m.deliveredGbps();
        epm512skew3 = m.energyPerPacketPj();
      }
    }
    bw.addRow(bwRow);
    epm.addRow(epmRow);
  }
  bw.print(std::cout);
  epm.print(std::cout);

  const photonic::AreaParams areaParams;
  const double area64 = photonic::areaMm2(photonic::fireflyCounts(areaParams, 64));
  const double area512 = photonic::areaMm2(photonic::fireflyCounts(areaParams, 512));
  metrics::ReportTable deltas(
      "Firefly 64 -> 512 scaling (paper: +41.17% area, +764.52% BW, -10.85% EPM)");
  deltas.setHeader({"quantity", "measured", "paper"});
  deltas.addRow({"total area", metrics::ReportTable::percent(area512 / area64 - 1.0),
                 "+41.17%"});
  deltas.addRow({"peak bandwidth (skewed3)",
                 metrics::ReportTable::percent(bw512skew3 / bw64skew3 - 1.0), "+764.52%"});
  deltas.addRow({"energy per message (skewed3)",
                 metrics::ReportTable::percent(epm512skew3 / epm64skew3 - 1.0), "-10.85%"});
  deltas.print(std::cout);

  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  scenario::recordTiming(recorder, wallSeconds, specs.size());
  std::cout << "wrote " << recorder.write(jsonDir) << " (" << wallSeconds << " s)\n";
  return 0;
}
