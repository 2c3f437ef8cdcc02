// Figure 3-4 (a,b,c): packet energy (energy per message at saturation) of
// Firefly vs d-HetPNoC for uniform-random and skewed traffic, per bandwidth
// set.  Each architecture is measured at its own saturation point, as in the
// paper.  Also reprints Tables 3-4/3-5 (the energy model inputs) and the
// per-category decomposition at skewed3 so the buffer-residency mechanism of
// Section 3.4.1.2 is visible.
//
// All 24 saturation searches run in parallel on the execution backend.
#include <chrono>
#include <iostream>

#include "metrics/report.hpp"
#include "scenario/cli.hpp"
#include "scenario/scenario_runner.hpp"

using namespace pnoc;

int main(int argc, char** argv) {
  scenario::ScenarioSpec base;
  base.params.seed = 7;
  scenario::Cli cli("fig3_4_packet_energy",
                    "Figure 3-4: packet energy at saturation, Firefly vs d-HetPNoC");
  cli.addKey("json", "directory for BENCH_fig3_4.json (default .)");
  switch (cli.parse(argc, argv, &base)) {
    case scenario::CliStatus::kHelp: return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }
  const std::string jsonDir = cli.config().getString("json", ".");
  const auto start = std::chrono::steady_clock::now();

  // Tables 3-4 / 3-5 as configured.
  const photonic::EnergyParams energy;
  metrics::ReportTable constants("Tables 3-4/3-5: energy model inputs");
  constants.setHeader({"component", "value"});
  constants.addRow({"modulation/demodulation",
                    metrics::ReportTable::num(energy.modulationPjPerBit, 3) + " pJ/bit"});
  constants.addRow({"tuning", metrics::ReportTable::num(energy.tuningPjPerBit, 3) + " pJ/bit"});
  constants.addRow({"laser launch",
                    metrics::ReportTable::num(energy.launchPjPerBit, 3) + " pJ/bit"});
  constants.addRow({"photonic buffer",
                    metrics::ReportTable::num(energy.bufferPjPerBit, 7) + " pJ/bit"});
  constants.addRow({"electrical router",
                    metrics::ReportTable::num(energy.routerPjPerBit, 3) + " pJ/bit"});
  constants.addRow({"laser source",
                    metrics::ReportTable::num(energy.laserPowerMwPerWavelength, 1) +
                        " mW/wavelength"});
  constants.addRow({"tuning power",
                    metrics::ReportTable::num(energy.tuningPowerMwPerNm, 1) + " mW/nm"});
  constants.print(std::cout);

  // Point layout: [set-1][pattern][arch], arch 0 = Firefly.
  const std::string patterns[] = {"uniform", "skewed1", "skewed2", "skewed3"};
  std::vector<scenario::ScenarioSpec> specs;
  for (int set = 1; set <= 3; ++set) {
    for (const auto& pattern : patterns) {
      for (const auto arch :
           {network::Architecture::kFirefly, network::Architecture::kDhetpnoc}) {
        scenario::ScenarioSpec spec = base;
        spec.params.bandwidthSet = traffic::BandwidthSet::byIndex(set);
        spec.params.pattern = pattern;
        spec.params.architecture = arch;
        specs.push_back(spec);
      }
    }
  }
  const auto backend = scenario::makeBackend(cli.backendOptions());
  const auto peaks = backend->findPeaks(specs);

  scenario::JsonRecorder recorder("fig3_4");
  std::size_t point = 0;
  for (int set = 1; set <= 3; ++set) {
    const auto bwSet = traffic::BandwidthSet::byIndex(set);
    metrics::ReportTable table("Figure 3-4(" + std::string(1, char('a' + set - 1)) +
                               "): Packet Energy, " + bwSet.name + " (Total Wavelengths = " +
                               std::to_string(bwSet.totalWavelengths) + ")");
    table.setHeader({"traffic", "Firefly EPM (pJ)", "d-HetPNoC EPM (pJ)", "d-HetPNoC delta"});
    for (const auto& pattern : patterns) {
      const auto& firefly = peaks[point++];
      const auto& dhet = peaks[point++];
      const double fireflyEpm = firefly.search.peak.metrics.energyPerPacketPj();
      const double dhetEpm = dhet.search.peak.metrics.energyPerPacketPj();
      table.addRow({pattern, metrics::ReportTable::num(fireflyEpm, 1),
                    metrics::ReportTable::num(dhetEpm, 1),
                    metrics::ReportTable::percent(dhetEpm / fireflyEpm - 1.0)});
      scenario::recordPeak(recorder, firefly);
      scenario::recordPeak(recorder, dhet);
    }
    table.print(std::cout);
  }

  // Decomposition at skewed3 / set 1, both architectures at a common
  // operating point past Firefly's knee: the buffer term carries the gap.
  metrics::ReportTable split("Packet-energy decomposition, skewed3, BW set 1 (pJ/packet)");
  split.setHeader({"component", "Firefly", "d-HetPNoC"});
  scenario::ScenarioSpec splitSpec = base;
  splitSpec.params.pattern = "skewed3";
  splitSpec.params.offeredLoad = 0.0012;
  splitSpec.params.architecture = network::Architecture::kFirefly;
  const auto firefly = scenario::runScenario(splitSpec);
  splitSpec.params.architecture = network::Architecture::kDhetpnoc;
  const auto dhet = scenario::runScenario(splitSpec);
  using photonic::EnergyCategory;
  const auto row = [&](const char* name, EnergyCategory category) {
    split.addRow({name,
                  metrics::ReportTable::num(firefly.ledger.of(category) /
                                            static_cast<double>(firefly.packetsDelivered), 1),
                  metrics::ReportTable::num(dhet.ledger.of(category) /
                                            static_cast<double>(dhet.packetsDelivered), 1)});
  };
  row("launch (incl. laser static)", EnergyCategory::kLaunch);
  row("modulation", EnergyCategory::kModulation);
  row("tuning", EnergyCategory::kTuning);
  row("photonic buffer", EnergyCategory::kPhotonicBuffer);
  row("electrical router", EnergyCategory::kElectricalRouter);
  row("electrical link", EnergyCategory::kElectricalLink);
  split.addRow({"TOTAL", metrics::ReportTable::num(firefly.energyPerPacketPj(), 1),
                metrics::ReportTable::num(dhet.energyPerPacketPj(), 1)});
  split.print(std::cout);

  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  scenario::recordTiming(recorder, wallSeconds, specs.size() + 2);
  std::cout << "wrote " << recorder.write(jsonDir) << " (" << wallSeconds << " s)\n";
  return 0;
}
