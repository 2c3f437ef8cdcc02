// The paper's tables that come from the library's models rather than from a
// simulation grid: Figure 1-1 (gpusim kernel model), Tables 3-4/3-5 (energy
// constants), the Section 3.4.1.1 reservation-flit timing, the Figure 3-4
// energy decomposition, the Section 3.4.2 application profile, Figure 3-6
// (closed-form area model, eqs. (5)-(24)) and the restricted-waveguide area
// tables of the thesis conclusion.
//
// The simulated figures (3-3, 3-4, 3-5, 3-7, 3-8/3-9, 3-10 and the
// ablations) are the grids under bench/grids/, run by pnoc_run and printed
// by scripts/figure_table.py.  That renderer takes the area column of
// Figures 3-8/3-9 and the area rows of both 64 -> 512 scaling tables from
// the `area` records written here (arch, wavelengths, area_mm2), one per
// Figure 3-6 row, to BENCH_paper_tables.json.
//
// Only the energy decomposition simulates (two fixed-load runs), so
// scenario keys (warmup=, measure=, ...) apply to it alone.
#include <algorithm>
#include <iostream>

#include "core/reservation.hpp"
#include "gpusim/kernel_model.hpp"
#include "metrics/report.hpp"
#include "photonic/area_model.hpp"
#include "photonic/energy_model.hpp"
#include "scenario/cli.hpp"
#include "scenario/scenario_runner.hpp"
#include "traffic/app_profile.hpp"

using namespace pnoc;
using metrics::ReportTable;

namespace {

// Figure 1-1: speedup of 1024B flits over the 32B baseline for CUDA SDK
// (upper case) and Rodinia (lower case) benchmarks at 700 MHz, kernel
// launches in parentheses.  Most gain < 1%, a few up to ~63%: the motivation
// for heterogeneous channels.
void printGpuFlitSpeedup() {
  ReportTable table("Figure 1-1: speedup of 1024B flits over 32B baseline @ 700 MHz");
  table.setHeader({"benchmark", "suite", "speedup", "gain", "achieved Gb/s @128B"});
  gpusim::InterconnectParams profile;
  profile.flitBytes = 128;
  for (const auto& kernel : gpusim::benchmarkRoster()) {
    const double speedup = gpusim::GpuKernelModel::speedup(kernel, 1024);
    table.addRow({kernel.name + " (" + std::to_string(kernel.kernelLaunches) + ")",
                  kernel.fromCudaSdk ? "CUDA SDK" : "Rodinia", ReportTable::num(speedup, 3),
                  ReportTable::percent(speedup - 1.0),
                  ReportTable::num(
                      gpusim::GpuKernelModel::achievedBandwidthGbps(kernel, profile), 1)});
  }
  table.print(std::cout);

  ReportTable sweep("BFS speedup vs flit size (bandwidth-bound kernel)");
  sweep.setHeader({"flit bytes", "speedup over 32B"});
  for (const std::uint32_t flit : {32u, 64u, 128u, 256u, 512u, 1024u}) {
    sweep.addRow({std::to_string(flit),
                  ReportTable::num(gpusim::GpuKernelModel::speedup(
                                       gpusim::benchmarkByName("BFS"), flit),
                                   3)});
  }
  sweep.print(std::cout);
}

void printEnergyConstants() {
  const photonic::EnergyParams energy;
  ReportTable table("Tables 3-4/3-5: energy model inputs");
  table.setHeader({"component", "value"});
  table.addRow({"modulation/demodulation",
                ReportTable::num(energy.modulationPjPerBit, 3) + " pJ/bit"});
  table.addRow({"tuning", ReportTable::num(energy.tuningPjPerBit, 3) + " pJ/bit"});
  table.addRow({"laser launch", ReportTable::num(energy.launchPjPerBit, 3) + " pJ/bit"});
  table.addRow({"photonic buffer", ReportTable::num(energy.bufferPjPerBit, 7) + " pJ/bit"});
  table.addRow({"electrical router",
                ReportTable::num(energy.routerPjPerBit, 3) + " pJ/bit"});
  table.addRow({"laser source",
                ReportTable::num(energy.laserPowerMwPerWavelength, 1) + " mW/wavelength"});
  table.addRow({"tuning power", ReportTable::num(energy.tuningPowerMwPerNm, 1) + " mW/nm"});
  table.print(std::cout);
}

// Section 3.4.1.1: the "no overhead for set 1, one extra cycle for set 3"
// claim behind Figure 3-3.
void printReservationTiming() {
  ReportTable table("Section 3.4.1.1: reservation flit timing (2.5 GHz clock)");
  table.setHeader({"BW set", "waveguides", "max ids", "id bits", "payload bits",
                   "serialization", "cycles"});
  const sim::Clock clock;
  for (int set = 1; set <= 3; ++set) {
    const auto bwSet = traffic::BandwidthSet::byIndex(set);
    const std::uint32_t waveguides =
        photonic::dataWaveguidesNeeded(bwSet.totalWavelengths, 64);
    const std::uint32_t ids = bwSet.maxChannelWavelengths;
    const std::uint32_t bits = core::identifierPayloadBits(ids, waveguides);
    table.addRow({bwSet.name, std::to_string(waveguides), std::to_string(ids),
                  std::to_string(photonic::identifierBits(waveguides)),
                  std::to_string(bits), ReportTable::num(bits / 800.0 * 1000.0, 0) + " ps",
                  std::to_string(core::reservationCycles(ids, waveguides, 64, clock))});
  }
  table.print(std::cout);
}

// Figure 3-4's mechanism (Section 3.4.1.2): both architectures at one
// operating point past Firefly's skewed3 knee; the buffer term carries the
// gap.  Needs the per-category ledger, which no BENCH record carries.
void printEnergyDecomposition(const scenario::ScenarioSpec& base) {
  scenario::ScenarioSpec spec = base;
  spec.params.pattern = "skewed3";
  spec.params.offeredLoad = 0.0012;
  spec.params.architecture = network::Architecture::kFirefly;
  const auto firefly = scenario::runScenario(spec);
  spec.params.architecture = network::Architecture::kDhetpnoc;
  const auto dhet = scenario::runScenario(spec);

  ReportTable table("Packet-energy decomposition, skewed3, BW set 1 (pJ/packet)");
  table.setHeader({"component", "Firefly", "d-HetPNoC"});
  using photonic::EnergyCategory;
  const auto row = [&](const char* name, EnergyCategory category) {
    table.addRow({name,
                  ReportTable::num(firefly.ledger.of(category) /
                                       static_cast<double>(firefly.packetsDelivered), 1),
                  ReportTable::num(dhet.ledger.of(category) /
                                       static_cast<double>(dhet.packetsDelivered), 1)});
  };
  row("launch (incl. laser static)", EnergyCategory::kLaunch);
  row("modulation", EnergyCategory::kModulation);
  row("tuning", EnergyCategory::kTuning);
  row("photonic buffer", EnergyCategory::kPhotonicBuffer);
  row("electrical router", EnergyCategory::kElectricalRouter);
  row("electrical link", EnergyCategory::kElectricalLink);
  table.addRow({"TOTAL", ReportTable::num(firefly.energyPerPacketPj(), 1),
                ReportTable::num(dhet.energyPerPacketPj(), 1)});
  table.print(std::cout);
}

// The demand profile behind Figure 3-5's real-apps rows (MUM/BFS/CP/RAY/LPS
// on 12 GPU clusters + 4 memory clusters).
void printApplicationProfile() {
  noc::ClusterTopology topology;
  traffic::RealApplicationPattern apps(topology, traffic::BandwidthSet::set1());
  ReportTable table("Section 3.4.2: application profile (gpusim, 128B flits @ 700 MHz)");
  table.setHeader({"app", "cores", "clusters", "profiled Gb/s", "lambda demand/cluster"});
  for (const auto& app : apps.placements()) {
    table.addRow({app.name, std::to_string(app.clusters.size() * 4),
                  std::to_string(app.clusters.size()), ReportTable::num(app.totalGbps, 1),
                  std::to_string(app.demandLambdas)});
  }
  table.addRow({"memory", "16", "4", "(responses)",
                std::to_string(apps.memoryDemandLambdas())});
  table.print(std::cout);
}

// Figure 3-6: total device area vs aggregate data wavelengths.  Paper
// anchors: 1.608 mm^2 vs 1.367 mm^2 at 64; the d-HetPNoC overhead grows with
// the waveguide count because every router can modulate any data waveguide.
void printAreaComparison(const photonic::AreaParams& params,
                         scenario::JsonRecorder& recorder) {
  ReportTable table("Figure 3-6: total area vs aggregate data wavelengths");
  table.setHeader({"wavelengths", "waveguides", "Firefly rings", "Firefly mm^2",
                   "d-HetPNoC rings", "d-HetPNoC mm^2", "overhead"});
  for (std::uint32_t lambdas = 64; lambdas <= 512; lambdas += 64) {
    const auto firefly = photonic::fireflyCounts(params, lambdas);
    const auto dhet = photonic::dhetpnocCounts(params, lambdas);
    const double fireflyArea = photonic::areaMm2(firefly);
    const double dhetArea = photonic::areaMm2(dhet);
    table.addRow({std::to_string(lambdas),
                  std::to_string(photonic::dataWaveguidesNeeded(lambdas, 64)),
                  std::to_string(firefly.totalRings()), ReportTable::num(fireflyArea, 3),
                  std::to_string(dhet.totalRings()), ReportTable::num(dhetArea, 3),
                  ReportTable::percent(dhetArea / fireflyArea - 1.0)});
    for (const auto& [arch, area] : {std::pair{"firefly", fireflyArea},
                                     std::pair{"dhetpnoc", dhetArea}}) {
      recorder.add("area").text("arch", arch).integer("wavelengths", lambdas).number(
          "area_mm2", area);
    }
  }
  table.print(std::cout);

  ReportTable breakdown("Device breakdown at 64 wavelengths (paper anchor)");
  breakdown.setHeader({"architecture", "mod data", "mod resv", "mod ctrl", "det data",
                       "det resv", "det ctrl", "area mm^2"});
  const auto add = [&](const char* name, const photonic::DeviceCounts& counts) {
    breakdown.addRow({name, std::to_string(counts.modulatorsData),
                      std::to_string(counts.modulatorsReservation),
                      std::to_string(counts.modulatorsControl),
                      std::to_string(counts.detectorsData),
                      std::to_string(counts.detectorsReservation),
                      std::to_string(counts.detectorsControl),
                      ReportTable::num(photonic::areaMm2(counts), 3)});
  };
  add("Firefly", photonic::fireflyCounts(params, 64));
  add("d-HetPNoC", photonic::dhetpnocCounts(params, 64));
  breakdown.print(std::cout);
  std::cout << "\nPaper anchors: d-HetPNoC 1.608 mm^2, Firefly 1.367 mm^2 at 64"
               " data wavelengths (Section 3.4.3).\n";
}

// The conclusion's area mitigation: router x may modulate only `w` data
// waveguides.  The flexibility cost is bounded analytically by the
// capturable wavelengths; its runtime cost is the writable_waveguides rows of
// bench/grids/paper_runs.json.
void printRestrictedArea(const photonic::AreaParams& params) {
  for (const std::uint32_t lambdas : {256u, 512u}) {
    const std::uint32_t waveguides = photonic::dataWaveguidesNeeded(lambdas, 64);
    ReportTable table("Restricted-waveguide d-HetPNoC at " + std::to_string(lambdas) +
                      " wavelengths (" + std::to_string(waveguides) + " data waveguides)");
    table.setHeader({"writable waveguides/router", "rings", "area mm^2", "area saved",
                     "max capturable lambdas"});
    const double fullArea = photonic::areaMm2(photonic::dhetpnocCounts(params, lambdas));
    for (std::uint32_t w = 1; w <= waveguides; w *= 2) {
      const auto counts = photonic::restrictedDhetpnocCounts(params, lambdas, w);
      const double area = photonic::areaMm2(counts);
      // A router restricted to w waveguides can own at most w*64 wavelengths;
      // the per-channel cap of the matching BW set binds first when smaller.
      table.addRow({std::to_string(w), std::to_string(counts.totalRings()),
                    ReportTable::num(area, 3), ReportTable::percent(area / fullArea - 1.0),
                    std::to_string(std::min(w * 64u, 64u))});
    }
    table.print(std::cout);
  }
  std::cout << "\nTwo waveguides per router retain the full per-channel cap (64\n"
               "lambdas <= 2 x 64) while cutting the data-modulator count by up to\n"
               "4x at 512 wavelengths — supporting the conclusion's proposal.\n";
}

}  // namespace

int main(int argc, char** argv) {
  scenario::ScenarioSpec base;
  base.params.seed = 7;
  scenario::Cli cli("paper_tables",
                    "the paper's model-derived tables (Figs. 1-1, 3-6, Tables 3-4/3-5, ...)");
  cli.addKey("json", "directory for BENCH_paper_tables.json (default .)");
  switch (cli.parse(argc, argv, &base)) {
    case scenario::CliStatus::kHelp: return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }
  const std::string jsonDir = cli.config().getString("json", ".");

  const photonic::AreaParams areaParams;  // 16 routers, 64 lambdas/waveguide
  scenario::JsonRecorder recorder("paper_tables");
  printGpuFlitSpeedup();
  printEnergyConstants();
  printReservationTiming();
  printEnergyDecomposition(base);
  printApplicationProfile();
  printAreaComparison(areaParams, recorder);
  printRestrictedArea(areaParams);

  const std::string written = recorder.write(jsonDir);
  if (written.empty()) return 1;
  std::cout << "wrote " << written << "\n";
  return 0;
}
