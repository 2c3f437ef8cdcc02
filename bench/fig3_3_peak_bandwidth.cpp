// Figure 3-3 (a,b,c): peak bandwidth of Firefly vs d-HetPNoC for
// uniform-random and skewed traffic, one panel per bandwidth set.
//
// Paper shape: equal under uniform-random (identical configurations); the
// d-HetPNoC advantage grows with skew.  Also prints the Section 3.4.1.1
// reservation-flit timing analysis that underpins the "no overhead for set 1,
// one extra cycle for set 3" claim.
//
// All 24 saturation searches (3 sets x 4 patterns x 2 architectures) are
// ScenarioSpecs fanned across the execution backend; the companion table
// reuses the Firefly set-1 knees instead of re-searching them.
#include <chrono>
#include <iostream>

#include "core/reservation.hpp"
#include "metrics/report.hpp"
#include "photonic/area_model.hpp"
#include "scenario/cli.hpp"
#include "scenario/scenario_runner.hpp"

using namespace pnoc;

int main(int argc, char** argv) {
  scenario::ScenarioSpec base;
  base.params.seed = 7;
  scenario::Cli cli("fig3_3_peak_bandwidth",
                    "Figure 3-3: peak bandwidth, Firefly vs d-HetPNoC, per bandwidth set");
  cli.addKey("json", "directory for BENCH_fig3_3.json (default .)");
  switch (cli.parse(argc, argv, &base)) {
    case scenario::CliStatus::kHelp: return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }
  const std::string jsonDir = cli.config().getString("json", ".");

  const std::string patterns[] = {"uniform", "skewed1", "skewed2", "skewed3"};
  const auto start = std::chrono::steady_clock::now();

  // Point layout: [set-1][pattern-index][arch] with arch 0 = Firefly.
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
  const auto peakAt = [&](int set, std::size_t patternIndex, int arch) -> const auto& {
    return peaks[((set - 1) * 4 + patternIndex) * 2 + static_cast<std::size_t>(arch)];
  };

  scenario::JsonRecorder recorder("fig3_3");
  for (int set = 1; set <= 3; ++set) {
    const auto bwSet = traffic::BandwidthSet::byIndex(set);
    metrics::ReportTable table("Figure 3-3(" + std::string(1, char('a' + set - 1)) +
                               "): Peak Bandwidth, " + bwSet.name + " (Total Wavelengths = " +
                               std::to_string(bwSet.totalWavelengths) + ")");
    table.setHeader({"traffic", "Firefly (Gb/s)", "d-HetPNoC (Gb/s)", "d-HetPNoC gain",
                     "Firefly load*", "d-HetPNoC load*"});
    for (std::size_t p = 0; p < 4; ++p) {
      const auto& firefly = peakAt(set, p, 0);
      const auto& dhet = peakAt(set, p, 1);
      const double fireflyGbps = firefly.search.peak.metrics.deliveredGbps();
      const double dhetGbps = dhet.search.peak.metrics.deliveredGbps();
      table.addRow({patterns[p], metrics::ReportTable::num(fireflyGbps),
                    metrics::ReportTable::num(dhetGbps),
                    metrics::ReportTable::percent(dhetGbps / fireflyGbps - 1.0),
                    metrics::ReportTable::num(firefly.search.peak.offeredLoad, 5),
                    metrics::ReportTable::num(dhet.search.peak.offeredLoad, 5)});
      scenario::recordPeak(recorder, firefly);
      scenario::recordPeak(recorder, dhet);
    }
    table.print(std::cout);
  }

  // Secondary view: delivered bandwidth with BOTH architectures at the SAME
  // offered load, chosen as Firefly's saturation knee.  This is the closest
  // analog of measuring both networks at one injection point (how the
  // paper's ~0.1%..7% deltas read); the mix-preserving per-architecture
  // peaks above show the full headroom instead.  The knees come from the
  // parallel block above; only the d-HetPNoC points at those loads run here.
  {
    std::vector<scenario::ScenarioSpec> points;
    for (std::size_t p = 0; p < 4; ++p) {
      scenario::ScenarioSpec spec = base;
      spec.params.pattern = patterns[p];
      spec.params.architecture = network::Architecture::kDhetpnoc;
      spec.params.offeredLoad = peakAt(1, p, 0).search.peak.offeredLoad;
      points.push_back(spec);
    }
    const auto dhetAtKnee = backend->run(points);

    metrics::ReportTable table(
        "Fig 3-3 companion: delivered Gb/s at a common load (Firefly knee), BW set 1");
    table.setHeader({"traffic", "load", "Firefly (Gb/s)", "d-HetPNoC (Gb/s)", "gain"});
    for (std::size_t p = 0; p < 4; ++p) {
      const auto& firefly = peakAt(1, p, 0).search.peak.metrics;
      const auto& dhet = dhetAtKnee[p].metrics;
      table.addRow({patterns[p],
                    metrics::ReportTable::num(points[p].params.offeredLoad, 5),
                    metrics::ReportTable::num(firefly.deliveredGbps()),
                    metrics::ReportTable::num(dhet.deliveredGbps()),
                    metrics::ReportTable::percent(
                        dhet.deliveredGbps() / firefly.deliveredGbps() - 1.0)});
    }
    table.print(std::cout);
  }

  // Section 3.4.1.1 reservation timing analysis.
  metrics::ReportTable timing("Section 3.4.1.1: reservation flit timing (2.5 GHz clock)");
  timing.setHeader({"BW set", "waveguides", "max ids", "id bits", "payload bits",
                    "serialization", "cycles"});
  const sim::Clock clock;
  for (int set = 1; set <= 3; ++set) {
    const auto bwSet = traffic::BandwidthSet::byIndex(set);
    const std::uint32_t waveguides =
        photonic::dataWaveguidesNeeded(bwSet.totalWavelengths, 64);
    const std::uint32_t ids = bwSet.maxChannelWavelengths;
    const std::uint32_t bits = core::identifierPayloadBits(ids, waveguides);
    const Cycle cycles = core::reservationCycles(ids, waveguides, 64, clock);
    timing.addRow({bwSet.name, std::to_string(waveguides), std::to_string(ids),
                   std::to_string(photonic::identifierBits(waveguides)),
                   std::to_string(bits),
                   metrics::ReportTable::num(bits / 800.0 * 1000.0, 0) + " ps",
                   std::to_string(cycles)});
  }
  timing.print(std::cout);
  std::cout << "\n* load = offered packets/core/cycle at the peak (mix-preserving"
               " acceptance >= 0.90; see DESIGN.md).\n";

  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  scenario::recordTiming(recorder, wallSeconds, specs.size() + 4);
  std::cout << "wrote " << recorder.write(jsonDir) << " (" << wallSeconds << " s)\n";
  return 0;
}
