// Ablations of the d-HetPNoC design choices called out in DESIGN.md:
//   1. Token hop latency — eq. (2) vs artificially slower rings (how much
//      does allocation latency matter once demand is steady?).
//   2. Reserved wavelengths per cluster — the starvation guard (1 in the
//      paper) vs larger floors that shrink the tradeable pool.
//   3. Per-channel wavelength cap — Table 3-3's 8 for set 1 vs smaller and
//      larger caps.
// All under skewed3 / BW set 1, at a fixed load near Firefly's knee so the
// effects are visible.  Every ablation point is a ScenarioSpec variation on
// one base spec; all points fan across the execution backend.
#include <chrono>
#include <iostream>

#include "metrics/report.hpp"
#include "scenario/cli.hpp"
#include "scenario/scenario_runner.hpp"

using namespace pnoc;

namespace {

void addRow(metrics::ReportTable& table, const std::string& label,
            const metrics::RunMetrics& m) {
  table.addRow({label, metrics::ReportTable::num(m.deliveredGbps()),
                metrics::ReportTable::num(m.acceptance(), 3),
                metrics::ReportTable::num(m.avgLatencyCycles(), 1),
                metrics::ReportTable::num(m.energyPerPacketPj(), 1)});
}

}  // namespace

int main(int argc, char** argv) {
  scenario::ScenarioSpec base;
  base.params.architecture = network::Architecture::kDhetpnoc;
  base.params.pattern = "skewed3";
  base.params.offeredLoad = 0.0012;
  base.params.seed = 7;
  scenario::Cli cli("ablation_dba",
                    "DBA ablations: token hop latency, reserved floor, channel cap");
  cli.addKey("json", "directory for BENCH_ablation_dba.json (default .)");
  switch (cli.parse(argc, argv, &base)) {
    case scenario::CliStatus::kHelp: return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }
  const std::string jsonDir = cli.config().getString("json", ".");
  const auto start = std::chrono::steady_clock::now();

  const Cycle hops[] = {1, 4, 16, 64, 256};
  const std::uint32_t reserves[] = {1, 2, 3, 4};
  const std::uint32_t caps[] = {2, 4, 8, 16};

  std::vector<scenario::ScenarioSpec> specs;
  for (const Cycle hop : hops) {
    scenario::ScenarioSpec spec = base;
    spec.params.tokenHopCyclesOverride = hop;
    spec.label = "token_hop=" + std::to_string(hop);
    specs.push_back(spec);
  }
  for (const std::uint32_t reserved : reserves) {
    scenario::ScenarioSpec spec = base;
    spec.params.reservedPerCluster = reserved;
    spec.label = "reserved=" + std::to_string(reserved);
    specs.push_back(spec);
  }
  for (const std::uint32_t cap : caps) {
    scenario::ScenarioSpec spec = base;
    spec.params.maxChannelWavelengthsOverride = cap;
    spec.label = "channel_cap=" + std::to_string(cap);
    specs.push_back(spec);
  }
  const auto results = scenario::makeBackend(cli.backendOptions())->run(specs);
  scenario::JsonRecorder recorder("ablation_dba");
  for (const auto& result : results) {
    scenario::recordRun(recorder, result.spec, result.metrics);
  }

  std::size_t point = 0;
  {
    metrics::ReportTable table("Ablation: token hop latency (skewed3, set 1, load 0.0012)");
    table.setHeader({"hop latency", "Gb/s", "accept", "avg lat", "EPM pJ"});
    for (const Cycle hop : hops) {
      addRow(table, std::to_string(hop) + " cycles", results[point++].metrics);
    }
    table.print(std::cout);
    std::cout << "Steady demand makes the ring latency nearly free (allocation happens\n"
                 "once); it would matter under rapid task remapping (Section 3.2.1).\n";
  }
  {
    metrics::ReportTable table("Ablation: reserved wavelengths per cluster");
    table.setHeader({"reserved/cluster", "Gb/s", "accept", "avg lat", "EPM pJ"});
    for (const std::uint32_t reserved : reserves) {
      addRow(table, std::to_string(reserved), results[point++].metrics);
    }
    table.print(std::cout);
    std::cout << "A larger floor shrinks the tradeable pool (N_TW of eq. (1)) and with\n"
                 "it the hot clusters' achievable channel width under skew.\n";
  }
  {
    metrics::ReportTable table("Ablation: per-channel wavelength cap (Table 3-3 uses 8)");
    table.setHeader({"cap", "Gb/s", "accept", "avg lat", "EPM pJ"});
    for (const std::uint32_t cap : caps) {
      addRow(table, std::to_string(cap), results[point++].metrics);
    }
    table.print(std::cout);
    std::cout << "Caps below the hot class's demand (8 lambdas) reproduce Firefly-like\n"
                 "congestion; caps above it cannot help because demand, not supply,\n"
                 "saturates first.\n";
  }

  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  scenario::recordTiming(recorder, wallSeconds, specs.size());
  std::cout << "wrote " << recorder.write(jsonDir) << " (" << wallSeconds << " s)\n";
  return 0;
}
