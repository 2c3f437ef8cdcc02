// Quickstart: simulate the paper's 64-core / 16-cluster chip under a skewed
// traffic pattern with both architectures and print the comparison.
//
//   ./build/quickstart [pattern=skewed3] [set=1] [load=0.002] [seed=1] ...
//
// Every ScenarioSpec key is accepted (help=1 lists them); unknown keys are
// rejected.  The arch= key is ignored here — this example always runs both
// architectures side by side.
#include <iostream>

#include "metrics/report.hpp"
#include "scenario/cli.hpp"
#include "scenario/scenario_runner.hpp"

using namespace pnoc;

int main(int argc, char** argv) {
  scenario::ScenarioSpec spec;
  spec.params.pattern = "skewed3";
  spec.params.offeredLoad = 0.002;
  scenario::Cli cli("quickstart", "one simulation, both architectures side by side");
  cli.setRunnerKeys(true);
  switch (cli.parse(argc, argv, &spec)) {
    case scenario::CliStatus::kHelp: return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }

  metrics::ReportTable table("quickstart: " + spec.params.pattern + ", " +
                             spec.params.bandwidthSet.name);
  table.setHeader({"architecture", "delivered Gb/s", "pkts", "accept", "avg lat (cyc)",
                   "p99 lat", "EPM (pJ)", "res.failures"});

  // Both architectures as one batch on the worker fleet (re-execs of this
  // binary, one per architecture unless shards= or hosts= says otherwise).
  std::vector<scenario::ScenarioSpec> points;
  for (const auto arch :
       {network::Architecture::kFirefly, network::Architecture::kDhetpnoc}) {
    scenario::ScenarioSpec point = spec;
    point.params.architecture = arch;
    points.push_back(point);
  }
  const auto results = scenario::makeBackend(cli.backendOptions())->run(points);

  for (const auto& result : results) {
    const metrics::RunMetrics& m = result.metrics;
    const network::Architecture arch = result.spec.params.architecture;
    table.addRow({toString(arch), metrics::ReportTable::num(m.deliveredGbps()),
                  std::to_string(m.packetsDelivered),
                  metrics::ReportTable::num(m.acceptance(), 3),
                  metrics::ReportTable::num(m.avgLatencyCycles(), 1),
                  metrics::ReportTable::num(m.latencyP99(), 0),
                  metrics::ReportTable::num(m.energyPerPacketPj(), 1),
                  std::to_string(m.reservationFailures)});
  }
  table.print(std::cout);
  return 0;
}
