// Demonstrates the DBA reacting to a task-remapping event at runtime
// (Section 3.2: "this bandwidth allocation happens whenever there is a change
// in the task mapping on the chip").
//
// The chip starts under skewed3 (clusters 3,7,11,15 run the hot class), then
// mid-run the cores publish uniform demand tables.  The example prints each
// cluster's owned wavelengths before and after, plus how many token
// rotations reconvergence took.
//
//   ./build/dba_reconfiguration [seed=1] [load=0.001] ...   (help=1 lists keys)
#include <iostream>

#include "metrics/report.hpp"
#include "network/network.hpp"
#include "scenario/cli.hpp"

using namespace pnoc;

namespace {

std::string ownedRow(const network::DhetpnocPolicy& policy, ClusterId cluster) {
  return std::to_string(policy.controller(cluster).ownedCount());
}

}  // namespace

int main(int argc, char** argv) {
  scenario::ScenarioSpec spec;
  spec.params.architecture = network::Architecture::kDhetpnoc;
  spec.params.pattern = "skewed3";
  spec.params.offeredLoad = 0.001;
  scenario::Cli cli("dba_reconfiguration",
                    "DBA reconvergence after a task-remapping event");
  switch (cli.parse(argc, argv, &spec)) {
    case scenario::CliStatus::kHelp: return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }

  network::PhotonicNetwork net(spec.params);
  auto* policy = dynamic_cast<network::DhetpnocPolicy*>(&net.policy());
  if (policy == nullptr) {
    std::cerr << "expected the d-HetPNoC policy (arch=dhetpnoc)\n";
    return 1;
  }

  // Phase 1: run under skewed3 until the allocation converges.
  net.step(100);
  metrics::ReportTable table("owned wavelengths per cluster (BW set 1, 64 total)");
  std::vector<std::string> header{"phase"};
  for (ClusterId c = 0; c < 16; ++c) header.push_back("c" + std::to_string(c));
  table.setHeader(header);
  std::vector<std::string> before{"skewed3 (classes 1,2,4,8 by cluster%4)"};
  for (ClusterId c = 0; c < 16; ++c) before.push_back(ownedRow(*policy, c));
  table.addRow(before);

  // Phase 2: the OS remaps tasks -> every core publishes a uniform demand
  // table (4 lambdas to everyone).  Demand-table updates are asynchronous
  // with the token (Section 3.2.1) — they take effect as the token visits.
  const auto uniform =
      traffic::makePattern("uniform", net.topology(), spec.params.bandwidthSet);
  policy->publishDemands(*uniform);
  const auto rotationsBefore = policy->tokenRing().rotations();
  const auto converged = [&] {
    for (ClusterId c = 0; c < 16; ++c) {
      if (policy->controller(c).ownedCount() != 4) return false;
    }
    return true;
  };
  std::uint64_t rotationsTaken = 0;
  while (!converged() && rotationsTaken < 64) {
    net.step(16 * policy->tokenRing().hopLatency());  // one full rotation
    rotationsTaken = policy->tokenRing().rotations() - rotationsBefore;
  }

  std::vector<std::string> after{"uniform (4 lambdas everywhere)"};
  for (ClusterId c = 0; c < 16; ++c) after.push_back(ownedRow(*policy, c));
  table.addRow(after);
  table.print(std::cout);

  std::cout << "\nReconvergence took " << rotationsTaken
            << " token rotation(s); a rotation is NPR x TL = 16 x "
            << policy->tokenRing().hopLatency() << " cycle(s) (eq. (2)).\n";

  // Safety invariant after churn: every data wavelength has at most one owner.
  const core::Token& token = policy->tokenRing().token();
  std::uint32_t owned = 0;
  for (ClusterId c = 0; c < 16; ++c) owned += policy->controller(c).ownedCount();
  std::cout << "allocation check: " << owned << " owned + " << token.freeCount()
            << " free = " << token.totalWavelengths() << " total\n";
  const std::string violation = policy->ownershipViolation();
  if (!violation.empty()) {
    std::cerr << "ownership violation: " << violation << "\n";
    return 1;
  }
  return 0;
}
