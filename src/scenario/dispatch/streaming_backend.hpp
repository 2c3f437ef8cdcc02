// StreamingBackend: the ExecutionBackend face of the dispatch subsystem
// (`backend=stream`, and its alias `backend=processes`, on every scenario
// binary and pnoc_run).
//
// execute() is a short poll-loop driver over a FleetManager (fleet.hpp):
// it feeds the fixed job vector through the fleet's nextUnit in index
// order, collects results from unitDone, and decides what a failed unit
// means — a thrown error naming the job and the worker (default), or a
// structured failed outcome that lets the rest of the grid complete
// (policy.failSoft).  Workers come from a HostEntry list, the one fleet
// description: `shards=N` is `[{"workers":N}]` (makeBackend), and a hosts
// file (`hosts=@hosts.json`, dispatch/hosts_file.hpp) adds launcher-wrapped
// workers on other machines/containers.  Results are byte-identical to
// InProcessBackend regardless of worker count, transport, or completion
// order.  The outcome observer (see
// ExecutionBackend::setOutcomeObserver) fires per completed job on the
// calling thread — pnoc_run's checkpointed resume hangs off it.
#pragma once

#include <string>
#include <vector>

#include "scenario/dispatch/fleet.hpp"
#include "scenario/dispatch/hosts_file.hpp"
#include "scenario/execution_backend.hpp"

namespace pnoc::scenario::dispatch {

class StreamingBackend : public ExecutionBackend {
 public:
  /// One worker per slot listed in `hosts` (clamped to the batch size);
  /// `policy` governs every failure path (dispatch/fault_policy.hpp).
  explicit StreamingBackend(std::vector<HostEntry> hosts, FaultPolicy policy = {});

  std::string name() const override { return "stream"; }
  unsigned workersFor(std::size_t jobCount) const override;

  /// Executes the batch; results indexed like `jobs`.  Throws
  /// std::runtime_error on an unrecoverable failure (a failed job without
  /// fail_soft, a fleet with no live worker left without fail_soft, an
  /// interrupt, a worker that exits nonzero at the close) after tearing the
  /// fleet down with bounded SIGTERM-to-SIGKILL escalation.
  std::vector<ScenarioOutcome> execute(const std::vector<ScenarioJob>& jobs) override;

  /// Fleet counters and per-worker status of the most recent execute().
  const FleetManager::Stats& lastStats() const { return stats_; }
  const std::vector<FleetManager::WorkerStatus>& lastWorkers() const {
    return workers_;
  }

 private:
  std::vector<HostEntry> hosts_;
  FaultPolicy policy_;
  FleetManager::Stats stats_;
  std::vector<FleetManager::WorkerStatus> workers_;
};

}  // namespace pnoc::scenario::dispatch
