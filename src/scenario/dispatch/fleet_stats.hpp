// FleetStats and WorkerStatus: the value snapshots a FleetManager reports
// (fleet.hpp).  Split out so ExecutionBackend, which keeps the snapshot of
// its last batch, can hold them without a cycle through fleet.hpp.
#pragma once

#include <cstddef>
#include <string>

namespace pnoc::scenario::dispatch {

/// Cumulative fault/pipelining counters.  A VALUE SNAPSHOT over the
/// fleet's registry counters (fleet_*_total / fleet_max_in_flight) — the
/// daemon's metrics endpoint and this struct read the same cells.
struct FleetStats {
  unsigned retries = 0;         // units re-dealt after a fault
  unsigned respawns = 0;        // workers relaunched through their slot
  unsigned deadlineKills = 0;   // workers killed for blowing a job deadline
  unsigned protocolDeaths = 0;  // workers killed for corrupt replies
  unsigned launchFailures = 0;  // transports that never produced a worker
  unsigned failedUnits = 0;     // failed outcomes delivered
  unsigned maxInFlight = 0;     // high-water in-flight units on one worker
};

struct WorkerStatus {
  std::size_t worker = 0;
  std::string description;
  std::string state;  // connecting | ready | dead | removed
  unsigned completed = 0;
  std::size_t inFlight = 0;
  unsigned maxInFlight = 0;
  unsigned respawns = 0;  // respawns charged to the slot's budget
};

}  // namespace pnoc::scenario::dispatch
