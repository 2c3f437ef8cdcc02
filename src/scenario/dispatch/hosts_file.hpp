// Hosts files: the `hosts=@hosts.json` half of the worker fleet — a
// declarative list of machines/containers a grid fans out across.
//
// Format: a JSON array (or an object {"hosts":[...]}) of entries
//
//   [
//     {"launcher": ["ssh", "hostA"], "workers": 4,
//      "executable": "/opt/pnoc/build/pnoc_run"},
//     {"launcher": "docker exec sim0", "workers": 2},
//     {"workers": 2}
//   ]
//
//   launcher            argv prefix the worker command runs under; an array
//                       of tokens, or one string split on spaces.
//                       Absent/empty: plain local re-exec.
//   workers             worker processes to run through this entry
//                       (default 1).
//   executable          worker binary path ON THE TARGET (default: this
//                       binary's own path — right when the build is
//                       shared/mounted).
//   connect_timeout_ms  per-host connect budget (default: the fleet
//                       policy's connect_timeout_ms).
//
// The object form may also carry a fleet-wide fault policy — every key of
// dispatch/fault_policy.hpp, overridable per run by the matching CLI keys:
//
//   {"hosts": [...],
//    "policy": {"retries": 2, "job_deadline_ms": 60000, "fail_soft": 1}}
//
// Unknown keys are rejected — a typo in a hosts file must not silently
// drop a machine from the fleet (or a knob from the policy).
#pragma once

#include <string>
#include <vector>

#include "scenario/dispatch/fault_policy.hpp"
#include "scenario/dispatch/hosts_file_types.hpp"
#include "scenario/dispatch/worker_transport.hpp"

namespace pnoc::scenario::dispatch {

/// A parsed hosts file: the fleet plus its (optional) fault policy.
struct HostsFleet {
  std::vector<HostEntry> hosts;
  FaultPolicy policy;  // defaults when the file carries no "policy" object
};

/// A launcher given as one string ("ssh hostA"), split on spaces into argv.
std::vector<std::string> splitLauncher(const std::string& text);

/// Parses hosts-file `text`; `origin` names the source in error messages.
/// Throws std::invalid_argument on malformed entries or unknown keys.
HostsFleet parseHostsFleetText(const std::string& text, const std::string& origin);

/// Reads and parses one hosts file; throws std::invalid_argument when the
/// file cannot be read or fails to parse.
HostsFleet loadHostsFleet(const std::string& path);

/// Expands entries into one transport per worker slot, in file order (an
/// entry with workers=4 contributes 4 consecutive slots).  The only way
/// transports are made: `shards=N`, hosts files and the daemon's fleet-add
/// all arrive here as HostEntry lists.
std::vector<WorkerTransport> transportsFor(const std::vector<HostEntry>& hosts);

/// Total worker slots across all entries.
std::size_t totalWorkers(const std::vector<HostEntry>& hosts);

}  // namespace pnoc::scenario::dispatch
