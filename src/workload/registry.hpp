// Workload family table: `workload=` spec strings -> Workload factories,
// through the same spec grammar and lookup as the traffic patterns
// (traffic/registry.hpp):
//
//   workload := family [":" options]
//
//   "open"                                   (the default: no model object;
//                                             CoreNode's geometric injector)
//   "closed:window=4,think=10,reply_flits=64"
//   "chain:window=2,req_flits=8"
//   "trace:file=run.trace"
//
// Unknown families, malformed values and unread options are refused, with a
// nearest-key hint on option typos ("does not take option 'windw'; did you
// mean 'window'?").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "noc/topology.hpp"
#include "sim/config.hpp"
#include "traffic/registry.hpp"
#include "workload/workload.hpp"

namespace pnoc::workload {

/// What a factory needs to size and wire its model.
struct WorkloadBuildContext {
  const noc::ClusterTopology* topology = nullptr;
  const traffic::TrafficPattern* pattern = nullptr;
  /// The bandwidth set's packet size — the default for 0-valued flit counts.
  std::uint32_t defaultPacketFlits = 64;
};

/// Returns the model, or nullptr for the open-loop default (the "open"
/// family), which leaves the core's geometric injector in charge.
using WorkloadFactory = std::unique_ptr<Workload>(const sim::Config& options,
                                                  const WorkloadBuildContext& context);
using WorkloadFamily = traffic::SpecFamily<WorkloadFactory>;

/// The built-in workload families, name-sorted.
std::span<const WorkloadFamily> workloadFamilies();

/// The workload families, for help=1 output.
std::string workloadHelpText();

/// Builds a workload from a spec string; nullptr means open loop.  Throws
/// std::invalid_argument for unknown families, unknown options and
/// malformed values.
std::unique_ptr<Workload> makeWorkload(const std::string& spec,
                                       const WorkloadBuildContext& context);

}  // namespace pnoc::workload
