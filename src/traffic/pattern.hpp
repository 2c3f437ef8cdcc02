// Traffic pattern interface.
//
// A pattern answers three questions the network needs:
//   1. How much of the offered load does each core generate?
//      (sourceWeight — relative packets/cycle; normalized by the injector)
//   2. Where does a packet from core S go? (sampleDestination)
//   3. What is the *stable* wavelength demand between two clusters?
//      (wavelengthDemand — this is what the cores write into their demand
//      tables and hence what the d-HetPNoC DBA provisions; Section 3.2 notes
//      allocation changes with task mapping, not per packet)
// plus the bandwidth class of a flow, used for reporting.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "noc/topology.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"
#include "traffic/bandwidth_set.hpp"

namespace pnoc::traffic {

class TrafficPattern {
 public:
  virtual ~TrafficPattern() = default;

  virtual std::string name() const = 0;

  /// Relative packet-generation weight of a source core.  Weights are
  /// normalized by the injector, so only ratios matter.
  virtual double sourceWeight(CoreId src) const = 0;

  /// Samples the destination core of a new packet from `src`.
  /// Postcondition: result != src.
  virtual CoreId sampleDestination(CoreId src, sim::Rng& rng) const = 0;

  /// Application bandwidth class (0..3, ascending bandwidth) of traffic from
  /// cluster `src` to cluster `dst`.
  virtual std::uint32_t bandwidthClass(ClusterId src, ClusterId dst) const = 0;

  /// Stable per-flow wavelength demand, in wavelengths, from cluster `src`
  /// to cluster `dst` (src != dst).  Fills the cores' demand tables.
  virtual std::uint32_t wavelengthDemand(ClusterId src, ClusterId dst) const = 0;
};

/// The four-class cluster assignment shared by the skewed patterns: cluster i
/// runs an application of class (i mod 4), so each class owns numClusters/4
/// clusters spread across the chip.
std::uint32_t clusterAppClass(ClusterId cluster);

/// Builds a pattern from a spec string ("uniform", "skewed3",
/// "hotspot:frac=0.3,hot=5", ... — see traffic/registry.hpp for the grammar
/// and the family table); throws std::invalid_argument for unknown
/// families, unknown options and malformed values.
std::unique_ptr<TrafficPattern> makePattern(const std::string& spec,
                                            const noc::ClusterTopology& topology,
                                            const BandwidthSet& bandwidthSet);

}  // namespace pnoc::traffic
