// Synthetic workloads beyond the paper's evaluation set, registered with the
// traffic-pattern registry (see registry.hpp for the spec grammar):
//
//   transpose           matrix-transpose permutation on the core grid
//   tornado[:offset=k]  every cluster targets the cluster k hops ahead
//   bitcomp             bit-complement permutation (core i -> ~i)
//   permutation[:seed=s] seeded random permutation (a single N-cycle)
//   hotspot[:frac=f,hot=c,base=spec] fraction f of all traffic to core c,
//                        remainder per the base pattern
//
// The fixed-target patterns share StaticTargetPattern: each core sends every
// packet to one partner core.  Cluster-level wavelength demand follows from
// the target map: a source cluster demands its Firefly-equivalent share
// (totalWavelengths / numClusters) toward every destination cluster it
// actually targets, and nothing toward the rest.  The share is per flow, not
// split across flows, because the SWMR write channel serializes
// transmissions — channel width is consumed per transmission, which is also
// how the uniform and skewed families fill their demand tables.
#pragma once

#include <memory>
#include <vector>

#include "traffic/pattern.hpp"

namespace pnoc::traffic {

/// Deterministic per-core target pattern: core i sends every packet to
/// targets[i].  All cores carry equal source weight.
class StaticTargetPattern : public TrafficPattern {
 public:
  /// Requires targets.size() == numCores and targets[i] != i.  Throws
  /// std::invalid_argument otherwise.
  StaticTargetPattern(std::string name, const noc::ClusterTopology& topology,
                      const BandwidthSet& set, std::vector<CoreId> targets);

  std::string name() const override { return name_; }
  double sourceWeight(CoreId) const override { return 1.0; }
  CoreId sampleDestination(CoreId src, sim::Rng&) const override {
    return targets_[src];
  }
  std::uint32_t bandwidthClass(ClusterId src, ClusterId dst) const override;
  std::uint32_t wavelengthDemand(ClusterId src, ClusterId dst) const override;

  const std::vector<CoreId>& targets() const { return targets_; }

 private:
  std::string name_;
  const noc::ClusterTopology* topology_;
  BandwidthSet set_;
  std::vector<CoreId> targets_;
  std::vector<std::vector<std::uint32_t>> demand_;  // [src cluster][dst cluster]
};

/// Matrix transpose on the core grid: core (r, c) of the k x k grid sends to
/// core (c, r); diagonal cores fall back to their successor core.  Requires
/// a square core count.
std::vector<CoreId> transposeTargets(const noc::ClusterTopology& topology);

/// Tornado at cluster granularity: each core targets the core with its local
/// index in the cluster `offset` positions ahead (mod numClusters).
/// Requires 1 <= offset < numClusters.
std::vector<CoreId> tornadoTargets(const noc::ClusterTopology& topology,
                                   std::uint32_t offset);

/// Bit-complement permutation: core i sends to core i ^ (numCores - 1).
/// Requires a power-of-two core count.
std::vector<CoreId> bitComplementTargets(const noc::ClusterTopology& topology);

/// Seeded random permutation with no fixed points (a single cycle through a
/// shuffled core order) — deterministic for a given seed.
std::vector<CoreId> permutationTargets(const noc::ClusterTopology& topology,
                                       std::uint64_t seed);

/// Generalized hotspot: with probability `fraction` a packet goes to the
/// hotspot core; otherwise the base pattern picks the destination.  Source
/// weights and wavelength demands are the base pattern's — the paper's
/// skewed-hotspot case studies model the hotspot as extra load on existing
/// channels, not as extra provisioned bandwidth.  The skewed-hotspot1..4 family
/// of Section 3.4.2 is this overlay at a 10% or 20% share over skewed2 or
/// skewed3.
class HotspotOverlayPattern final : public TrafficPattern {
 public:
  /// Requires 0 <= fraction < 1 and hotspotCore < numCores.
  HotspotOverlayPattern(std::string name, std::unique_ptr<TrafficPattern> base,
                        double fraction, CoreId hotspotCore,
                        const noc::ClusterTopology& topology);

  std::string name() const override { return name_; }
  double sourceWeight(CoreId src) const override { return base_->sourceWeight(src); }
  CoreId sampleDestination(CoreId src, sim::Rng& rng) const override;
  std::uint32_t bandwidthClass(ClusterId src, ClusterId dst) const override {
    return base_->bandwidthClass(src, dst);
  }
  std::uint32_t wavelengthDemand(ClusterId src, ClusterId dst) const override {
    return base_->wavelengthDemand(src, dst);
  }

  double fraction() const { return fraction_; }
  CoreId hotspotCore() const { return hotspotCore_; }
  const TrafficPattern& base() const { return *base_; }

 private:
  std::string name_;
  std::unique_ptr<TrafficPattern> base_;
  double fraction_;
  CoreId hotspotCore_;
};

}  // namespace pnoc::traffic
