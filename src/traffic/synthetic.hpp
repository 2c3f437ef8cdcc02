// The hotspot overlay, registered with the traffic-pattern registry (see
// registry.hpp for the spec grammar) as two families:
//
//   hotspot[:frac=f,hot=c]          fraction f of all traffic to core c,
//                                   the remainder uniform random
//   skewed-hotspot[:variant=v,hot=c] the paper's case studies (Section 3.4.2)
#pragma once

#include <memory>
#include <string>

#include "traffic/pattern.hpp"

namespace pnoc::traffic {

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
