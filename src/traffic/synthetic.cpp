#include "traffic/synthetic.hpp"

#include <stdexcept>

#include "sim/rng.hpp"

namespace pnoc::traffic {

HotspotOverlayPattern::HotspotOverlayPattern(std::string name,
                                             std::unique_ptr<TrafficPattern> base,
                                             double fraction, CoreId hotspotCore,
                                             const noc::ClusterTopology& topology)
    : name_(std::move(name)),
      base_(std::move(base)),
      fraction_(fraction),
      hotspotCore_(hotspotCore) {
  if (base_ == nullptr) throw std::invalid_argument(name_ + ": null base pattern");
  if (fraction < 0.0 || fraction >= 1.0) {
    throw std::invalid_argument(name_ + ": frac must be in [0, 1)");
  }
  if (hotspotCore >= topology.numCores()) {
    throw std::invalid_argument(name_ + ": hotspot core " + std::to_string(hotspotCore) +
                                " out of range for " +
                                std::to_string(topology.numCores()) + " cores");
  }
}

CoreId HotspotOverlayPattern::sampleDestination(CoreId src, sim::Rng& rng) const {
  if (src != hotspotCore_ && rng.nextBool(fraction_)) return hotspotCore_;
  return base_->sampleDestination(src, rng);
}

}  // namespace pnoc::traffic
