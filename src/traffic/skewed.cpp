#include "traffic/skewed.hpp"

#include <cassert>
#include <stdexcept>

namespace pnoc::traffic {

std::array<double, kNumBandwidthClasses> skewedFractions(std::uint32_t level) {
  // Stored ascending by class bandwidth: {lowest, ..., highest}.
  switch (level) {
    case 1: return {0.125, 0.125, 0.25, 0.50};
    case 2: return {0.0625, 0.0625, 0.125, 0.75};
    case 3: return {0.025, 0.025, 0.05, 0.90};
    default: throw std::invalid_argument("skew level must be 1, 2 or 3");
  }
}

std::uint32_t clusterAppClass(ClusterId cluster) { return cluster % kNumBandwidthClasses; }

SkewedPattern::SkewedPattern(std::uint32_t level,
                             const noc::ClusterTopology& topology,
                             const BandwidthSet& set)
    : level_(level), topology_(&topology), set_(set), fractions_(skewedFractions(level)) {
  if (topology.numClusters() % kNumBandwidthClasses != 0) {
    throw std::invalid_argument(
        "skewed pattern requires the cluster count to be a multiple of 4");
  }
}

double SkewedPattern::sourceWeight(CoreId src) const {
  const ClusterId cluster = topology_->clusterOf(src);
  const std::uint32_t appClass = clusterAppClass(cluster);
  const double clustersInClass =
      static_cast<double>(topology_->numClusters()) / kNumBandwidthClasses;
  // Class fraction split evenly over the class's clusters and their cores.
  return fractions_[appClass] / (clustersInClass * topology_->clusterSize());
}

CoreId SkewedPattern::sampleDestination(CoreId src, sim::Rng& rng) const {
  const std::uint32_t n = topology_->numCores();
  const auto pick = static_cast<CoreId>(rng.nextBelow(n - 1));
  return pick >= src ? pick + 1 : pick;
}

std::uint32_t SkewedPattern::bandwidthClass(ClusterId src, ClusterId dst) const {
  assert(src != dst);
  (void)dst;
  return clusterAppClass(src);
}

std::uint32_t SkewedPattern::wavelengthDemand(ClusterId src, ClusterId dst) const {
  return set_.demandWavelengths(bandwidthClass(src, dst));
}

}  // namespace pnoc::traffic
