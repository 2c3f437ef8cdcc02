#include "traffic/synthetic.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "sim/rng.hpp"

namespace pnoc::traffic {

StaticTargetPattern::StaticTargetPattern(std::string name,
                                         const noc::ClusterTopology& topology,
                                         const BandwidthSet& set,
                                         std::vector<CoreId> targets)
    : name_(std::move(name)),
      topology_(&topology),
      set_(set),
      targets_(std::move(targets)) {
  const std::uint32_t numCores = topology.numCores();
  if (targets_.size() != numCores) {
    throw std::invalid_argument(name_ + ": need one target per core");
  }
  for (CoreId src = 0; src < numCores; ++src) {
    if (targets_[src] >= numCores || targets_[src] == src) {
      throw std::invalid_argument(name_ + ": core " + std::to_string(src) +
                                  " has an invalid target");
    }
  }

  // Cluster-level wavelength demands from the target map: the source
  // cluster's Firefly-equivalent share (totalWavelengths / numClusters)
  // toward every destination cluster it targets, nothing elsewhere.  The
  // full share goes to EACH live flow, not a split — the SWMR write channel
  // serializes transmissions, so width is consumed per transmission (the
  // same convention the uniform and skewed demand tables use).
  const std::uint32_t numClusters = topology.numClusters();
  const std::uint32_t share = std::max(1u, set.totalWavelengths / numClusters);
  demand_.assign(numClusters, std::vector<std::uint32_t>(numClusters, 0));
  for (CoreId src = 0; src < numCores; ++src) {
    const ClusterId s = topology.clusterOf(src);
    const ClusterId d = topology.clusterOf(targets_[src]);
    if (s != d) demand_[s][d] = share;
  }
}

std::uint32_t StaticTargetPattern::bandwidthClass(ClusterId src, ClusterId dst) const {
  // Report the highest application class whose channel the flow's demand
  // covers (class 0 when the pair carries no traffic).
  const std::uint32_t demand = demand_[src][dst];
  std::uint32_t best = 0;
  for (std::uint32_t c = 0; c < kNumBandwidthClasses; ++c) {
    if (set_.demandWavelengths(c) <= demand) best = c;
  }
  return best;
}

std::uint32_t StaticTargetPattern::wavelengthDemand(ClusterId src, ClusterId dst) const {
  assert(src != dst);
  return demand_[src][dst];
}

std::vector<CoreId> transposeTargets(const noc::ClusterTopology& topology) {
  const std::uint32_t numCores = topology.numCores();
  const auto side = static_cast<std::uint32_t>(std::lround(std::sqrt(numCores)));
  if (side * side != numCores || numCores < 2) {
    throw std::invalid_argument("transpose requires a square core count, got " +
                                std::to_string(numCores));
  }
  std::vector<CoreId> targets(numCores);
  for (CoreId core = 0; core < numCores; ++core) {
    const std::uint32_t row = core / side;
    const std::uint32_t col = core % side;
    const CoreId transposed = col * side + row;
    // Diagonal cores map to themselves under transposition; hand their
    // traffic to the successor core so every source stays live.
    targets[core] = (transposed == core) ? (core + 1) % numCores : transposed;
  }
  return targets;
}

std::vector<CoreId> tornadoTargets(const noc::ClusterTopology& topology,
                                   std::uint32_t offset) {
  const std::uint32_t numClusters = topology.numClusters();
  if (offset == 0 || offset >= numClusters) {
    throw std::invalid_argument("tornado offset must be in [1, numClusters), got " +
                                std::to_string(offset));
  }
  std::vector<CoreId> targets(topology.numCores());
  for (CoreId core = 0; core < topology.numCores(); ++core) {
    const ClusterId dstCluster = (topology.clusterOf(core) + offset) % numClusters;
    targets[core] = topology.coreAt(dstCluster, topology.localIndex(core));
  }
  return targets;
}

std::vector<CoreId> bitComplementTargets(const noc::ClusterTopology& topology) {
  const std::uint32_t numCores = topology.numCores();
  if (numCores < 2 || (numCores & (numCores - 1)) != 0) {
    throw std::invalid_argument(
        "bitcomp requires a power-of-two core count, got " + std::to_string(numCores));
  }
  std::vector<CoreId> targets(numCores);
  for (CoreId core = 0; core < numCores; ++core) targets[core] = core ^ (numCores - 1);
  return targets;
}

std::vector<CoreId> permutationTargets(const noc::ClusterTopology& topology,
                                       std::uint64_t seed) {
  const std::uint32_t numCores = topology.numCores();
  if (numCores < 2) throw std::invalid_argument("permutation needs >= 2 cores");
  // Fisher-Yates over the core order, then close it into a single N-cycle:
  // order[j] -> order[j+1].  A single cycle has no fixed points by
  // construction, and the draw is deterministic for a given seed.
  std::vector<CoreId> order(numCores);
  std::iota(order.begin(), order.end(), 0u);
  sim::Rng rng(seed);
  for (std::uint32_t i = numCores - 1; i > 0; --i) {
    const auto j = static_cast<std::uint32_t>(rng.nextBelow(i + 1));
    std::swap(order[i], order[j]);
  }
  std::vector<CoreId> targets(numCores);
  for (std::uint32_t j = 0; j < numCores; ++j) {
    targets[order[j]] = order[(j + 1) % numCores];
  }
  return targets;
}

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
