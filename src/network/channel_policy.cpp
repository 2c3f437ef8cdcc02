#include "network/channel_policy.hpp"

#include <algorithm>
#include <cassert>

#include "network/params.hpp"
#include "photonic/area_model.hpp"

namespace pnoc::network {

FireflyPolicy::FireflyPolicy(const noc::ClusterTopology& topology,
                             const traffic::BandwidthSet& set)
    : numClusters_(topology.numClusters()),
      lambdasPerChannel_(set.fireflyLambdasPerChannel(topology.numClusters())) {}

std::uint32_t FireflyPolicy::lambdasFor(ClusterId src, ClusterId dst) const {
  assert(src != dst && src < numClusters_ && dst < numClusters_);
  (void)src;
  (void)dst;
  return lambdasPerChannel_;
}

DhetpnocPolicy::DhetpnocPolicy(const noc::ClusterTopology& topology,
                               const traffic::BandwidthSet& set,
                               const traffic::TrafficPattern& pattern,
                               const sim::Clock& clock, std::uint32_t reservedPerCluster,
                               Cycle tokenHopOverride, std::uint32_t channelCapOverride,
                               std::uint32_t writableWaveguides)
    : topology_(&topology), set_(set) {
  dbaConfig_.maxChannelWavelengths =
      channelCapOverride != 0 ? channelCapOverride : set.maxChannelWavelengths;
  dbaConfig_.reservedPerCluster = reservedPerCluster;
  dbaConfig_.writableWaveguides = writableWaveguides;

  const std::uint32_t numClusters = topology.numClusters();
  const std::uint32_t reservedTotal = reservedPerCluster * numClusters;
  core::Token token(set.totalWavelengths, reservedTotal);
  const Cycle hop =
      tokenHopOverride != 0
          ? tokenHopOverride
          : core::tokenHopCycles(token.sizeBits(),
                                 photonic::kMaxWavelengthsPerWaveguide, clock);
  ring_ = std::make_unique<core::TokenRing>(std::move(token), hop);

  tables_.reserve(numClusters);
  controllers_.reserve(numClusters);
  for (ClusterId c = 0; c < numClusters; ++c) {
    tables_.push_back(
        std::make_unique<core::RouterTables>(c, numClusters, topology.clusterSize()));
    controllers_.push_back(
        std::make_unique<core::DbaController>(c, dbaConfig_, *tables_[c]));
    ring_->addClient(*controllers_[c]);
  }
  grantWaiters_.assign(numClusters, nullptr);
  // Grants for cluster c change only inside c's own controller's onToken();
  // waking the parked router right after that visit (same cycle — the ring
  // registers before every router) is therefore exactly when a polling
  // router would first see the new allocation.
  ring_->setVisitHook([this](std::size_t visited) {
    sim::Clocked* waiter = grantWaiters_[visited];
    if (waiter != nullptr) {
      grantWaiters_[visited] = nullptr;
      waiter->requestWakeInCycle();
    }
  });
  publishDemands(pattern);
}

void DhetpnocPolicy::publishDemands(const traffic::TrafficPattern& pattern) {
  const std::uint32_t numClusters = topology_->numClusters();
  for (ClusterId src = 0; src < numClusters; ++src) {
    core::WavelengthTable demand(numClusters);
    for (ClusterId dst = 0; dst < numClusters; ++dst) {
      if (dst == src) continue;
      demand.set(dst, pattern.wavelengthDemand(src, dst));
    }
    // All cores of the cluster publish the cluster-level demand; the request
    // table (element-wise max) then equals it.
    for (std::uint32_t local = 0; local < topology_->clusterSize(); ++local) {
      tables_[src]->updateDemand(local, demand);
    }
  }
}

std::uint32_t DhetpnocPolicy::lambdasFor(ClusterId src, ClusterId dst) const {
  assert(src != dst);
  return controllers_[src]->lambdasFor(dst);
}

std::uint32_t DhetpnocPolicy::maxReservationIdentifiers() const {
  return dbaConfig_.maxChannelWavelengths;
}

std::uint32_t DhetpnocPolicy::numDataWaveguides() const {
  return photonic::dataWaveguidesNeeded(set_.totalWavelengths,
                                        photonic::kMaxWavelengthsPerWaveguide);
}

void DhetpnocPolicy::attachTo(sim::Engine& engine) { engine.add(*ring_); }

bool DhetpnocPolicy::armGrantWake(ClusterId src, sim::Clocked& waiter) const {
  assert(src < grantWaiters_.size());
  assert((grantWaiters_[src] == nullptr || grantWaiters_[src] == &waiter) &&
         "one photonic router per cluster");
  grantWaiters_[src] = &waiter;
  return true;
}

void DhetpnocPolicy::reset(const traffic::TrafficPattern& pattern) {
  // Mirror construction: an all-free token, zeroed tables, controllers
  // owning only their reserved wavelengths, then the pattern's demands
  // published.
  ring_->reset();
  for (auto& tables : tables_) tables->reset();
  for (auto& controller : controllers_) controller->reset();
  std::fill(grantWaiters_.begin(), grantWaiters_.end(), nullptr);
  publishDemands(pattern);
}

const core::DbaController& DhetpnocPolicy::controller(ClusterId cluster) const {
  return *controllers_[cluster];
}

std::string DhetpnocPolicy::ownershipViolation() const {
  return core::ownershipViolation(ring_->token(), controllers_);
}

std::unique_ptr<ChannelPolicy> makePolicy(const SimulationParameters& params,
                                          const noc::ClusterTopology& topology,
                                          const traffic::TrafficPattern& pattern) {
  switch (params.architecture) {
    case Architecture::kFirefly:
      return std::make_unique<FireflyPolicy>(topology, params.bandwidthSet);
    case Architecture::kDhetpnoc:
      return std::make_unique<DhetpnocPolicy>(
          topology, params.bandwidthSet, pattern, params.clock,
          params.reservedPerCluster, params.tokenHopCyclesOverride,
          params.maxChannelWavelengthsOverride, params.writableWaveguides);
  }
  return nullptr;
}

}  // namespace pnoc::network
