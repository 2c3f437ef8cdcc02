#include "network/params.hpp"

#include <stdexcept>

namespace pnoc::network {

std::string toString(Architecture arch) {
  switch (arch) {
    case Architecture::kFirefly: return "Firefly";
    case Architecture::kDhetpnoc: return "d-HetPNoC";
  }
  return "?";
}

void SimulationParameters::validate() const {
  if (clusterSize == 0 || numCores == 0 || numCores % clusterSize != 0) {
    throw std::invalid_argument("numCores must be a positive multiple of clusterSize");
  }
  if (bandwidthSet.totalWavelengths == 0) {
    throw std::invalid_argument("bandwidth set must provide at least one wavelength");
  }
  if (reservedPerCluster == 0) {
    throw std::invalid_argument("each cluster needs at least one reserved wavelength");
  }
  if (reservedPerCluster * numClusters() > bandwidthSet.totalWavelengths) {
    throw std::invalid_argument(
        "reserved wavelengths exceed the aggregate wavelength budget");
  }
  if (numClusters() > 64) {
    // A photonic router records the source clusters whose reservations it
    // refused in a 64-bit waiter mask (`1 << cluster`), woken on its next
    // receive-VC unlock; a 65th cluster would shift out of range.
    throw std::invalid_argument(
        "at most 64 clusters are supported (reservation waiters are tracked in a "
        "64-bit mask)");
  }
  if (bandwidthSet.packetFlits == 0 || bandwidthSet.flitBits == 0) {
    throw std::invalid_argument("packet geometry must be non-zero");
  }
  if (coreRouter.numPorts != clusterSize + 1) {
    throw std::invalid_argument(
        "core routers need clusterSize + 1 ports (local, peers, photonic uplink)");
  }
  if (coreRouter.numPorts > 32) {
    // The core router's busy-input, owned-output and arbiter request state
    // are 32-bit masks, so clusterSize + 1 must fit in one.
    throw std::invalid_argument(
        "core routers support at most 32 ports (port state is tracked in 32-bit masks)");
  }
  if (coreRouter.vcsPerPort == 0 || coreRouter.vcsPerPort > 32) {
    // VC occupancy, head-front, lock and bound-core state all live in 32-bit
    // masks (`1u << vc`); more than 32 VCs would shift out of range.
    throw std::invalid_argument(
        "vcsPerPort must be between 1 and 32 (VC state is tracked in 32-bit masks)");
  }
  if (coreRouter.vcDepthFlits < bandwidthSet.packetFlits) {
    throw std::invalid_argument(
        "VC depth must hold a whole packet (wormhole VC-per-packet discipline)");
  }
  if (intraClusterLinkLatency == 0) {
    // A link's pipe holds `latency` flits: a zero-latency link could never
    // accept one, and every packet crossing it would stall forever.
    throw std::invalid_argument("intra-cluster link latency must be at least one cycle");
  }
  if (offeredLoad <= 0.0) {
    throw std::invalid_argument("offered load must be positive");
  }
  if (injectionQueuePackets == 0) {
    throw std::invalid_argument("injection queue needs capacity for at least one packet");
  }
}

}  // namespace pnoc::network
