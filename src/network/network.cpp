#include "network/network.hpp"

#include <cassert>
#include <numeric>
#include <stdexcept>

#include "workload/registry.hpp"

namespace pnoc::network {
PhotonicNetwork::PhotonicNetwork(const SimulationParameters& params)
    : params_(params),
      topology_(params.numCores, params.clusterSize),
      engine_(params.activityGating) {
  params_.validate();
  pattern_ = traffic::makePattern(params_.pattern, topology_, params_.bandwidthSet);
  policy_ = makePolicy(params_, topology_, *pattern_);
  build();
}

void PhotonicNetwork::build() {
  const std::uint32_t clusterSize = params_.clusterSize;
  const std::uint32_t uplinkPort = clusterSize;  // last router port

  // Peer-port arithmetic for the all-to-all intra-cluster wiring: the link
  // from local core j lands on port 1 + rank(j) at the receiving router.
  const auto peerPort = [](std::uint32_t receiverLocal, std::uint32_t senderLocal) {
    return 1 + (senderLocal < receiverLocal ? senderLocal : senderLocal - 1);
  };

  // --- electrical routers, one per core ---
  const noc::RouterConfig& routerConfig = params_.coreRouter;
  for (CoreId core = 0; core < params_.numCores; ++core) {
    const ClusterId cluster = topology_.clusterOf(core);
    const std::uint32_t local = topology_.localIndex(core);
    auto route = [this, core, cluster, local, clusterSize,
                  uplinkPort](const noc::PacketDescriptor& packet) -> std::uint32_t {
      if (packet.dstCore == core) return 0;
      if (packet.dstCluster == cluster) {
        const std::uint32_t dstLocal = topology_.localIndex(packet.dstCore);
        return 1 + (dstLocal < local ? dstLocal : dstLocal - 1);
      }
      // The downlink also lands on uplinkPort; flits arriving there for this
      // core exit via port 0, handled by the dstCore check above.
      return uplinkPort;
    };
    coreRouters_.push_back(std::make_unique<noc::ElectricalRouter>(
        std::string("r").append(std::to_string(core)), routerConfig, route));
  }

  // --- photonic routers, one per cluster ---
  PhotonicRouterConfig photonicConfig;
  photonicConfig.clusterSize = clusterSize;
  photonicConfig.vcsPerPort = params_.coreRouter.vcsPerPort;
  photonicConfig.vcDepthFlits = params_.coreRouter.vcDepthFlits;
  photonicConfig.flitBits = params_.bandwidthSet.flitBits;
  photonicConfig.packetFlits = params_.bandwidthSet.packetFlits;
  photonicConfig.propagationCycles = params_.photonicPropagationCycles;
  photonicConfig.lambdasPerWaveguide = photonic::kMaxWavelengthsPerWaveguide;
  photonicConfig.numDataWaveguides = policy_->numDataWaveguides();
  photonicConfig.bitsPerLambdaPerCycle =
      params_.clock.bitsPerCycle(photonic::kBitsPerSecondPerWavelength);
  photonicConfig.energy = params_.energy;
  for (ClusterId cluster = 0; cluster < topology_.numClusters(); ++cluster) {
    photonicConfig.cluster = cluster;
    photonicRouters_.push_back(std::make_unique<PhotonicRouter>(
        std::string("p").append(std::to_string(cluster)), photonicConfig, *policy_));
  }
  std::vector<PhotonicRouter*> peers;
  for (auto& router : photonicRouters_) peers.push_back(router.get());
  for (auto& router : photonicRouters_) router->setPeers(peers);

  // --- wiring (port 0 of each router is its core: wired with the cores) ---
  for (CoreId core = 0; core < params_.numCores; ++core) {
    const ClusterId cluster = topology_.clusterOf(core);
    const std::uint32_t local = topology_.localIndex(core);
    noc::ElectricalRouter& router = *coreRouters_[core];

    // Ports 1..clusterSize-1: links to intra-cluster peers.
    for (std::uint32_t peerLocal = 0; peerLocal < clusterSize; ++peerLocal) {
      if (peerLocal == local) continue;
      const CoreId peerCore = topology_.coreAt(cluster, peerLocal);
      links_.push_back(std::make_unique<noc::Link>(
          std::string("l").append(std::to_string(core)) + "-" + std::to_string(peerCore),
          params_.intraClusterLinkLatency, params_.linkEnergyPerBitPj,
          coreRouters_[peerCore]->inputPort(peerPort(peerLocal, local))));
      router.connectOutput(peerPort(local, peerLocal), *links_.back());
    }

    // Uplink to the photonic router.
    links_.push_back(std::make_unique<noc::Link>(
        "up" + std::to_string(core), params_.intraClusterLinkLatency,
        params_.linkEnergyPerBitPj, photonicRouters_[cluster]->inputPort(local)));
    router.connectOutput(uplinkPort, *links_.back());

    // Downlink from the photonic router into this router's uplink port.
    links_.push_back(std::make_unique<noc::Link>(
        "down" + std::to_string(core), params_.intraClusterLinkLatency,
        params_.linkEnergyPerBitPj, router.inputPort(uplinkPort)));
    photonicRouters_[cluster]->connectEjection(local, *links_.back());
  }

  // --- cores ---
  totalSourceWeight_ = [this] {
    double sum = 0.0;
    for (CoreId core = 0; core < params_.numCores; ++core) {
      sum += pattern_->sourceWeight(core);
    }
    return sum;
  }();
  if (totalSourceWeight_ <= 0.0) {
    throw std::invalid_argument("pattern weights sum to zero");
  }
  // Workload model ("open" resolves to nullptr: the per-core geometric
  // injectors below stay in charge).  Built before the cores so each core
  // owns its per-core state machine from birth.
  workload::WorkloadBuildContext workloadContext;
  workloadContext.topology = &topology_;
  workloadContext.pattern = pattern_.get();
  workloadContext.defaultPacketFlits = params_.bandwidthSet.packetFlits;
  workload_ = workload::makeWorkload(params_.workload, workloadContext);
  workload::TraceRecorder* recorder = nullptr;
  if (!params_.traceOut.empty()) {
    recorder_.start(params_.numCores);
    recorder = &recorder_;
  }

  sim::Rng seeder(params_.seed);
  for (CoreId core = 0; core < params_.numCores; ++core) {
    CoreNode::Config config;
    config.core = core;
    config.queueCapacityPackets = params_.injectionQueuePackets;
    config.packetFlits = params_.bandwidthSet.packetFlits;
    config.flitBits = params_.bandwidthSet.flitBits;
    const double normalized =
        pattern_->sourceWeight(core) * params_.numCores / totalSourceWeight_;
    config.injectionProbability = std::min(1.0, params_.offeredLoad * normalized);
    cores_.push_back(std::make_unique<CoreNode>(
        config, topology_, *pattern_, coreRouters_[core]->inputPort(0), slab_,
        seeder.split(), &nextPacketId_,
        workload_ != nullptr ? workload_->makeCoreWorkload(core) : nullptr,
        recorder));
    coreRouters_[core]->connectOutput(0, *cores_.back());
  }

  // Every output, ejection slot and peer list must be wired before the
  // first cycle; an unwired one would silently strand the flits routed to
  // it.  (A link's downstream is a constructor reference, so it cannot be
  // missing.)
  for (const auto& router : coreRouters_) router->validateWiring();
  for (const auto& router : photonicRouters_) router->validateWiring();

  // --- engine registration (deterministic order) ---
  if (params_.profile) {
    profiler_ = std::make_unique<obs::CycleProfiler>();
    engine_.setProfiler(profiler_.get());
  }
  policy_->attachTo(engine_);
  for (auto& router : photonicRouters_) engine_.add(*router);
  for (auto& router : coreRouters_) engine_.add(*router);
  for (auto& link : links_) engine_.add(*link);
  for (auto& core : cores_) engine_.add(*core);
}

void PhotonicNetwork::step(Cycle cycles) { engine_.run(cycles); }

void PhotonicNetwork::reset() {
  engine_.reset();
  policy_->reset(*pattern_);
  for (auto& router : photonicRouters_) router->reset();
  for (auto& router : coreRouters_) router->reset();
  for (auto& link : links_) link->reset();
  // Re-seed the cores exactly as build() did: one seeder stream split once
  // per core, in core order, so reset()+run() replays a fresh network.
  sim::Rng seeder(params_.seed);
  for (auto& core : cores_) core->reset(seeder.split());
  slab_.clear();
  nextPacketId_ = 0;
  recorder_.clear();
}

void PhotonicNetwork::setOfferedLoad(double load) {
  if (load <= 0.0) throw std::invalid_argument("offered load must be positive");
  params_.offeredLoad = load;
  for (CoreId core = 0; core < params_.numCores; ++core) {
    const double normalized =
        pattern_->sourceWeight(core) * params_.numCores / totalSourceWeight_;
    cores_[core]->setInjectionProbability(std::min(1.0, load * normalized));
  }
}

PhotonicNetwork::Totals PhotonicNetwork::collectTotals() const {
  // Parked photonic routers defer their per-cycle stat accumulation; flush
  // the replay up to now so window boundaries read polling-exact totals.
  for (const auto& router : photonicRouters_) {
    router->syncParkedStats(engine_.now());
  }
  Totals totals;
  for (const auto& core : cores_) {
    const CoreStats& stats = core->stats();
    totals.packetsDelivered += stats.packetsEjected;
    totals.bitsDelivered += stats.bitsEjected;
    totals.latencySum += stats.packetLatencyCyclesSum;
    totals.latency += core->packetLatencies();
    totals.packetsOffered += stats.packetsOffered;
    totals.packetsRefused += stats.packetsRefused;
    totals.packetsGenerated += stats.packetsGenerated;
    totals.headRetries += stats.headRetries;
    totals.requestsIssued += stats.requestsIssued;
    totals.repliesGenerated += stats.repliesGenerated;
    totals.requestsCompleted += stats.requestsCompleted;
    totals.requestLatencySum += core->requestLatencyCyclesSum();
    totals.requestLatency += core->requestLatencies();
  }
  for (const auto& router : coreRouters_) {
    totals.electricalRouterPj += router->stats().energyPj;
  }
  for (const auto& link : links_) totals.linkPj += link->stats().energyPj;
  for (const auto& router : photonicRouters_) {
    totals.reservationsIssued += router->stats().reservationsIssued;
    totals.reservationFailures += router->stats().reservationFailures;
    totals.transferLedger += router->transferLedger();
    const noc::BufferStats buffers = router->bufferStats();
    totals.photonicBufferBitsWritten += buffers.bitsWritten;
    totals.photonicBufferBitCycles += buffers.bitCyclesResident;
  }
  return totals;
}

metrics::RunMetrics PhotonicNetwork::diffToMetrics(const Totals& before,
                                                   const Totals& after,
                                                   Cycle cycles) const {
  metrics::RunMetrics m;
  m.measuredCycles = cycles;
  m.measuredSeconds = params_.clock.toSeconds(cycles);
  m.packetsDelivered = after.packetsDelivered - before.packetsDelivered;
  m.bitsDelivered = after.bitsDelivered - before.bitsDelivered;
  m.latencyCyclesSum = after.latencySum - before.latencySum;
  m.latency = after.latency.since(before.latency);
  m.packetsOffered = after.packetsOffered - before.packetsOffered;
  m.packetsRefused = after.packetsRefused - before.packetsRefused;
  m.packetsGenerated = after.packetsGenerated - before.packetsGenerated;
  m.headRetries = after.headRetries - before.headRetries;
  m.requestsIssued = after.requestsIssued - before.requestsIssued;
  m.repliesGenerated = after.repliesGenerated - before.repliesGenerated;
  m.requestsCompleted = after.requestsCompleted - before.requestsCompleted;
  m.requestLatencyCyclesSum = after.requestLatencySum - before.requestLatencySum;
  m.requestLatency = after.requestLatency.since(before.requestLatency);
  m.reservationsIssued = after.reservationsIssued - before.reservationsIssued;
  m.reservationFailures = after.reservationFailures - before.reservationFailures;

  using photonic::EnergyCategory;
  m.ledger.add(EnergyCategory::kElectricalRouter,
               after.electricalRouterPj - before.electricalRouterPj);
  m.ledger.add(EnergyCategory::kElectricalLink, after.linkPj - before.linkPj);
  for (const EnergyCategory category :
       {EnergyCategory::kLaunch, EnergyCategory::kModulation, EnergyCategory::kTuning}) {
    m.ledger.add(category,
                 after.transferLedger.of(category) - before.transferLedger.of(category));
  }
  // Photonic buffer energy (eq. (4)'s Ebuffer): access energy per bit written
  // plus the congestion-sensitive hold term per bit-cycle of residency.
  const double bufferPj =
      params_.energy.bufferPjPerBit *
          static_cast<double>(after.photonicBufferBitsWritten -
                              before.photonicBufferBitsWritten) +
      params_.energy.bufferHoldPjPerBitCycle *
          static_cast<double>(after.photonicBufferBitCycles -
                              before.photonicBufferBitCycles);
  m.ledger.add(EnergyCategory::kPhotonicBuffer, bufferPj);
  // Static laser power amortized over the window (both architectures light
  // the same aggregate wavelength budget).
  const double laserPj = params_.energy.laserPowerMwPerWavelength *
                         params_.bandwidthSet.totalWavelengths * m.measuredSeconds * 1e9;
  m.ledger.add(EnergyCategory::kLaunch, laserPj);
  return m;
}

metrics::RunMetrics PhotonicNetwork::run() {
  engine_.run(params_.warmupCycles);
  const Totals before = collectTotals();
  engine_.run(params_.measureCycles);
  const Totals after = collectTotals();
  // Dump the trace recorded so far (construction/reset onward, warmup
  // included — a replay must reproduce the whole run, not just the window).
  if (!params_.traceOut.empty()) {
    workload::writeTraceFile(params_.traceOut, recorder_.trace());
  }
  return diffToMetrics(before, after, params_.measureCycles);
}

std::uint64_t PhotonicNetwork::totalFlitsInjected() const {
  std::uint64_t total = 0;
  for (const auto& core : cores_) total += core->stats().flitsInjected;
  return total;
}

std::uint64_t PhotonicNetwork::totalFlitsEjected() const {
  std::uint64_t total = 0;
  for (const auto& core : cores_) total += core->stats().flitsEjected;
  return total;
}

std::uint64_t PhotonicNetwork::occupancy() const {
  std::uint64_t total = 0;
  for (const auto& router : coreRouters_) total += router->occupancy();
  for (const auto& router : photonicRouters_) total += router->occupancy();
  for (const auto& link : links_) total += link->occupancy();
  return total;
}

}  // namespace pnoc::network
