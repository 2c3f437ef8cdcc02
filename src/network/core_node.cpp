#include "network/core_node.hpp"

#include <cassert>

namespace pnoc::network {

CoreNode::CoreNode(const Config& config, const noc::ClusterTopology& topology,
                   const traffic::TrafficPattern& pattern, noc::FlitSink& injectionPort,
                   noc::PacketSlab& slab, sim::Rng rng, PacketId* nextPacketId,
                   std::unique_ptr<workload::CoreWorkload> coreWorkload,
                   workload::TraceRecorder* recorder)
    : config_(config),
      topology_(&topology),
      pattern_(&pattern),
      injectionPort_(&injectionPort),
      slab_(&slab),
      rng_(rng),
      nextPacketId_(nextPacketId),
      queue_(config.queueCapacityPackets),
      workload_(std::move(coreWorkload)),
      recorder_(recorder) {
  assert(nextPacketId != nullptr);
  // Workload mode never consults the open-loop arrival process, and must not
  // perturb the RNG stream the model draws from.
  if (workload_ == nullptr) nextArrivalAt_ = drawArrivalFrom(0);
}

void CoreNode::reset(sim::Rng rng) {
  rng_ = rng;
  queue_.clear();
  flitCursor_ = 0;
  stats_ = CoreStats{};
  packetLatencies_ = metrics::LatencyHistogram{};
  requestLatencies_ = metrics::LatencyHistogram{};
  requestLatencySum_ = 0;
  timerScheduledFor_ = kNoCycle;  // the engine reset dropped any pending timer
  redrawPending_ = false;
  if (workload_ != nullptr) {
    workload_->reset();
  } else {
    nextArrivalAt_ = drawArrivalFrom(0);
  }
}

void CoreNode::setInjectionProbability(double probability) {
  if (workload_ != nullptr) return;  // closed loops pace themselves
  if (probability == config_.injectionProbability) return;  // parked cores stay parked
  config_.injectionProbability = probability;
  redrawPending_ = true;
  requestWake();
}

Cycle CoreNode::drawArrivalFrom(Cycle firstCandidate) {
  if (config_.injectionProbability <= 0.0) return kNoCycle;
  // One trial per candidate cycle, exactly as the per-cycle injector drew
  // them: the gap comes out geometric AND the stream position at the success
  // is the same, so destination draws see identical randomness.
  return firstCandidate + rng_.nextGeometricTrials(config_.injectionProbability);
}

void CoreNode::evaluate(Cycle) {}

void CoreNode::advance(Cycle cycle) {
  if (workload_ != nullptr) {
    workload_->step(cycle, *this);
    injectFlits(cycle);
    // Park until the model's next pre-announced event; a non-empty queue
    // keeps the core active without a timer (and covers submissions a full
    // queue deferred: room only appears by draining the queue).
    const Cycle next = workload_->nextEventAt();
    if (queue_.empty() && next != kNoCycle && timerScheduledFor_ != next) {
      scheduleWakeAt(next);
      timerScheduledFor_ = next;
    }
    return;
  }
  if (redrawPending_) {
    // Load retarget: trials with the new probability start at this cycle.
    redrawPending_ = false;
    nextArrivalAt_ = drawArrivalFrom(cycle);
  }
  if (cycle == nextArrivalAt_) {
    offerPacket(cycle);
    nextArrivalAt_ = drawArrivalFrom(cycle + 1);
  }
  injectFlits(cycle);
  // About to go idle until the pre-drawn arrival: set the wake timer (once
  // per target cycle; spurious fires on an active core are dropped by the
  // engine).  With a backlog the core stays active and needs no timer.
  if (queue_.empty() && nextArrivalAt_ != kNoCycle &&
      timerScheduledFor_ != nextArrivalAt_) {
    scheduleWakeAt(nextArrivalAt_);
    timerScheduledFor_ = nextArrivalAt_;
  }
}

void CoreNode::enqueue(const noc::PacketDescriptor& packet) {
  assert(!queue_.full());
  queue_.push_back(slab_->intern(packet));
  ++stats_.packetsGenerated;
  if (recorder_ != nullptr) recorder_->record(packet);
}

noc::PacketDescriptor CoreNode::describePacket(CoreId dst, std::uint32_t flits,
                                               Cycle cycle) {
  noc::PacketDescriptor packet;
  packet.id = (*nextPacketId_)++;
  packet.srcCore = config_.core;
  packet.dstCore = dst;
  packet.srcCluster = topology_->clusterOf(packet.srcCore);
  packet.dstCluster = topology_->clusterOf(packet.dstCore);
  packet.numFlits = flits;
  packet.bitsPerFlit = config_.flitBits;
  packet.createdAt = cycle;
  if (packet.srcCluster != packet.dstCluster) {
    packet.bandwidthClass = pattern_->bandwidthClass(packet.srcCluster, packet.dstCluster);
  }
  return packet;
}

void CoreNode::offerPacket(Cycle cycle) {
  ++stats_.packetsOffered;
  if (queue_.full()) {
    ++stats_.packetsRefused;
    return;
  }
  const CoreId dst = pattern_->sampleDestination(config_.core, rng_);
  assert(dst != config_.core);
  enqueue(describePacket(dst, config_.packetFlits, cycle));
}

bool CoreNode::submitPacket(const workload::PacketRequest& request, Cycle cycle) {
  if (queue_.full()) return false;
  // Self-addressed packets are legal here (a chain's data core can be the
  // flow's origin); the router loops them straight to the ejection port.
  noc::PacketDescriptor packet = describePacket(
      request.dst, request.flits != 0 ? request.flits : config_.packetFlits, cycle);
  packet.flowKind = request.kind;
  if (request.kind == noc::FlowKind::kRequest) {
    // A fresh flow: identified by its own packet id, originating here, now.
    packet.flowId = packet.id;
    packet.originCore = config_.core;
    packet.flowStartedAt = cycle;
  } else {
    packet.flowId = request.flowId;
    packet.originCore = request.originCore;
    packet.flowStartedAt = request.flowStartedAt;
  }
  // Offered == generated in workload mode: models check canSubmit() first,
  // so a refusal never happens silently and trace replays count identically.
  ++stats_.packetsOffered;
  if (request.kind == noc::FlowKind::kRequest) ++stats_.requestsIssued;
  if (request.kind == noc::FlowKind::kReply) ++stats_.repliesGenerated;
  enqueue(packet);
  return true;
}

void CoreNode::accept(const noc::Flit& flit, Cycle now) {
  assert(flit.packet().dstCore == config_.core && "flit ejected at the wrong core");
  ++stats_.flitsEjected;
  if (!flit.isTail()) return;
  ++stats_.packetsEjected;
  const noc::PacketDescriptor& packet = flit.packet();
  if (packet.flowKind == noc::FlowKind::kReply) {
    // Flow completion is accounted HERE, not in the model, so a trace
    // replay (which runs no closed-loop logic) reproduces request metrics
    // byte-identically from the replayed flow fields.
    ++stats_.requestsCompleted;
    const Cycle latency = now >= packet.flowStartedAt ? now - packet.flowStartedAt : 0;
    requestLatencySum_ += latency;
    requestLatencies_.record(latency);
  }
  if (workload_ != nullptr) {
    workload_->onPacketEjected(packet, now, *this);
    // The model's reaction is stamped for `now`+1; make sure we are active
    // to deliver it (mid-cycle wake if active, queued wake if parked — both
    // land next cycle, on gated and ungated engines alike).
    requestWake();
  }
  stats_.bitsEjected += packet.totalBits();
  const Cycle latency = now >= packet.createdAt ? now - packet.createdAt : 0;
  stats_.packetLatencyCyclesSum += latency;
  packetLatencies_.record(latency);
  // The tail is the packet's last flit anywhere in the system: its
  // descriptor slot can be recycled.
  slab_->release(flit.handle);
}

void CoreNode::injectFlits(Cycle cycle) {
  if (queue_.empty()) return;
  const noc::PacketHandle packet = queue_.front();
  const noc::Flit flit = noc::makeFlit(packet, flitCursor_);
  if (!injectionPort_->canAccept(flit)) {
    if (flit.isHead()) ++stats_.headRetries;  // dropped header, retransmit
    return;
  }
  injectionPort_->accept(flit, cycle);
  ++stats_.flitsInjected;
  ++flitCursor_;
  if (flitCursor_ >= packet->numFlits) {
    queue_.pop_front();
    flitCursor_ = 0;
  }
}

}  // namespace pnoc::network
