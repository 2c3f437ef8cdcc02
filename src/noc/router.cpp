#include "noc/router.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace pnoc::noc {

ElectricalRouter::ElectricalRouter(
    std::string name, const RouterConfig& config,
    std::function<std::uint32_t(const PacketDescriptor&)> routeFn)
    : name_(std::move(name)),
      config_(config),
      routeFn_(std::move(routeFn)),
      outputs_(config.numPorts),
      crossbar_(config.numPorts, config.numPorts),
      receivingVc_(config.numPorts),
      vcRequests_(config.vcsPerPort, false),
      inputRequests_(config.numPorts, false),
      vcTargets_(config.vcsPerPort, 0),
      selectedVc_(config.numPorts, kNoVc),
      selectedOut_(config.numPorts, 0) {
  assert(routeFn_ && "router requires a routing function");
  inputs_.reserve(config.numPorts);
  for (std::uint32_t p = 0; p < config.numPorts; ++p) {
    inputs_.emplace_back(config.vcsPerPort, config.vcDepthFlits);
    inputArbiters_.push_back(makeArbiter(config.arbiter, config.vcsPerPort));
    outputArbiters_.push_back(makeArbiter(config.arbiter, config.numPorts));
  }
  pendingMoves_.reserve(config.numPorts);
}

void ElectricalRouter::connectOutput(std::uint32_t port, FlitSink& sink) {
  assert(port < config_.numPorts);
  outputs_[port].sink = &sink;
}

bool ElectricalRouter::canAcceptFlit(std::uint32_t inputPort, const Flit& flit) const {
  assert(inputPort < config_.numPorts);
  const VcBufferBank& bank = inputs_[inputPort];
  if (flit.isHead()) {
    return bank.findFreeVcForNewPacket() != kNoVc;
  }
  const VcId vc = receivingVc_[inputPort].find(flit.packet().id);
  if (vc == kNoVc) return false;  // head was never accepted here
  return !bank.vc(vc).full();
}

void ElectricalRouter::acceptFlit(std::uint32_t inputPort, const Flit& flit, Cycle now) {
  assert(canAcceptFlit(inputPort, flit));
  VcBufferBank& bank = inputs_[inputPort];
  VcId vc = kNoVc;
  if (flit.isHead()) {
    vc = bank.findFreeVcForNewPacket();
    bank.lock(vc);
    if (!flit.isTail()) receivingVc_[inputPort].insert(flit.packet().id, vc);
  } else {
    vc = receivingVc_[inputPort].find(flit.packet().id);
    if (flit.isTail()) receivingVc_[inputPort].erase(flit.packet().id);
  }
  bank.push(vc, flit, now);
  ++occupancy_;
  canSleepBlocked_ = false;  // new work: re-evaluate before parking again
  requestWake();
}

bool ElectricalRouter::flitEligible(std::uint32_t inPort, VcId vc, Cycle now) const {
  const VirtualChannel& channel = inputs_[inPort].vc(vc);
  if (channel.empty()) return false;
  if (config_.pipelineLatency <= 1) return true;
  return channel.frontArrival() + (config_.pipelineLatency - 1) <= now;
}

void ElectricalRouter::evaluate(Cycle cycle) {
  // Empty router: no moves were pending (advance() cleared them) and the
  // crossbar is only consulted after the reset below, so skip both phases'
  // work outright.  This is the ungated engine's fast path; the gated engine
  // does not call evaluate() on an empty router at all.
  if (occupancy_ == 0) return;
  pendingMoves_.clear();
  crossbar_.reset();

  // Stage 0: continue wormhole streams that already own an output port.
  for (std::uint32_t out = 0; out < config_.numPorts; ++out) {
    OutputState& state = outputs_[out];
    if (!state.owned) continue;
    if (crossbar_.inputBusy(state.inPort)) continue;
    const VirtualChannel& channel = inputs_[state.inPort].vc(state.inVc);
    if (channel.empty()) continue;
    const Flit flit = channel.front();
    assert(flit.packet().id == state.packet && "VC lock violated");
    if (!flitEligible(state.inPort, state.inVc, cycle)) continue;
    if (state.sink == nullptr || !state.sink->canAccept(flit)) continue;
    crossbar_.connect(state.inPort, out);
    pendingMoves_.push_back(Move{state.inPort, state.inVc, out});
  }

  // Streaming fast path: with no head flit at the front of any VC, stages
  // 1 and 2 cannot produce a grant — every front flit is body/tail traffic
  // that only moves through the owned outputs handled above.
  bool anyHeadFronts = false;
  for (const VcBufferBank& bank : inputs_) {
    if (bank.headFrontCount() != 0) {
      anyHeadFronts = true;
      break;
    }
  }
  if (!anyHeadFronts) {
    finishEvaluate(cycle);
    return;
  }

  // Stage 1 (input arbitration): each idle input picks one VC holding an
  // eligible head flit whose route targets a free output that can accept it.
  std::fill(selectedVc_.begin(), selectedVc_.end(), kNoVc);
  for (std::uint32_t in = 0; in < config_.numPorts; ++in) {
    if (crossbar_.inputBusy(in)) continue;
    std::fill(vcRequests_.begin(), vcRequests_.end(), false);
    bool any = false;
    // Iterate only the occupied VCs (ascending, same order as a full scan).
    for (std::uint32_t occ = inputs_[in].occupiedMask(); occ != 0; occ &= occ - 1) {
      const VcId vc = static_cast<VcId>(std::countr_zero(occ));
      const Flit front = inputs_[in].vc(vc).front();
      if (!front.isHead()) continue;
      if (!flitEligible(in, vc, cycle)) continue;
      const std::uint32_t out = routeFn_(front.packet());
      assert(out < config_.numPorts);
      const OutputState& state = outputs_[out];
      if (state.owned || crossbar_.outputBusy(out)) continue;
      if (state.sink == nullptr || !state.sink->canAccept(front)) continue;
      vcRequests_[vc] = true;
      vcTargets_[vc] = out;
      any = true;
    }
    if (!any) continue;
    const std::uint32_t vc = inputArbiters_[in]->grant(vcRequests_);
    if (vc != kNoGrant) {
      selectedVc_[in] = vc;
      selectedOut_[in] = vcTargets_[vc];
    }
  }

  // Stage 2 (output arbitration): each free output picks among the inputs
  // whose selected head flit targets it.
  for (std::uint32_t out = 0; out < config_.numPorts; ++out) {
    if (outputs_[out].owned || crossbar_.outputBusy(out)) continue;
    std::fill(inputRequests_.begin(), inputRequests_.end(), false);
    bool any = false;
    for (std::uint32_t in = 0; in < config_.numPorts; ++in) {
      if (selectedVc_[in] != kNoVc && selectedOut_[in] == out) {
        inputRequests_[in] = true;
        any = true;
      }
    }
    if (!any) continue;
    const std::uint32_t in = outputArbiters_[out]->grant(inputRequests_);
    if (in == kNoGrant) continue;
    crossbar_.connect(in, out);
    pendingMoves_.push_back(Move{in, selectedVc_[in], out});
  }

  finishEvaluate(cycle);
}

void ElectricalRouter::finishEvaluate(Cycle cycle) {
  // Zero-move cycles are pure no-ops (no grants were issued, advance() will
  // not touch stats): once the stall persists past a single pipeline bubble,
  // analyze the blockers and try to park until one of them clears.
  if (!pendingMoves_.empty()) {
    zeroMoveStreak_ = 0;
    canSleepBlocked_ = false;
    return;
  }
  if (++zeroMoveStreak_ >= 2) {
    prepareBlockedPark(cycle);
  } else {
    canSleepBlocked_ = false;
  }
}

void ElectricalRouter::prepareBlockedPark(Cycle cycle) {
  canSleepBlocked_ = false;
  Cycle nextEligible = kNoCycle;
  // Streams that own an output port (body/tail flits mid-wormhole).
  for (std::uint32_t out = 0; out < config_.numPorts; ++out) {
    const OutputState& state = outputs_[out];
    if (!state.owned) continue;
    const VirtualChannel& channel = inputs_[state.inPort].vc(state.inVc);
    if (channel.empty()) continue;  // next body flit's acceptFlit() wakes us
    if (!flitEligible(state.inPort, state.inVc, cycle)) {
      nextEligible =
          std::min(nextEligible, channel.frontArrival() + config_.pipelineLatency - 1);
      continue;
    }
    // Eligible but stalled on the sink: ask it to wake us when it drains.
    if (state.sink == nullptr || !state.sink->notifyOnDrain(*this)) return;
  }
  // Head flits waiting at the front of their VC.
  for (std::uint32_t in = 0; in < config_.numPorts; ++in) {
    for (std::uint32_t occ = inputs_[in].occupiedMask(); occ != 0; occ &= occ - 1) {
      const VcId vc = static_cast<VcId>(std::countr_zero(occ));
      const VirtualChannel& channel = inputs_[in].vc(vc);
      const Flit front = channel.front();
      if (!front.isHead()) continue;  // body stream, covered above
      if (!flitEligible(in, vc, cycle)) {
        nextEligible =
            std::min(nextEligible, channel.frontArrival() + config_.pipelineLatency - 1);
        continue;
      }
      const std::uint32_t out = routeFn_(front.packet());
      const OutputState& state = outputs_[out];
      // An owned output frees only when its stream moves, and moves only
      // happen while we are awake — the head rides on the owner's blockers.
      if (state.owned) continue;
      if (state.sink == nullptr) return;
      // A movable head implies a granted move, contradicting the zero-move
      // premise; stay polling rather than trust the analysis.
      if (state.sink->canAccept(front)) return;
      if (!state.sink->notifyOnDrain(*this)) return;
    }
  }
  if (nextEligible != kNoCycle) scheduleWakeAt(nextEligible);
  canSleepBlocked_ = true;
}

void ElectricalRouter::advance(Cycle cycle) {
  for (const Move& move : pendingMoves_) {
    VcBufferBank& bank = inputs_[move.inPort];
    const Flit flit = bank.pop(move.inVc, cycle);
    assert(occupancy_ > 0);
    --occupancy_;
    crossbar_.traverse(move.inPort, flit);
    stats_.flitsRouted += 1;
    stats_.bitsRouted += flit.bits();
    stats_.energyPj += config_.routerEnergyPerBitPj * static_cast<double>(flit.bits());

    OutputState& state = outputs_[move.outPort];
    assert(state.sink != nullptr);
    // Read everything we need from the descriptor before handing the flit
    // over: an ejection sink releases the packet's slab slot when it
    // consumes the tail, so the handle must not be dereferenced after
    // accept().
    const PacketId packetId = flit.packet().id;
    const bool isHead = flit.isHead();
    const bool isTail = flit.isTail();
    state.sink->accept(flit, cycle);

    if (isHead && !isTail) {
      state.owned = true;
      state.inPort = move.inPort;
      state.inVc = move.inVc;
      state.packet = packetId;
    }
    if (isTail) {
      if (state.owned && state.packet == packetId) state.owned = false;
      bank.unlock(move.inVc);
    }
  }
  pendingMoves_.clear();
}

void ElectricalRouter::reset() {
  for (auto& bank : inputs_) bank.reset();
  for (OutputState& state : outputs_) {
    state.owned = false;
    state.inPort = 0;
    state.inVc = kNoVc;
    state.packet = 0;  // sink wiring survives
  }
  crossbar_.reset();
  crossbar_.resetStats();
  for (auto& arbiter : inputArbiters_) arbiter->reset();
  for (auto& arbiter : outputArbiters_) arbiter->reset();
  for (auto& map : receivingVc_) map.clear();
  pendingMoves_.clear();
  occupancy_ = 0;
  zeroMoveStreak_ = 0;
  canSleepBlocked_ = false;
  stats_ = RouterStats{};
}

BufferStats ElectricalRouter::aggregateBufferStats() const {
  BufferStats total;
  for (const auto& bank : inputs_) total += bank.aggregateStats();
  return total;
}

}  // namespace pnoc::noc
