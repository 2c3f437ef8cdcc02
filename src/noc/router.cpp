#include "noc/router.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace pnoc::noc {

ElectricalRouter::ElectricalRouter(
    std::string name, const RouterConfig& config,
    std::function<std::uint32_t(const PacketDescriptor&)> routeFn)
    : name_(std::move(name)),
      config_(config),
      routeFn_(std::move(routeFn)),
      outputs_(config.numPorts),
      route_(static_cast<std::size_t>(config.numPorts) * config.vcsPerPort, 0),
      selectedVc_(config.numPorts, kNoVc),
      requestsFor_(config.numPorts, 0) {
  assert(routeFn_ && "router requires a routing function");
  assert(config.numPorts <= 32 && "port state is tracked in 32-bit masks");
  PortOwner& owner = *this;
  inputs_.reserve(config.numPorts);
  for (std::uint32_t p = 0; p < config.numPorts; ++p) {
    inputs_.emplace_back(owner, p, config.vcsPerPort, config.vcDepthFlits);
    inputArbiters_.emplace_back(config.vcsPerPort);
    outputArbiters_.emplace_back(config.numPorts);
  }
  pendingMoves_.reserve(config.numPorts);
}

void ElectricalRouter::connectOutput(std::uint32_t port, FlitSink& sink) {
  assert(port < config_.numPorts);
  outputs_[port].sink = &sink;
}

void ElectricalRouter::validateWiring() const {
  for (std::uint32_t port = 0; port < config_.numPorts; ++port) {
    if (outputs_[port].sink == nullptr) {
      throw std::logic_error(name_ + ": output port " + std::to_string(port) +
                             " is not wired");
    }
  }
}

void ElectricalRouter::onFlitBuffered(std::uint32_t port, VcId vc, const Flit& flit) {
  if (flit.isHead()) {
    const std::uint32_t out = routeFn_(flit.packet());
    assert(out < config_.numPorts);
    route_[port * config_.vcsPerPort + vc] = static_cast<std::uint8_t>(out);
  }
  ++occupancy_;
  canSleepBlocked_ = false;  // new work: re-evaluate before parking again
  requestWake();
}

void ElectricalRouter::evaluate(Cycle cycle) {
  // Empty router: no moves were pending (advance() cleared them), so skip
  // both phases' work outright.  This is the ungated engine's fast path; the
  // gated engine does not call evaluate() on an empty router at all.
  if (occupancy_ == 0) return;
  pendingMoves_.clear();
  std::uint32_t busyInputs = 0;

  // Stage 0: continue wormhole streams that already own an output port.
  for (std::uint32_t owned = ownedMask_; owned != 0; owned &= owned - 1) {
    const auto out = static_cast<std::uint32_t>(std::countr_zero(owned));
    const OutputState& state = outputs_[out];
    if ((busyInputs & bit(state.inPort)) != 0) continue;
    const VcBufferBank& bank = inputs_[state.inPort].bank();
    if ((bank.occupiedMask() & bit(state.inVc)) == 0) continue;
    if (!frontEligible(bank, state.inVc, cycle)) continue;
    const Flit flit = bank.vc(state.inVc).front();
    assert(flit.handle == state.packet && "VC lock violated");
    if (!state.sink->canAccept(flit)) continue;
    busyInputs |= bit(state.inPort);
    pendingMoves_.push_back(Move{state.inPort, state.inVc, out});
  }

  // Streaming fast path: with no head flit at the front of any VC, stages
  // 1 and 2 cannot produce a grant — every front flit is body/tail traffic
  // that only moves through the owned outputs handled above.
  std::uint32_t anyHeadFronts = 0;
  for (const BufferedPort& port : inputs_) anyHeadFronts |= port.bank().headFrontMask();
  if (anyHeadFronts == 0) {
    finishEvaluate(cycle);
    return;
  }

  // Stage 1 (input arbitration): each idle input picks one VC holding an
  // eligible head flit whose route targets an unowned output that can
  // accept it.  Stage 0 only connects owned outputs, so "unowned" is also
  // "not busy this cycle".
  std::uint32_t requestedOutputs = 0;
  for (std::uint32_t in = 0; in < config_.numPorts; ++in) {
    if ((busyInputs & bit(in)) != 0) continue;
    const VcBufferBank& bank = inputs_[in].bank();
    std::uint32_t requests = 0;
    for (std::uint32_t heads = bank.headFrontMask(); heads != 0; heads &= heads - 1) {
      const auto vc = static_cast<VcId>(std::countr_zero(heads));
      if (!frontEligible(bank, vc, cycle)) continue;
      const std::uint32_t out = routeOf(in, vc);
      if ((ownedMask_ & bit(out)) != 0) continue;
      const FlitSink* sink = outputs_[out].sink;
      assert(sink != nullptr && "output wired (validateWiring)");
      if (!sink->canAccept(bank.vc(vc).front())) continue;
      requests |= bit(vc);
    }
    if (requests == 0) continue;
    const VcId vc = inputArbiters_[in].grant(requests);
    const std::uint32_t out = routeOf(in, vc);
    selectedVc_[in] = vc;
    if ((requestedOutputs & bit(out)) == 0) requestsFor_[out] = 0;
    requestedOutputs |= bit(out);
    requestsFor_[out] |= bit(in);
  }

  // Stage 2 (output arbitration): each requested output picks among the
  // inputs whose selected head flit targets it (ascending output order).
  for (std::uint32_t outs = requestedOutputs; outs != 0; outs &= outs - 1) {
    const auto out = static_cast<std::uint32_t>(std::countr_zero(outs));
    const std::uint32_t in = outputArbiters_[out].grant(requestsFor_[out]);
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
  const Cycle eligibleDelay = config_.pipelineLatency - 1;
  // Streams that own an output port (body/tail flits mid-wormhole).
  for (std::uint32_t owned = ownedMask_; owned != 0; owned &= owned - 1) {
    const OutputState& state = outputs_[std::countr_zero(owned)];
    const VcBufferBank& bank = inputs_[state.inPort].bank();
    // An empty stream VC: the next body flit's arrival at the port wakes us.
    if ((bank.occupiedMask() & bit(state.inVc)) == 0) continue;
    if (!frontEligible(bank, state.inVc, cycle)) {
      nextEligible = std::min(nextEligible, bank.frontArrival(state.inVc) + eligibleDelay);
      continue;
    }
    // Eligible but stalled on the sink: ask it to wake us when it drains.
    if (!state.sink->notifyOnDrain(*this)) return;
  }
  // Head flits waiting at the front of their VC.
  for (std::uint32_t in = 0; in < config_.numPorts; ++in) {
    const VcBufferBank& bank = inputs_[in].bank();
    for (std::uint32_t heads = bank.headFrontMask(); heads != 0; heads &= heads - 1) {
      const auto vc = static_cast<VcId>(std::countr_zero(heads));
      if (!frontEligible(bank, vc, cycle)) {
        nextEligible = std::min(nextEligible, bank.frontArrival(vc) + eligibleDelay);
        continue;
      }
      const std::uint32_t out = routeOf(in, vc);
      // An owned output frees only when its stream moves, and moves only
      // happen while we are awake — the head rides on the owner's blockers.
      if ((ownedMask_ & bit(out)) != 0) continue;
      FlitSink* sink = outputs_[out].sink;
      assert(sink != nullptr && "output wired (validateWiring)");
      // A movable head implies a granted move, contradicting the zero-move
      // premise; stay polling rather than trust the analysis.
      if (sink->canAccept(bank.vc(vc).front())) return;
      if (!sink->notifyOnDrain(*this)) return;
    }
  }
  if (nextEligible != kNoCycle) scheduleWakeAt(nextEligible);
  canSleepBlocked_ = true;
}

void ElectricalRouter::advance(Cycle cycle) {
  for (const Move& move : pendingMoves_) {
    VcBufferBank& bank = inputs_[move.inPort].bank();
    const Bits bits = bank.vc(move.inVc).bitsPerFlit();
    const Flit flit = bank.pop(move.inVc, cycle);
    assert(occupancy_ > 0);
    --occupancy_;
    stats_.flitsRouted += 1;
    stats_.bitsRouted += bits;
    stats_.energyPj += config_.routerEnergyPerBitPj * static_cast<double>(bits);

    OutputState& state = outputs_[move.outPort];
    // The ejecting core releases the packet's slab slot when it consumes the
    // tail, so the handle is only compared, never dereferenced, after
    // accept().
    state.sink->accept(flit, cycle);

    if (flit.isHead() && !flit.isTail()) {
      ownedMask_ |= bit(move.outPort);
      state.inPort = move.inPort;
      state.inVc = move.inVc;
      state.packet = flit.handle;
    }
    if (flit.isTail() && (ownedMask_ & bit(move.outPort)) != 0 &&
        state.packet == flit.handle) {
      ownedMask_ &= ~bit(move.outPort);
    }
  }
  pendingMoves_.clear();
}

void ElectricalRouter::reset() {
  for (BufferedPort& port : inputs_) port.bank().reset();
  for (OutputState& state : outputs_) {
    state.inPort = 0;
    state.inVc = kNoVc;
    state.packet = nullptr;  // sink wiring survives
  }
  ownedMask_ = 0;
  std::fill(route_.begin(), route_.end(), std::uint8_t{0});
  for (auto& arbiter : inputArbiters_) arbiter.reset();
  for (auto& arbiter : outputArbiters_) arbiter.reset();
  pendingMoves_.clear();
  occupancy_ = 0;
  zeroMoveStreak_ = 0;
  canSleepBlocked_ = false;
  stats_ = RouterStats{};
}

}  // namespace pnoc::noc
