#include "network/photonic_router.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "network/channel_policy.hpp"

namespace pnoc::network {

PhotonicRouter::PhotonicRouter(std::string name, const PhotonicRouterConfig& config,
                               const ChannelPolicy& policy)
    : name_(std::move(name)),
      config_(config),
      policy_(&policy),
      receiveBank_(config.vcsPerPort, config.vcDepthFlits),
      receiveBindings_(config.vcsPerPort),
      ejection_(config.clusterSize, nullptr),
      ejectionRoundRobin_(config.clusterSize, 0),
      coreBound_(config.clusterSize, 0) {
  assert(config.vcDepthFlits >= config.packetFlits &&
         "a receive VC must hold a whole packet");
  noc::PortOwner& owner = *this;
  ingress_.reserve(config.clusterSize);
  for (std::uint32_t i = 0; i < config.clusterSize; ++i) {
    ingress_.emplace_back(owner, i, config.vcsPerPort, config.vcDepthFlits);
  }
  restoreFreshState();
}

void PhotonicRouter::setPeers(std::vector<PhotonicRouter*> peers) {
  assert(peers.size() <= 64 && "reservation waiters are a 64-bit mask");
  peers_ = std::move(peers);
}

void PhotonicRouter::connectEjection(std::uint32_t localIndex, noc::FlitSink& sink) {
  assert(localIndex < ejection_.size());
  ejection_[localIndex] = &sink;
}

void PhotonicRouter::validateWiring() const {
  if (peers_.size() <= config_.cluster) {
    throw std::logic_error(name_ + ": peer photonic routers are not wired");
  }
  for (std::uint32_t core = 0; core < ejection_.size(); ++core) {
    if (ejection_[core] == nullptr) {
      throw std::logic_error(name_ + ": ejection slot " + std::to_string(core) +
                             " is not wired");
    }
  }
}

noc::FlitSink& PhotonicRouter::inputPort(std::uint32_t localIndex) {
  assert(localIndex < ingress_.size());
  return ingress_[localIndex];
}

void PhotonicRouter::onFlitBuffered(std::uint32_t, VcId, const noc::Flit&) {
  ++ingressFlits_;
  requestWake();
}

VcId PhotonicRouter::tryReserveReceiveVc(PacketId packet, CoreId dstCore) {
  const VcId vc = receiveBank_.findFreeVcForNewPacket();
  if (vc == kNoVc) return kNoVc;
  receiveBank_.lock(vc);
  receiveBindings_[vc] = ReceiveBinding{true, packet, dstCore};
  coreBound_[dstCore % ejection_.size()] |= 1u << vc;
  return vc;
}

void PhotonicRouter::scheduleArrival(VcId vc, const noc::Flit& flit, Cycle arriveAt) {
  assert(vc < receiveBindings_.size() && receiveBindings_[vc].bound);
  assert(receiveBindings_[vc].packet == flit.packet().id);
  inFlight_.push_back(PendingArrival{vc, flit, arriveAt});
  requestWake();
}

void PhotonicRouter::evaluate(Cycle) {
  // All state the router mutates is either its own or a peer's receive-VC
  // reservation, which is inherently sequential (the token of contention is
  // the VC lock itself); work happens in advance() in deterministic engine
  // order, so a two-phase split is unnecessary here.  This no-op is also
  // what makes requestWakeInCycle() hand-offs to this router sound: a
  // same-cycle joiner only ever skips a no-op evaluate.
}

void PhotonicRouter::replayParkedCycles(Cycle skipped) {
  if (skipped == 0) return;
  stats_.reservationsIssued += park_.issuedPerCycle * skipped;
  stats_.reservationFailures += park_.failuresPerCycle * skipped;
  stats_.transmitBusyCycles += park_.busyPerCycle * skipped;
  stats_.reservationCyclesSpent += park_.resWaitPerCycle * skipped;
}

void PhotonicRouter::syncParkedStats(Cycle now) {
  if (park_.parkedAt == kNoCycle || now == 0) return;
  const Cycle upTo = now - 1;  // cycles < now have fully elapsed
  if (upTo > park_.parkedAt) {
    replayParkedCycles(upTo - park_.parkedAt);
    park_.parkedAt = upTo;
  }
}

void PhotonicRouter::advance(Cycle cycle) {
  // First replay whatever a polling engine would have done in the skipped
  // cycles (park_.parkedAt+1 .. cycle-1); this cycle itself runs live.
  if (park_.parkedAt != kNoCycle) {
    if (cycle > park_.parkedAt) replayParkedCycles(cycle - park_.parkedAt - 1);
    park_.parkedAt = kNoCycle;
  }
  canSleep_ = false;
  txScanBlocked_ = false;
  ejectedThisCycle_ = false;
  processArrivals(cycle);
  runEjection(cycle);
  runTransmit(cycle);
  // Ungated, quiescent() is never consulted and wakes are never delivered,
  // so the eligibility scan and its wake arming would be pure overhead.
  if (activityGated()) updateParkEligibility(cycle);
}

void PhotonicRouter::processArrivals(Cycle cycle) {
  if (inFlight_.empty()) return;
  auto due = [cycle](const PendingArrival& a) { return a.arriveAt <= cycle; };
  // Deliver due flits in scheduling order (FIFO per VC by construction).
  for (const PendingArrival& arrival : inFlight_) {
    if (!due(arrival)) continue;
    assert(!receiveBank_.vc(arrival.vc).full() &&
           "receive VC sized to a whole packet cannot overflow");
    receiveBank_.push(arrival.vc, arrival.flit, cycle);
  }
  inFlight_.erase(std::remove_if(inFlight_.begin(), inFlight_.end(), due), inFlight_.end());
}

void PhotonicRouter::runEjection(Cycle cycle) {
  if (receiveBank_.totalOccupancy() == 0) return;  // nothing to eject
  // Per-core ejection engines: each local core's down link can take one flit
  // per cycle; round-robin over the receive VCs bound to that core.  The
  // scan rotates the (occupied & bound-to-core) bitmask so each candidate is
  // visited in exactly the order the naive VC walk would — just without
  // touching the empty ones.
  const std::uint32_t numVcs = receiveBank_.numVcs();
  for (std::uint32_t core = 0; core < ejection_.size(); ++core) {
    noc::FlitSink* sink = ejection_[core];
    assert(sink != nullptr && "ejection slot wired (validateWiring)");
    std::uint32_t candidates = receiveBank_.occupiedMask() & coreBound_[core];
    if (candidates == 0) continue;
    const std::uint32_t rr = ejectionRoundRobin_[core];
    std::uint32_t rotated =
        rr == 0 ? candidates
                : ((candidates >> rr) | (candidates << (numVcs - rr))) &
                      (numVcs == 32 ? ~0u : (1u << numVcs) - 1);
    for (; rotated != 0; rotated &= rotated - 1) {
      const VcId vc =
          (rr + static_cast<VcId>(std::countr_zero(rotated))) % numVcs;
      assert(receiveBindings_[vc].bound &&
             receiveBindings_[vc].dstCore % ejection_.size() == core);
      if (!sink->canAccept(receiveBank_.vc(vc).front())) continue;
      const noc::Flit flit = receiveBank_.pop(vc, cycle);
      if (flit.isTail()) {
        receiveBindings_[vc].bound = false;
        coreBound_[core] &= ~(1u << vc);
        // A VC just freed: fire the parked sources whose reservations this
        // bank refused.  Sources registered later than this router join the
        // current cycle's advance — exactly where polling would rescan them.
        if (reservationWaiters_ != 0) {
          for (std::uint64_t m = reservationWaiters_; m != 0; m &= m - 1) {
            peers_[static_cast<std::size_t>(std::countr_zero(m))]
                ->requestWakeInCycle();
          }
          reservationWaiters_ = 0;
        }
      }
      sink->accept(flit, cycle);
      ejectionRoundRobin_[core] = (vc + 1) % numVcs;
      ejectedThisCycle_ = true;
      break;  // one flit per core per cycle
    }
  }
}

void PhotonicRouter::chargeReservationEnergy(std::uint32_t identifierCount) {
  const Bits bits = config_.reservationHeaderBits +
                    core::identifierPayloadBits(identifierCount, config_.numDataWaveguides);
  photonic::chargePhotonicTransfer(ledger_, config_.energy, bits);
}

bool PhotonicRouter::tryStartTransmission(Cycle cycle) {
  if (ingressFlits_ == 0) return false;  // ejection-only cycles skip the scan
  const std::uint32_t ports = static_cast<std::uint32_t>(ingress_.size());
  const std::uint32_t vcs = config_.vcsPerPort;
  std::uint64_t issued = 0;
  std::uint64_t failures = 0;
  // Round-robin over (port, vc) slots starting at the scan pointer, visiting
  // only occupied head-front VCs: group g == 0 covers the pointer port from
  // txScanVc_ up, groups 1..ports-1 the following ports in full, and group
  // `ports` the wrapped remainder of the pointer port — the same slot order
  // as a linear walk of all ports * vcs slots.  Pre-intersecting with the
  // head mask is exact: when no transmission is active, every occupied
  // ingress VC front is a head (streaming pops a packet contiguously), and
  // the old scan skipped non-head fronts without any side effect anyway.
  for (std::uint32_t group = 0; group <= ports; ++group) {
    const std::uint32_t port = (txScanPort_ + group) % ports;
    const noc::VcBufferBank& bank = ingress_[port].bank();
    std::uint32_t candidates = bank.occupiedMask() & bank.headFrontMask();
    if (group == 0) {
      candidates &= ~((1u << txScanVc_) - 1);
    } else if (group == ports) {
      candidates &= (1u << txScanVc_) - 1;
    }
    for (; candidates != 0; candidates &= candidates - 1) {
      const VcId vc = static_cast<VcId>(std::countr_zero(candidates));
      const noc::PacketDescriptor& packet = bank.vc(vc).front().packet();
      assert(packet.dstCluster != config_.cluster &&
             "intra-cluster packets must not reach the photonic router");
      const std::uint32_t lambdas = policy_->lambdasFor(config_.cluster, packet.dstCluster);
      if (lambdas == 0) continue;  // policy temporarily grants nothing
      PhotonicRouter* peer = peers_[packet.dstCluster];
      ++stats_.reservationsIssued;
      ++issued;
      const VcId remoteVc = peer->tryReserveReceiveVc(packet.id, packet.dstCore);
      if (remoteVc == kNoVc) {
        // All destination VCs busy: the header is dropped and retransmitted
        // later (Section 1.4), modeled as a failed reservation retried on a
        // subsequent cycle.  Arm a wake on the destination's next VC unlock
        // so the retry loop can park instead of polling.
        ++stats_.reservationFailures;
        ++failures;
        peer->addReservationWaiter(config_.cluster);
        continue;
      }
      tx_.active = true;
      tx_.inPort = port;
      tx_.inVc = vc;
      tx_.packet = packet;
      tx_.remoteVc = remoteVc;
      tx_.lambdas = lambdas;
      const std::uint32_t identifiers =
          policy_->maxReservationIdentifiers() == 0 ? 0 : lambdas;
      const double channelBitsPerCycle =
          static_cast<double>(config_.lambdasPerWaveguide) * config_.bitsPerLambdaPerCycle;
      const double idBits =
          core::identifierPayloadBits(identifiers, config_.numDataWaveguides);
      // The selection cycle itself carries the base reservation flit (as in
      // Firefly); only identifier payload beyond one channel-cycle adds wait
      // states (Section 3.4.1.1's 2-cycle case for BW set 3).  Streaming
      // starts the cycle after the wait states end.
      tx_.reservationDoneAt =
          cycle + 1 +
          (std::max<Cycle>(1, static_cast<Cycle>(std::ceil(idBits / channelBitsPerCycle))) -
           1);
      tx_.creditBits = 0.0;
      chargeReservationEnergy(identifiers);
      const std::uint32_t slot = port * vcs + vc;
      txScanPort_ = (slot + 1) / vcs % ports;
      txScanVc_ = (slot + 1) % vcs;
      return true;
    }
  }
  txScanIssued_ = issued;
  txScanFailures_ = failures;
  return false;
}

void PhotonicRouter::runTransmit(Cycle cycle) {
  if (!tx_.active) {
    if (!tryStartTransmission(cycle) && ingressFlits_ > 0) txScanBlocked_ = true;
    return;  // reservation occupies at least this cycle
  }
  ++stats_.transmitBusyCycles;
  if (cycle < tx_.reservationDoneAt) {
    ++stats_.reservationCyclesSpent;
    return;
  }
  // Stream data: the channel moves lambdas * 5 bits per cycle.
  tx_.creditBits += static_cast<double>(tx_.lambdas) * config_.bitsPerLambdaPerCycle;
  noc::BufferedPort& port = ingress_[tx_.inPort];
  const std::uint32_t vcBit = 1u << tx_.inVc;
  bool sentTail = false;
  while ((port.bank().occupiedMask() & vcBit) != 0 &&
         tx_.creditBits >= static_cast<double>(config_.flitBits)) {
    assert(port.bank().vc(tx_.inVc).front().packet().id == tx_.packet.id &&
           "VC lock violated");
    const noc::Flit flit = port.bank().pop(tx_.inVc, cycle);
    assert(ingressFlits_ > 0);
    --ingressFlits_;
    tx_.creditBits -= static_cast<double>(flit.bits());
    photonic::chargePhotonicTransfer(ledger_, config_.energy, flit.bits());
    stats_.bitsTransmitted += flit.bits();
    peers_[tx_.packet.dstCluster]->scheduleArrival(tx_.remoteVc, flit,
                                                   cycle + config_.propagationCycles);
    if (flit.isTail()) {
      sentTail = true;
      break;
    }
  }
  if (sentTail) {
    ++stats_.packetsTransmitted;
    tx_ = Transmission{};
  } else if ((port.bank().occupiedMask() & vcBit) == 0) {
    // Wormhole bubble: the source core has not yet delivered the next flit.
    // The wavelengths idle; unspent capacity cannot be banked.
    tx_.creditBits = 0.0;
  }
}

void PhotonicRouter::updateParkEligibility(Cycle cycle) {
  // Decide whether every cycle from here until an armed wake would be a pure
  // replay of per-cycle constants.  Any "no" leaves the router live (the
  // conservative, polling-equivalent answer).
  canSleep_ = false;
  if (!inFlight_.empty()) return;  // arrivals land at specific future cycles
  std::uint64_t issued = 0;
  std::uint64_t failures = 0;
  std::uint64_t busy = 0;
  std::uint64_t resWait = 0;
  if (tx_.active) {
    if (cycle < tx_.reservationDoneAt) {
      // Streaming starts at reservationDoneAt; when that is next cycle there
      // is nothing to skip — stay live.
      if (tx_.reservationDoneAt == cycle + 1) return;
      // Waiting out reservation serialization: each polled cycle is one busy
      // + one wait-state count.  Wake exactly when streaming starts.
      busy = 1;
      resWait = 1;
      if (timerArmedFor_ != tx_.reservationDoneAt) {
        scheduleWakeAt(tx_.reservationDoneAt);
        timerArmedFor_ = tx_.reservationDoneAt;
      }
    } else if ((ingress_[tx_.inPort].bank().occupiedMask() & (1u << tx_.inVc)) != 0) {
      return;  // flits ready to stream next cycle: stay live
    } else {
      // Wormhole bubble: each polled cycle burns one busy cycle and zeroes
      // the credit it just accrued (creditBits is 0 here by construction).
      // The ingress port's owner-wake fires when the next flit lands.
      busy = 1;
    }
  } else if (ingressFlits_ > 0) {
    // Buffered heads but no transmission started: only safe to park if the
    // scan actually ran and failed this cycle (so its outcome is the replay
    // constant) and every unblock path is armed — destination-VC unlocks
    // via the reservation waiters the scan registered, grant growth via the
    // policy wake.
    if (!txScanBlocked_) return;
    if (!policy_->armGrantWake(config_.cluster, *this)) return;
    issued = txScanIssued_;
    failures = txScanFailures_;
  }
  if (receiveBank_.totalOccupancy() > 0) {
    // Buffered receive flits: safe to park only if nothing ejected this
    // cycle (otherwise more progress is likely next cycle) and every stalled
    // down link can wake us when it drains.  Blocked polled cycles touch no
    // counters, so the receive side contributes zero replay constants.
    if (ejectedThisCycle_) return;
    for (std::uint32_t core = 0; core < ejection_.size(); ++core) {
      if ((receiveBank_.occupiedMask() & coreBound_[core]) == 0) continue;
      noc::FlitSink* sink = ejection_[core];
      assert(sink != nullptr && "ejection slot wired (validateWiring)");
      if (!sink->notifyOnDrain(*this)) return;
    }
  }
  park_.issuedPerCycle = issued;
  park_.failuresPerCycle = failures;
  park_.busyPerCycle = busy;
  park_.resWaitPerCycle = resWait;
  park_.parkedAt = cycle;
  canSleep_ = true;
}

void PhotonicRouter::restoreFreshState() {
  // Single restore-from-construction path shared by the constructor and
  // reset(): every field that construction establishes is re-established
  // here, so reset can never miss a new member (the bug class this replaces
  // was member-by-member re-zeroing drifting out of sync with the header).
  for (noc::BufferedPort& port : ingress_) port.bank().reset();
  receiveBank_.reset();
  std::fill(receiveBindings_.begin(), receiveBindings_.end(), ReceiveBinding{});
  inFlight_.clear();
  std::fill(ejectionRoundRobin_.begin(), ejectionRoundRobin_.end(), VcId{0});
  std::fill(coreBound_.begin(), coreBound_.end(), 0u);
  tx_ = Transmission{};
  txScanPort_ = 0;
  txScanVc_ = 0;
  ingressFlits_ = 0;
  park_ = ParkState{};
  canSleep_ = true;
  txScanBlocked_ = false;
  ejectedThisCycle_ = false;
  txScanIssued_ = 0;
  txScanFailures_ = 0;
  reservationWaiters_ = 0;
  timerArmedFor_ = 0;
  stats_ = PhotonicRouterStats{};
  ledger_ = photonic::EnergyLedger{};
  assert(occupancy() == 0 && "restored router must hold no flits");
}

noc::BufferStats PhotonicRouter::bufferStats() const {
  noc::BufferStats total;
  for (const auto& port : ingress_) total += port.bank().aggregateStats();
  total += receiveBank_.aggregateStats();
  return total;
}

}  // namespace pnoc::network
