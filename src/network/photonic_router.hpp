// The photonic router of one cluster (paper Section 3.3.2, Figure 3-2).
//
// Electrical side: one buffered ingress port per core of the cluster (fed by
// the cores' uplink wires) and one ejection path per core (a down link back
// to the core's electrical router).
//
// Photonic side, implementing the reservation-assisted SWMR flow control of
// Section 3.3.1:
//   1. TRANSMIT — the router arbitrates round-robin over buffered
//      inter-cluster head flits; for the chosen packet it asks the channel
//      policy how many wavelengths the (src,dst) pair may use, broadcasts a
//      reservation flit (latency from core::reservationCycles — 1 cycle, or
//      2 when many identifiers must be piggybacked), and — if the destination
//      has a free receive VC — streams the packet at
//      lambdas * 5 bits/cycle.  If the destination has no free VC the
//      reservation fails and is retried: the drop-and-retransmit behaviour of
//      Section 1.4, counted in the stats.
//   2. RECEIVE — reserved receive VCs accept the in-flight flits after the
//      waveguide propagation delay; per-core ejection engines drain them
//      toward the destination cores' routers.
// One transmission is in flight per write channel at a time (SWMR: the
// cluster owns a single write channel whose width the DBA varies).
//
// The per-cycle scans read the VC banks themselves, as the electrical router
// does: the transmit scan intersects each ingress bank's occupancy and
// head-front masks, the ejection scan intersects the receive bank's
// occupancy mask with a per-core mask of the receive VCs bound to that core,
// and fronts come from bank.vc(v).front().  The banks also own the wormhole
// VC locks: a receive VC reserved for a packet unlocks when its tail pops.
//
// Parking: instead of polling while blocked, the router computes per-cycle
// replay constants — what a polled cycle would have added to its stats —
// and parks, arming the wake source that ends the blockage:
//   * reservation wait states  -> engine timer at the wait's end,
//   * wormhole bubble          -> the ingress port's owner-wake on accept,
//   * failed reservations      -> a waiter bit at each refusing destination,
//     fired on its next VC unlock (plus a policy grant-change wake, since a
//     d-HetPNoC grant growth can also unblock the scan),
//   * blocked ejection         -> notifyOnDrain on each stalled down link.
// On wake the skipped cycles are replayed into the statistics, keeping
// gated runs bit-identical to the polling engine (the same invariant the
// activity-gating layer proves for every other component).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/reservation.hpp"
#include "noc/buffered_port.hpp"
#include "noc/flit.hpp"
#include "noc/topology.hpp"
#include "photonic/energy_model.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace pnoc::network {

class ChannelPolicy;

struct PhotonicRouterConfig {
  ClusterId cluster = 0;
  std::uint32_t clusterSize = 4;
  std::uint32_t vcsPerPort = 16;    // Table 3-3
  std::uint32_t vcDepthFlits = 64;  // Table 3-3
  Bits flitBits = 32;
  std::uint32_t packetFlits = 64;
  Cycle propagationCycles = 1;
  std::uint32_t lambdasPerWaveguide = 64;
  std::uint32_t numDataWaveguides = 1;
  double bitsPerLambdaPerCycle = 5.0;  // 12.5 Gb/s at 2.5 GHz
  std::uint32_t reservationHeaderBits = 16;  // dst id + packet size
  photonic::EnergyParams energy{};
};

struct PhotonicRouterStats {
  std::uint64_t reservationsIssued = 0;
  std::uint64_t reservationFailures = 0;  // destination had no free VC
  std::uint64_t packetsTransmitted = 0;
  Bits bitsTransmitted = 0;
  std::uint64_t transmitBusyCycles = 0;
  std::uint64_t reservationCyclesSpent = 0;
};

class PhotonicRouter final : public sim::Clocked, private noc::PortOwner {
 public:
  PhotonicRouter(std::string name, const PhotonicRouterConfig& config,
                 const ChannelPolicy& policy);
  // The ingress ports hold a reference back to the router.
  PhotonicRouter(const PhotonicRouter&) = delete;
  PhotonicRouter& operator=(const PhotonicRouter&) = delete;

  /// Wiring: peers[c] is cluster c's photonic router (peers[self] unused).
  void setPeers(std::vector<PhotonicRouter*> peers);
  /// Wiring: down link delivering ejected flits to local core `localIndex`.
  void connectEjection(std::uint32_t localIndex, noc::FlitSink& sink);
  /// Throws std::logic_error naming the first unwired ejection slot, or the
  /// missing peer list.
  void validateWiring() const;

  /// Electrical ingress from local core `localIndex`'s uplink.
  noc::FlitSink& inputPort(std::uint32_t localIndex);

  // --- remote-side API (called by the source router during its advance) ---
  /// Reserves a free receive VC for an incoming packet; returns kNoVc when
  /// none is available (reservation failure at the source).
  VcId tryReserveReceiveVc(PacketId packet, CoreId dstCore);
  /// Schedules a flit to arrive into a previously reserved receive VC.
  void scheduleArrival(VcId vc, const noc::Flit& flit, Cycle arriveAt);
  /// Registers cluster `src`'s router for a wake on this router's next
  /// receive-VC unlock (one-shot; the whole set is fired and cleared
  /// together).  A source whose reservation failed arms this before parking.
  void addReservationWaiter(ClusterId src) {
    reservationWaiters_ |= std::uint64_t{1} << src;
  }

  // sim::Clocked
  void evaluate(Cycle cycle) override;
  void advance(Cycle cycle) override;
  std::string name() const override { return name_; }
  obs::ComponentKind profileKind() const override {
    return obs::ComponentKind::kPhotonicRouter;
  }
  /// Parked when the last advance() proved every subsequent cycle would be a
  /// pure replay of stored per-cycle constants until an armed wake fires
  /// (fully idle is the zero-constants special case).
  bool quiescent() const override { return canSleep_; }

  /// Restores the freshly-constructed state — empty buffers, no in-flight
  /// photonic traffic, initial round-robin pointers, zeroed statistics and
  /// energy ledger, no parked-replay state.  Peer/ejection wiring is
  /// preserved.
  void reset() { restoreFreshState(); }

  /// Flushes the parked-stats replay up to (but excluding) `now`, so stats()
  /// reads taken mid-run (collectTotals at window boundaries) see exactly
  /// what a polling engine would have accumulated.  Idempotent; no-op when
  /// the router is live.
  void syncParkedStats(Cycle now);

  const PhotonicRouterStats& stats() const { return stats_; }
  const photonic::EnergyLedger& transferLedger() const { return ledger_; }
  /// Aggregated buffer statistics over ingress and receive banks (the
  /// photonic-buffer term of eq. (4) is priced from these).
  noc::BufferStats bufferStats() const;
  std::uint32_t occupancy() const {
    return ingressFlits_ + receiveBank_.totalOccupancy() +
           static_cast<std::uint32_t>(inFlight_.size());
  }

 private:
  struct Transmission {
    bool active = false;
    std::uint32_t inPort = 0;
    VcId inVc = kNoVc;
    noc::PacketDescriptor packet;
    VcId remoteVc = kNoVc;
    std::uint32_t lambdas = 0;
    /// First cycle data may stream (reservation wait states end the cycle
    /// before).  Absolute, so parked wait cycles need no per-cycle
    /// decrement — the replay just counts them.
    Cycle reservationDoneAt = 0;
    double creditBits = 0.0;
  };

  struct PendingArrival {
    VcId vc;
    noc::Flit flit;
    Cycle arriveAt;
  };

  struct ReceiveBinding {
    bool bound = false;
    PacketId packet = 0;
    CoreId dstCore = 0;
  };

  /// Replay state while parked: what every skipped cycle would have added.
  struct ParkState {
    Cycle parkedAt = kNoCycle;  ///< last cycle the router actually ran
    std::uint64_t issuedPerCycle = 0;
    std::uint64_t failuresPerCycle = 0;
    std::uint64_t busyPerCycle = 0;
    std::uint64_t resWaitPerCycle = 0;
  };

  /// PortOwner: counts the buffered ingress flit and wakes.
  void onFlitBuffered(std::uint32_t port, VcId vc, const noc::Flit& flit) override;
  void processArrivals(Cycle cycle);
  void runEjection(Cycle cycle);
  void runTransmit(Cycle cycle);
  bool tryStartTransmission(Cycle cycle);
  void chargeReservationEnergy(std::uint32_t identifierCount);
  void updateParkEligibility(Cycle cycle);
  void replayParkedCycles(Cycle skipped);
  void restoreFreshState();

  std::string name_;
  PhotonicRouterConfig config_;
  const ChannelPolicy* policy_;
  std::vector<noc::BufferedPort> ingress_;  // one per local core
  noc::VcBufferBank receiveBank_;
  std::vector<ReceiveBinding> receiveBindings_;
  std::vector<PendingArrival> inFlight_;
  std::vector<PhotonicRouter*> peers_;
  std::vector<noc::FlitSink*> ejection_;  // one per local core
  std::vector<VcId> ejectionRoundRobin_;  // per-core RR pointer over receive VCs
  /// Receive VCs currently bound to a packet for local core i (bitmask over
  /// the receive bank): the ejection scan intersects this with the occupied
  /// mask instead of probing every VC's binding.
  std::vector<std::uint32_t> coreBound_;  // [clusterSize]
  Transmission tx_;
  std::uint32_t txScanPort_ = 0;  // RR over (port, vc) candidates
  std::uint32_t txScanVc_ = 0;
  /// Flits buffered across the ingress ports (counted by the ports' owner
  /// hook, uncounted on pop): the transmit side's O(1) nothing-to-do check,
  /// as the receive bank's totalOccupancy() is the ejection side's.
  std::uint32_t ingressFlits_ = 0;
  // --- parking machinery ---
  ParkState park_;
  bool canSleep_ = true;
  bool txScanBlocked_ = false;    // this cycle's scan ran and started nothing
  bool ejectedThisCycle_ = false;
  std::uint64_t txScanIssued_ = 0;    // counters of the last blocked scan
  std::uint64_t txScanFailures_ = 0;
  std::uint64_t reservationWaiters_ = 0;  // bit c: wake cluster c on VC unlock
  Cycle timerArmedFor_ = 0;   // reservation-end timer already scheduled for
  PhotonicRouterStats stats_;
  photonic::EnergyLedger ledger_;
};

}  // namespace pnoc::network
