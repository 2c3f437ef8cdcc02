// Three-stage wormhole electrical router (paper Section 3.3.2, after [24]):
// input arbitration, routing/crossbar traversal, output arbitration.
//
// The router is a Clocked component.  Movement decisions are made in
// evaluate() against the state committed at the end of the previous cycle and
// applied in advance(), so a network of routers is order independent.
//
// Wiring: every input is a BufferedPort (inputPort(p)) that a link or the
// local core feeds directly, and every output is a FlitSink — a link or, on
// the ejection port, the destination core itself.  validateWiring() refuses
// a router with an unwired output.
//
// Flow control is wormhole with per-packet VC locking, applied by each input
// port's VcBufferBank: a head flit allocates a free, unlocked VC; body flits
// follow on the same VC; the lock is released when the tail leaves.  The
// router itself only records the head's route, when the port reports the
// head's VC.  If no VC is available for an arriving head flit, the port's
// canAccept() is false and the source must retry — the drop-and-retransmit
// behaviour of Section 1.4 is implemented at the injection site, which
// counts the drop.
//
// An empty router (no buffered flits) is quiescent and is parked by the
// engine; every flit an input port accepts wakes it.  A router that is
// occupied but FULLY blocked — every buffered stream either waits out the
// router pipeline latency or stalls on a downstream link that cannot
// accept — also parks: it schedules an engine timer for the earliest
// pipeline-eligibility cycle and registers wake-on-drain with each blocking
// link (FlitSink::notifyOnDrain), so a congested router sleeps instead of
// re-arbitrating nothing every cycle.  Blocked cycles are arbitration no-ops
// (no grants, no stats, no pointer movement), so parking them is
// bit-identical to polling.
//
// The per-cycle decision reads only compact router- and bank-local state:
// each packet is routed once, when its head is accepted, into one output
// byte per (input port, VC); the bank's head-front mask, occupancy mask and
// front-arrival array say which heads are eligible; arbitration grants on
// request bitmasks, with the cycle's busy inputs and owned outputs as local
// masks.  No packet descriptor is loaded and evaluate() allocates nothing.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "noc/arbiter.hpp"
#include "noc/buffered_port.hpp"
#include "noc/flit.hpp"
#include "noc/vc_buffer.hpp"
#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace pnoc::noc {

struct RouterConfig {
  std::uint32_t numPorts = 5;       // 4 cores + 1 photonic uplink in a cluster
  std::uint32_t vcsPerPort = 16;    // Table 3-3
  std::uint32_t vcDepthFlits = 64;  // Table 3-3
  /// Cycles a flit spends inside the router pipeline before it may leave
  /// (3 stages -> earliest departure 2 cycles after arrival, arriving
  /// downstream on the 3rd).
  std::uint32_t pipelineLatency = 3;
  /// Electrical energy charged per bit traversing the router (Table 3-5).
  double routerEnergyPerBitPj = 0.625;
};

struct RouterStats {
  std::uint64_t flitsRouted = 0;
  Bits bitsRouted = 0;
  Picojoule energyPj = 0.0;
};

class ElectricalRouter final : public sim::Clocked, private PortOwner {
 public:
  /// `routeFn` maps a packet to its output port.  It must be a pure function
  /// of the descriptor: the router calls it once per packet, when the head
  /// flit is accepted, and reuses the answer until the head leaves.
  /// At most 32 ports and 32 VCs per port (arbitration works on bitmasks).
  ElectricalRouter(std::string name, const RouterConfig& config,
                   std::function<std::uint32_t(const PacketDescriptor&)> routeFn);
  // The input ports hold a reference back to the router.
  ElectricalRouter(const ElectricalRouter&) = delete;
  ElectricalRouter& operator=(const ElectricalRouter&) = delete;

  /// Wires output port `port` to a sink. All ports must be wired before the
  /// first cycle runs (validateWiring() checks).
  void connectOutput(std::uint32_t port, FlitSink& sink);

  /// Throws std::logic_error naming the first output port left unwired.
  void validateWiring() const;

  /// Ingress: input port `port`, which the upstream link or injecting core
  /// feeds.  A head is refused while every VC of the port is busy.
  FlitSink& inputPort(std::uint32_t port) {
    assert(port < config_.numPorts);
    return inputs_[port];
  }

  // sim::Clocked
  void evaluate(Cycle cycle) override;
  void advance(Cycle cycle) override;
  std::string name() const override { return name_; }
  obs::ComponentKind profileKind() const override {
    return obs::ComponentKind::kElectricalRouter;
  }
  /// Empty, or occupied-but-blocked with every wake source armed (see the
  /// file comment).
  bool quiescent() const override { return occupancy_ == 0 || canSleepBlocked_; }

  const RouterConfig& config() const { return config_; }
  const RouterStats& stats() const { return stats_; }

  /// Restores the freshly-constructed state — empty buffers, initial
  /// arbitration priorities, zeroed statistics; wiring is preserved.
  void reset();

  /// Flits currently buffered (all ports, all VCs) — used by tests and by
  /// drain-detection in the network.  O(1): tracked on accept/forward.
  std::uint32_t occupancy() const { return occupancy_; }

 private:
  /// Wormhole stream holding an output port (its bit is set in ownedMask_).
  struct OutputState {
    std::uint32_t inPort = 0;
    VcId inVc = kNoVc;
    PacketHandle packet = nullptr;
    FlitSink* sink = nullptr;
  };

  struct Move {
    std::uint32_t inPort;
    VcId inVc;
    std::uint32_t outPort;
  };

  static std::uint32_t bit(std::uint32_t index) { return 1u << index; }
  /// True once vc's (non-empty) front has waited out the pipeline latency.
  bool frontEligible(const VcBufferBank& bank, VcId vc, Cycle now) const {
    return config_.pipelineLatency <= 1 ||
           bank.frontArrival(vc) + (config_.pipelineLatency - 1) <= now;
  }
  /// Output port of the packet whose head opened VC `vc` of input `inPort`.
  std::uint32_t routeOf(std::uint32_t inPort, VcId vc) const {
    return route_[inPort * config_.vcsPerPort + vc];
  }
  /// PortOwner: records a head's route, counts the flit and wakes.
  void onFlitBuffered(std::uint32_t port, VcId vc, const Flit& flit) override;
  void finishEvaluate(Cycle cycle);
  void prepareBlockedPark(Cycle cycle);

  std::string name_;
  RouterConfig config_;
  std::function<std::uint32_t(const PacketDescriptor&)> routeFn_;
  std::vector<BufferedPort> inputs_;
  std::vector<OutputState> outputs_;
  /// Bit o set iff output o is held by a wormhole stream (outputs_[o]).
  std::uint32_t ownedMask_ = 0;
  /// [inPort * vcsPerPort + vc] routeFn_ result for the packet whose head
  /// opened that VC; read while the head waits at the VC front.
  std::vector<std::uint8_t> route_;
  /// Input-arbitration stage: one arbiter per input port picks among VCs.
  std::vector<RoundRobinArbiter> inputArbiters_;
  /// Output-arbitration stage: one arbiter per output port picks among inputs.
  std::vector<RoundRobinArbiter> outputArbiters_;
  std::vector<Move> pendingMoves_;  // decided in evaluate, applied in advance
  std::uint32_t occupancy_ = 0;     // buffered flits across all ports/VCs
  /// Consecutive evaluate() calls that produced no move; the blocked-park
  /// scan only runs once a stall persists (a one-cycle pipeline bubble is
  /// cheaper to step through than to analyze).
  std::uint32_t zeroMoveStreak_ = 0;
  /// Set by evaluate() on a zero-move cycle once every blocked stream has a
  /// wake source armed (drain notification or eligibility timer); cleared by
  /// any new work.
  bool canSleepBlocked_ = false;
  // Stage-1 results of the current evaluate(): the VC each granting input
  // selected, and, for each output requested this cycle, the requesting
  // inputs as a mask.
  std::vector<VcId> selectedVc_;
  std::vector<std::uint32_t> requestsFor_;
  RouterStats stats_;
};

}  // namespace pnoc::noc
