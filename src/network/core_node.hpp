// A processing core: packet source with a finite injection queue, and the
// sink that terminates the packets addressed to it.  The core injects into
// its electrical router's input port 0 and is itself the FlitSink on that
// router's output port 0 (paper Figure 3-1: one router per core), so every
// delivery counter lives here, in CoreStats.
//
// Two injection regimes:
//
// OPEN LOOP (default, no workload model).  Injection follows the traffic
// pattern's per-core weight: the core offers a packet with per-cycle
// probability offeredLoad * normalizedWeight; if the injection queue is full
// the offer is refused (counted — this is how saturation shows up at the
// sources).  Queued packets are pushed into the core's router input port one
// flit per cycle; a head flit that finds every VC busy is dropped and
// retransmitted the next cycle (Section 1.4), counted as a retry.
//
// Arrivals are PRE-SCHEDULED: instead of flipping a Bernoulli coin every
// cycle, the core draws the geometric gap to its next offer up front — by
// replaying the very same per-cycle Bernoulli trials against its private RNG
// stream, so the offer times AND the stream position at every destination
// draw are bit-identical to the per-cycle formulation — then schedules an
// engine timer for the arrival cycle and parks for the whole gap.  At low
// offered load this is the difference between every core waking every cycle
// and the whole injection side sleeping (tests/integration/
// engine_equivalence_test.cpp asserts both the exact replay and the
// geometric law).
//
// WORKLOAD MODE (workload= spec, src/workload).  A per-core workload model
// decides what to enqueue and when, reacting to ejections (closed-loop
// request--reply, dependency chains, trace replay) through the CoreContext
// interface this class implements.  The core still parks between the
// model's pre-announced events (nextEventAt() + the same engine timer
// machinery), and every ejection-triggered action is deferred to the cycle
// after the ejection so gated and ungated engines stay bit-identical.  The
// core also keeps the flow bookkeeping model-independent: request latency
// and completion counts are recorded HERE, from the flow fields riding in
// the packet descriptor, so a trace replay reproduces them byte-identically
// without replaying any model logic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "noc/flit.hpp"
#include "noc/packet_slab.hpp"
#include "noc/topology.hpp"
#include "sim/engine.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"
#include "metrics/histogram.hpp"
#include "traffic/pattern.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace pnoc::network {

struct CoreStats {
  std::uint64_t packetsOffered = 0;
  std::uint64_t packetsRefused = 0;  // injection queue full
  std::uint64_t packetsGenerated = 0;
  std::uint64_t headRetries = 0;  // header flit dropped by a full router port
  std::uint64_t flitsInjected = 0;
  /// Flits/packets fully ejected at THIS core (the destination side of the
  /// conservation invariant: sum injected == sum ejected + in flight), the
  /// delivered packets' bits and their latencies (tail ejection minus
  /// creation) summed.
  std::uint64_t flitsEjected = 0;
  std::uint64_t packetsEjected = 0;
  Bits bitsEjected = 0;
  std::uint64_t packetLatencyCyclesSum = 0;
  // --- flow counters (all zero in open loop) ---
  std::uint64_t requestsIssued = 0;     // kRequest packets enqueued here
  std::uint64_t repliesGenerated = 0;   // kReply packets enqueued here
  std::uint64_t requestsCompleted = 0;  // kReply tails ejected here
};

class CoreNode final : public sim::Clocked,
                       public workload::CoreContext,
                       public noc::FlitSink {
 public:
  struct Config {
    CoreId core = 0;
    double injectionProbability = 0.0;  // per cycle, already weighted
    std::uint32_t queueCapacityPackets = 8;
    std::uint32_t packetFlits = 64;
    Bits flitBits = 32;
  };

  /// The core injects into `injectionPort` (its router's input port 0) and
  /// releases each delivered packet's descriptor back to `slab`.
  /// `coreWorkload` switches the core into workload mode (nullptr: open
  /// loop); `recorder` captures every enqueued packet (nullptr: off).
  CoreNode(const Config& config, const noc::ClusterTopology& topology,
           const traffic::TrafficPattern& pattern, noc::FlitSink& injectionPort,
           noc::PacketSlab& slab, sim::Rng rng, PacketId* nextPacketId,
           std::unique_ptr<workload::CoreWorkload> coreWorkload = nullptr,
           workload::TraceRecorder* recorder = nullptr);

  void evaluate(Cycle cycle) override;
  void advance(Cycle cycle) override;
  std::string name() const override { return "core" + std::to_string(config_.core); }
  obs::ComponentKind profileKind() const override {
    return obs::ComponentKind::kCore;
  }
  /// A core with an empty queue parks between pre-scheduled arrivals / model
  /// events (the engine timer it set wakes it at the event cycle); a core
  /// that can never inject parks outright.  A non-empty queue keeps the core
  /// active: it pushes one flit per cycle and must keep retrying dropped
  /// head flits so the retry counters stay exact.
  bool quiescent() const override {
    if (!queue_.empty()) return false;
    if (workload_ != nullptr) {
      const Cycle next = workload_->nextEventAt();
      return next == kNoCycle || timerScheduledFor_ == next;
    }
    return !redrawPending_ &&
           (nextArrivalAt_ == kNoCycle || timerScheduledFor_ == nextArrivalAt_);
  }

  const CoreStats& stats() const { return stats_; }
  /// Per-packet latency (tail ejection minus creation) of every packet
  /// delivered here.
  const metrics::LatencyHistogram& packetLatencies() const { return packetLatencies_; }
  std::uint32_t queuedPackets() const { return queue_.size(); }

  /// Cycle of the next pre-scheduled offer (kNoCycle when the core can never
  /// inject) — introspection for tests.
  Cycle nextArrivalAt() const { return nextArrivalAt_; }

  /// Request-latency accounting (reply tail ejection minus the originating
  /// request's enqueue cycle), separate from per-packet flit latency.
  const metrics::LatencyHistogram& requestLatencies() const { return requestLatencies_; }
  std::uint64_t requestLatencyCyclesSum() const { return requestLatencySum_; }

  /// The per-core workload model, if any (tests / introspection).
  const workload::CoreWorkload* coreWorkload() const { return workload_.get(); }

  /// Restores the freshly-constructed state with a new RNG stream (network
  /// reset; the network re-seeds every core the same way construction did).
  /// Re-draws the first arrival gap exactly as the constructor does and
  /// rewinds the workload model.
  void reset(sim::Rng rng);

  /// Re-targets the injector (PhotonicNetwork::setOfferedLoad()).  A no-op
  /// when the probability is unchanged, so parked cores stay parked across
  /// redundant sweep-point updates; on a real change the pending gap is
  /// re-drawn at the core's next cycle so the new load takes effect
  /// immediately (Bernoulli trials with the new probability from that cycle
  /// on).  Workload mode ignores load entirely: a closed loop paces itself.
  void setInjectionProbability(double probability);

  // --- noc::FlitSink (the router's ejection port) ---
  bool canAccept(const noc::Flit&) const override { return true; }
  /// Destination-side delivery accounting for every ejected flit.  On a
  /// tail it completes flows, hands the packet to the workload model (whose
  /// reaction lands at `now`+1 or later), counts the delivered packet and
  /// finally releases the descriptor's slab slot.
  void accept(const noc::Flit& flit, Cycle now) override;

  // --- workload::CoreContext (the model's view of its host) ---
  CoreId coreId() const override { return config_.core; }
  sim::Rng& workloadRng() override { return rng_; }
  const traffic::TrafficPattern& trafficPattern() const override { return *pattern_; }
  bool canSubmit() const override { return !queue_.full(); }
  bool submitPacket(const workload::PacketRequest& request, Cycle cycle) override;

 private:
  /// Replays per-cycle Bernoulli trials starting at `firstCandidate` and
  /// returns the first success cycle (kNoCycle when probability <= 0; no RNG
  /// is consumed then, matching Rng::nextBool's p<=0 short-circuit).
  Cycle drawArrivalFrom(Cycle firstCandidate);
  /// A fresh descriptor from this core to `dst` (next packet id, clusters,
  /// size, creation cycle, bandwidth class); flow fields left at defaults.
  noc::PacketDescriptor describePacket(CoreId dst, std::uint32_t flits, Cycle cycle);
  void offerPacket(Cycle cycle);
  void injectFlits(Cycle cycle);
  /// The single enqueue bottom (open-loop offers and model submissions):
  /// interns, queues, counts, and records to the trace.
  void enqueue(const noc::PacketDescriptor& packet);

  Config config_;
  const noc::ClusterTopology* topology_;
  const traffic::TrafficPattern* pattern_;
  noc::FlitSink* injectionPort_;
  noc::PacketSlab* slab_;
  sim::Rng rng_;
  PacketId* nextPacketId_;
  sim::RingBuffer<noc::PacketHandle> queue_;
  std::unique_ptr<workload::CoreWorkload> workload_;  // nullptr: open loop
  workload::TraceRecorder* recorder_ = nullptr;       // nullptr: not recording
  std::uint32_t flitCursor_ = 0;  // next flit of queue_.front() to inject
  Cycle nextArrivalAt_ = kNoCycle;
  Cycle timerScheduledFor_ = kNoCycle;  // engine timer already set for this cycle
  bool redrawPending_ = false;          // probability changed; re-draw next cycle
  CoreStats stats_;
  metrics::LatencyHistogram packetLatencies_;
  metrics::LatencyHistogram requestLatencies_;
  std::uint64_t requestLatencySum_ = 0;
};

}  // namespace pnoc::network
