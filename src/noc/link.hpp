// Point-to-point electrical link with fixed latency, modeled as an elastic
// pipeline of `latency` slots.  accept() is only allowed when the pipe has a
// free slot, and the head of the pipe stalls (backpressure) while the
// downstream sink cannot take it, so flits are never lost in flight.
//
// Intra-cluster links in the d-HetPNoC are short copper wires between
// physically adjacent cores (paper Section 3.1), so the default latency is a
// single cycle; energy per bit is configurable (derived, like the paper's,
// from wire length).
//
// An empty link is quiescent: the engine parks it and accept() wakes it, so
// the thousands of idle wires in a low-load sweep cost nothing per cycle.
#pragma once

#include <cstdint>
#include <string>

#include "noc/flit.hpp"
#include "sim/engine.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/types.hpp"

namespace pnoc::noc {

struct LinkStats {
  std::uint64_t flitsDelivered = 0;
  Bits bitsDelivered = 0;
  Picojoule energyPj = 0.0;
  std::uint64_t stallCycles = 0;  // cycles the head of the pipe waited
};

class Link final : public FlitSink, public sim::Clocked {
 public:
  /// `latency` >= 1; the pipe holds `latency` flits.  That does NOT sustain
  /// one flit per cycle: under two-phase stepping the upstream decides in
  /// evaluate() against the pipe as committed last cycle, so a slot freed
  /// by a delivery in cycle t is refilled in cycle t+1 at the earliest.  An
  /// upstream router streaming into the link gets latency/(latency+1) flits
  /// per cycle: 0.5 at latency 1, 2 every 3 cycles at latency 2
  /// (tests/noc/router_test.cpp pins these rates).
  Link(std::string name, std::uint32_t latency, double energyPerBitPj, FlitSink& downstream);

  // FlitSink (upstream side)
  bool canAccept(const Flit& flit) const override;
  void accept(const Flit& flit, Cycle now) override;
  /// Wake-on-drain: the upstream router blocked on this full pipe parks and
  /// is woken the next time a slot frees (one-shot; links are point-to-point
  /// so there is at most one waiter).
  bool notifyOnDrain(sim::Clocked& waiter) override;

  // sim::Clocked
  void evaluate(Cycle cycle) override;
  void advance(Cycle cycle) override;
  std::string name() const override { return name_; }
  obs::ComponentKind profileKind() const override {
    return obs::ComponentKind::kLink;
  }
  bool quiescent() const override { return pipe_.empty(); }

  const LinkStats& stats() const { return stats_; }
  std::uint32_t occupancy() const { return pipe_.size(); }

  /// Empties the pipe and zeroes statistics (network reset).
  void reset() {
    pipe_.clear();
    deliverHead_ = false;
    drainWaiter_ = nullptr;
    stats_ = LinkStats{};
  }

 private:
  struct InFlight {
    Flit flit;
    Cycle readyAt = 0;  // earliest cycle the flit may exit the link
  };

  std::string name_;
  std::uint32_t latency_;
  double energyPerBitPj_;
  FlitSink* downstream_;
  sim::RingBuffer<InFlight> pipe_;
  bool deliverHead_ = false;             // decision from evaluate()
  sim::Clocked* drainWaiter_ = nullptr;  // parked upstream awaiting a free slot
  LinkStats stats_;
};

}  // namespace pnoc::noc
