// A buffered ingress port: a FlitSink backed by a VC bank, which applies the
// wormhole VC-per-packet rule (VcBufferBank::accept/pop).  Used for the
// electrical ingress side of the photonic router.
//
// The port itself is not Clocked; its owner (the photonic router) is.  The
// owner hook lets accept() wake the parked owner and keep its buffered-flit
// count current, so the owner's quiescence check is O(1).
#pragma once

#include "noc/router.hpp"
#include "noc/vc_buffer.hpp"
#include "sim/engine.hpp"

namespace pnoc::noc {

class BufferedPort final : public FlitSink {
 public:
  BufferedPort(std::uint32_t numVcs, std::uint32_t depthFlits);

  /// Registers the Clocked component fed by this port.  Every accept() wakes
  /// `owner` and, when non-null, increments `bufferedCounter` (the owner
  /// decrements it on pop()).
  void notifyOwner(sim::Clocked* owner, std::uint32_t* bufferedCounter);

  // FlitSink
  bool canAccept(const Flit& flit) const override;
  void accept(const Flit& flit, Cycle now) override;
  /// Wake-on-drain: a blocked upstream parks and is woken by the next pop()
  /// (one-shot; an ingress port has a single upstream feeder).
  bool notifyOnDrain(sim::Clocked& waiter) override;

  VcBufferBank& bank() { return bank_; }
  const VcBufferBank& bank() const { return bank_; }

  /// Consumer side: pops the front flit of `vc` (the bank unlocks the VC
  /// when the popped flit is a tail).
  Flit pop(VcId vc, Cycle now);

  /// Empties the bank and drops the drain waiter (network reset).  The
  /// owner hook is preserved; the owner resets its own buffered counter.
  void reset();

 private:
  VcBufferBank bank_;
  sim::Clocked* owner_ = nullptr;
  std::uint32_t* bufferedCounter_ = nullptr;
  sim::Clocked* drainWaiter_ = nullptr;  // parked upstream awaiting buffer space
};

}  // namespace pnoc::noc
