// A router input port: the FlitSink that links and injecting cores feed,
// backed by a VC bank that applies the wormhole VC-per-packet rule
// (VcBufferBank::accept/pop).  Both routers build their inputs from it — the
// electrical router one per port, the photonic router one per local core.
//
// The port itself is not Clocked; its owner (the router) is.  Every accepted
// flit is reported to the owner together with the VC it took, so the owner
// can wake, keep its buffered-flit count current (its quiescence check stays
// O(1)) and, on a head, record the packet's route.  The owner reads and pops
// the bank directly.
#pragma once

#include <cstdint>

#include "noc/flit.hpp"
#include "noc/vc_buffer.hpp"
#include "sim/types.hpp"

namespace pnoc::noc {

/// The component a BufferedPort feeds.
class PortOwner {
 public:
  /// `flit` was just buffered in VC `vc` of the owner's input `port`.
  virtual void onFlitBuffered(std::uint32_t port, VcId vc, const Flit& flit) = 0;

 protected:
  ~PortOwner() = default;
};

class BufferedPort final : public FlitSink {
 public:
  /// Input `index` of `owner`, `numVcs` VCs of `depthFlits` flits each.
  BufferedPort(PortOwner& owner, std::uint32_t index, std::uint32_t numVcs,
               std::uint32_t depthFlits)
      : bank_(numVcs, depthFlits), owner_(&owner), index_(index) {}

  // FlitSink
  bool canAccept(const Flit& flit) const override { return bank_.canAccept(flit); }
  void accept(const Flit& flit, Cycle now) override {
    owner_->onFlitBuffered(index_, bank_.accept(flit, now), flit);
  }

  VcBufferBank& bank() { return bank_; }
  const VcBufferBank& bank() const { return bank_; }

 private:
  VcBufferBank bank_;
  PortOwner* owner_;
  std::uint32_t index_;
};

}  // namespace pnoc::noc
