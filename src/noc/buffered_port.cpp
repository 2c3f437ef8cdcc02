#include "noc/buffered_port.hpp"

#include <cassert>

namespace pnoc::noc {

BufferedPort::BufferedPort(std::uint32_t numVcs, std::uint32_t depthFlits)
    : bank_(numVcs, depthFlits) {}

void BufferedPort::notifyOwner(sim::Clocked* owner, std::uint32_t* bufferedCounter) {
  owner_ = owner;
  bufferedCounter_ = bufferedCounter;
}

bool BufferedPort::canAccept(const Flit& flit) const {
  if (flit.isHead()) return bank_.findFreeVcForNewPacket() != kNoVc;
  const VcId vc = receivingVc_.find(flit.handle);
  if (vc == kNoVc) return false;
  return !bank_.vc(vc).full();
}

void BufferedPort::accept(const Flit& flit, Cycle now) {
  assert(canAccept(flit));
  VcId vc = kNoVc;
  if (flit.isHead()) {
    vc = bank_.findFreeVcForNewPacket();
    bank_.lock(vc);
    if (!flit.isTail()) receivingVc_.insert(flit.handle, vc);
  } else {
    vc = receivingVc_.find(flit.handle);
    if (flit.isTail()) receivingVc_.erase(flit.handle);
  }
  bank_.push(vc, flit, now);
  if (bufferedCounter_ != nullptr) ++*bufferedCounter_;
  if (owner_ != nullptr) owner_->requestWake();
}

bool BufferedPort::notifyOnDrain(sim::Clocked& waiter) {
  assert((drainWaiter_ == nullptr || drainWaiter_ == &waiter) &&
         "an ingress port has a single upstream feeder");
  drainWaiter_ = &waiter;
  return true;
}

void BufferedPort::reset() {
  bank_.reset();
  receivingVc_.clear();
  drainWaiter_ = nullptr;
}

Flit BufferedPort::pop(VcId vc, Cycle now) {
  Flit flit = bank_.pop(vc, now);
  if (flit.isTail()) bank_.unlock(vc);
  if (bufferedCounter_ != nullptr) {
    assert(*bufferedCounter_ > 0);
    --*bufferedCounter_;
  }
  // Buffer space freed (and on a tail, the VC unlocked): wake the parked
  // upstream.  One-shot — it re-registers if it blocks again.
  if (drainWaiter_ != nullptr) {
    drainWaiter_->requestWake();
    drainWaiter_ = nullptr;
  }
  return flit;
}

}  // namespace pnoc::noc
