#include "noc/buffered_port.hpp"

#include <cassert>

namespace pnoc::noc {

BufferedPort::BufferedPort(std::uint32_t numVcs, std::uint32_t depthFlits)
    : bank_(numVcs, depthFlits) {}

void BufferedPort::notifyOwner(sim::Clocked* owner, std::uint32_t* bufferedCounter) {
  owner_ = owner;
  bufferedCounter_ = bufferedCounter;
}

bool BufferedPort::canAccept(const Flit& flit) const { return bank_.canAccept(flit); }

void BufferedPort::accept(const Flit& flit, Cycle now) {
  bank_.accept(flit, now);
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
  drainWaiter_ = nullptr;
}

Flit BufferedPort::pop(VcId vc, Cycle now) {
  const Flit flit = bank_.pop(vc, now);
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
