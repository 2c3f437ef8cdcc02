#include "noc/vc_buffer.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace pnoc::noc {

BufferStats& BufferStats::operator+=(const BufferStats& other) {
  flitsWritten += other.flitsWritten;
  flitsRead += other.flitsRead;
  bitsWritten += other.bitsWritten;
  bitsRead += other.bitsRead;
  bitCyclesResident += other.bitCyclesResident;
  peakOccupancy = std::max(peakOccupancy, other.peakOccupancy);
  return *this;
}

VcBufferBank::VcBufferBank(std::uint32_t numVcs, std::uint32_t depthFlits) {
  assert(numVcs > 0);
  assert(numVcs <= 32 && "VC state is tracked in 32-bit masks");
  vcs_.reserve(numVcs);
  for (std::uint32_t i = 0; i < numVcs; ++i) vcs_.emplace_back(depthFlits);
  allVcsMask_ = numVcs == 32 ? ~0u : (1u << numVcs) - 1;
}

void VcBufferBank::attachHotState(const VcHotSlice& slice) {
  assert(occupancy_ == 0 && "attach before the bank carries traffic");
  ext_ = slice;
  *ext_.occupied = 0;
  *ext_.headFront = 0;
  for (std::uint32_t i = 0; i < numVcs(); ++i) {
    ext_.front[i] = Flit{};
    ext_.frontArrival[i] = 0;
  }
}

void VcBufferBank::push(VcId id, const Flit& flit, Cycle now) {
  // Wormhole invariant: a head is the first flit of its packet into the VC,
  // so "front is a head" holds from a head's push until that head is popped.
  if (flit.isHead()) {
    assert(vcs_[id].empty() && "a head flit must open an empty VC");
    headFrontMask_ |= bit(id);
  }
  const bool wasEmpty = vcs_[id].empty();
  vcs_[id].push(flit, now);
  occupiedMask_ |= bit(id);
  ++occupancy_;
  if (ext_.occupied != nullptr) {
    *ext_.occupied = occupiedMask_;
    *ext_.headFront = headFrontMask_;
    if (wasEmpty) {
      // The pushed flit becomes the front.  A non-head can land in an empty
      // (locked) VC mid-packet when the consumer drained ahead of the source.
      ext_.front[id] = flit;
      ext_.frontArrival[id] = now;
    }
  }
}

Flit VcBufferBank::pop(VcId id, Cycle now) {
  const Flit flit = vcs_[id].pop(now);
  if (vcs_[id].empty()) occupiedMask_ &= ~bit(id);
  assert(occupancy_ > 0);
  --occupancy_;
  // A popped head exposes a body/tail (heads only open empty VCs, so a
  // second head can never be queued behind one); a popped body/tail never
  // exposes a head for the same reason.
  if (flit.isHead()) headFrontMask_ &= ~bit(id);
  if (ext_.occupied != nullptr) {
    *ext_.occupied = occupiedMask_;
    *ext_.headFront = headFrontMask_;
    if (!vcs_[id].empty()) {
      ext_.front[id] = vcs_[id].front();
      ext_.frontArrival[id] = vcs_[id].frontArrival();
    }
  }
  return flit;
}

VcId VcBufferBank::findFreeVcForNewPacket() const {
  // Lowest VC that is both empty and unlocked — identical to a linear scan.
  const std::uint32_t freeBits = ~(occupiedMask_ | lockedMask_) & allVcsMask_;
  if (freeBits == 0) return kNoVc;
  return static_cast<VcId>(std::countr_zero(freeBits));
}

void VcBufferBank::reset() {
  for (auto& vc : vcs_) vc.reset();
  occupiedMask_ = 0;
  headFrontMask_ = 0;
  lockedMask_ = 0;
  occupancy_ = 0;
  if (ext_.occupied != nullptr) {
    *ext_.occupied = 0;
    *ext_.headFront = 0;
    for (std::uint32_t i = 0; i < numVcs(); ++i) {
      ext_.front[i] = Flit{};
      ext_.frontArrival[i] = 0;
    }
  }
}

BufferStats VcBufferBank::aggregateStats() const {
  BufferStats total;
  for (const auto& vc : vcs_) total += vc.stats();
  return total;
}

}  // namespace pnoc::noc
