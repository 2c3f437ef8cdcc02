#include "noc/vc_buffer.hpp"

#include <algorithm>
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

VcBufferBank::VcBufferBank(std::uint32_t numVcs, std::uint32_t depthFlits)
    : ownFrontArrival_(numVcs, 0) {
  assert(numVcs > 0);
  assert(numVcs <= 32 && "VC state is tracked in 32-bit masks");
  vcs_.reserve(numVcs);
  for (std::uint32_t i = 0; i < numVcs; ++i) vcs_.emplace_back(depthFlits);
  allVcsMask_ = numVcs == 32 ? ~0u : (1u << numVcs) - 1;
  frontArrival_ = ownFrontArrival_.data();
}

void VcBufferBank::attachHotState(const VcHotSlice& slice) {
  assert(occupancy_ == 0 && "attach before the bank carries traffic");
  ext_ = slice;
  frontArrival_ = slice.frontArrival;
  ownFrontArrival_ = {};
  *ext_.occupied = 0;
  *ext_.headFront = 0;
  for (std::uint32_t i = 0; i < numVcs(); ++i) {
    ext_.front[i] = Flit{};
    frontArrival_[i] = 0;
  }
}

void VcBufferBank::reset() {
  for (auto& vc : vcs_) vc.reset();
  occupiedMask_ = 0;
  headFrontMask_ = 0;
  lockedMask_ = 0;
  occupancy_ = 0;
  stats_ = BufferStats{};
  std::fill_n(frontArrival_, numVcs(), Cycle{0});
  if (ext_.occupied != nullptr) {
    *ext_.occupied = 0;
    *ext_.headFront = 0;
    std::fill_n(ext_.front, numVcs(), Flit{});
  }
}

}  // namespace pnoc::noc
