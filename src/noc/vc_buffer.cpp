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
    : frontArrival_(numVcs, 0) {
  assert(numVcs > 0);
  assert(numVcs <= 32 && "VC state is tracked in 32-bit masks");
  vcs_.reserve(numVcs);
  for (std::uint32_t i = 0; i < numVcs; ++i) vcs_.emplace_back(depthFlits);
  allVcsMask_ = numVcs == 32 ? ~0u : (1u << numVcs) - 1;
}

void VcBufferBank::reset() {
  for (auto& vc : vcs_) vc.reset();
  occupiedMask_ = 0;
  headFrontMask_ = 0;
  lockedMask_ = 0;
  occupancy_ = 0;
  stats_ = BufferStats{};
  std::fill(frontArrival_.begin(), frontArrival_.end(), Cycle{0});
  receiving_.clear();
}

}  // namespace pnoc::noc
