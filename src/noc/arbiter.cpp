#include "noc/arbiter.hpp"

#include <bit>
#include <cassert>

namespace pnoc::noc {

RoundRobinArbiter::RoundRobinArbiter(std::uint32_t size) : size_(size) {
  assert(size > 0 && size <= 32);
}

std::uint32_t RoundRobinArbiter::grant(std::uint32_t requestMask) {
  assert((requestMask & ~(size_ == 32 ? ~0u : (1u << size_) - 1)) == 0);
  if (requestMask == 0) return kNoGrant;
  // First requester at or after nextPriority_, wrapping to the lowest one.
  const std::uint32_t atOrAfter = requestMask >> nextPriority_;
  const std::uint32_t winner =
      atOrAfter != 0 ? nextPriority_ + static_cast<std::uint32_t>(std::countr_zero(atOrAfter))
                     : static_cast<std::uint32_t>(std::countr_zero(requestMask));
  nextPriority_ = winner + 1 == size_ ? 0 : winner + 1;
  return winner;
}

}  // namespace pnoc::noc
