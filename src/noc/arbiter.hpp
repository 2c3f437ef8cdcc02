// Round-robin arbiter for the 3-stage router of [24] (input arbitration,
// routing, output arbitration — paper Section 3.3.2): rotating priority,
// starvation free.  Requests arrive as a bitmask (at most 32 requestors), so
// a grant is a few mask operations and a count-trailing-zeros rather than a
// scan.
#pragma once

#include <cstdint>

namespace pnoc::noc {

/// Sentinel meaning "no requestor granted".
inline constexpr std::uint32_t kNoGrant = ~std::uint32_t{0};

class RoundRobinArbiter {
 public:
  /// Serves `size` requestors (1..32).
  explicit RoundRobinArbiter(std::uint32_t size);

  /// Grants one of the requesting inputs (bit i of `requestMask` set iff
  /// input i requests; bits at or above `size` must be clear) and rotates
  /// priority past the winner.  Returns kNoGrant, leaving the state
  /// untouched, if nothing is requesting.
  std::uint32_t grant(std::uint32_t requestMask);

  /// Restores the freshly-constructed priority state (network reset).
  void reset() { nextPriority_ = 0; }

 private:
  std::uint32_t size_;
  std::uint32_t nextPriority_ = 0;  // index searched first
};

}  // namespace pnoc::noc
