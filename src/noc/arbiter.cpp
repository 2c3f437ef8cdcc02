#include "noc/arbiter.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace pnoc::noc {

namespace {

std::uint32_t maskOf(std::uint32_t size) { return size == 32 ? ~0u : (1u << size) - 1; }

}  // namespace

RoundRobinArbiter::RoundRobinArbiter(std::uint32_t size) : size_(size) {
  assert(size > 0 && size <= 32);
}

std::uint32_t RoundRobinArbiter::grant(std::uint32_t requestMask) {
  assert((requestMask & ~maskOf(size_)) == 0);
  if (requestMask == 0) return kNoGrant;
  // First requester at or after nextPriority_, wrapping to the lowest one.
  const std::uint32_t atOrAfter = requestMask >> nextPriority_;
  const std::uint32_t winner =
      atOrAfter != 0 ? nextPriority_ + static_cast<std::uint32_t>(std::countr_zero(atOrAfter))
                     : static_cast<std::uint32_t>(std::countr_zero(requestMask));
  nextPriority_ = winner + 1 == size_ ? 0 : winner + 1;
  return winner;
}

MatrixArbiter::MatrixArbiter(std::uint32_t size) : size_(size), beatenBy_(size, 0) {
  assert(size > 0 && size <= 32);
  reset();
}

void MatrixArbiter::reset() {
  // Initial priority: lower index beats higher index.
  for (std::uint32_t i = 0; i < size_; ++i) beatenBy_[i] = (1u << i) - 1;
}

std::uint32_t MatrixArbiter::grant(std::uint32_t requestMask) {
  assert((requestMask & ~maskOf(size_)) == 0);
  // Lowest-index requester that no other requester beats.
  for (std::uint32_t pending = requestMask; pending != 0; pending &= pending - 1) {
    const auto winner = static_cast<std::uint32_t>(std::countr_zero(pending));
    if ((beatenBy_[winner] & requestMask) != 0) continue;
    // Winner drops below everyone: clear its row, set its column.
    const std::uint32_t winnerBit = 1u << winner;
    for (std::uint32_t& column : beatenBy_) column &= ~winnerBit;
    beatenBy_[winner] = maskOf(size_) & ~winnerBit;
    return winner;
  }
  return kNoGrant;
}

std::unique_ptr<Arbiter> makeArbiter(const std::string& kind, std::uint32_t size) {
  if (kind == "round-robin") return std::make_unique<RoundRobinArbiter>(size);
  if (kind == "matrix") return std::make_unique<MatrixArbiter>(size);
  throw std::invalid_argument("unknown arbiter kind: '" + kind + "'");
}

}  // namespace pnoc::noc
