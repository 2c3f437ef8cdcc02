// Arbiters for the 3-stage router of [24] (input arbitration, routing,
// output arbitration — paper Section 3.3.2).
//
// Two classic designs:
//  * RoundRobinArbiter — rotating priority; starvation free.
//  * MatrixArbiter     — least-recently-served priority matrix; fairer under
//                        asymmetric request rates, O(n^2) state.
// Both expose the same interface so the router can be instantiated with
// either (RouterConfig::arbiter, the `arbiter=` scenario key, selects one).
// Requests arrive as a bitmask (at most 32 requestors), so a grant is a few
// mask operations and a count-trailing-zeros rather than a scan.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pnoc::noc {

/// Sentinel meaning "no requestor granted".
inline constexpr std::uint32_t kNoGrant = ~std::uint32_t{0};

class Arbiter {
 public:
  virtual ~Arbiter() = default;

  /// Number of requestors this arbiter serves (1..32).
  virtual std::uint32_t size() const = 0;

  /// Grants one of the requesting inputs (bit i of `requestMask` set iff
  /// input i requests; bits at or above size() must be clear) and updates
  /// internal priority state.  Returns kNoGrant, leaving the state
  /// untouched, if nothing is requesting.
  virtual std::uint32_t grant(std::uint32_t requestMask) = 0;

  /// Restores the freshly-constructed priority state (network reset).
  virtual void reset() = 0;

  virtual std::string name() const = 0;
};

class RoundRobinArbiter final : public Arbiter {
 public:
  explicit RoundRobinArbiter(std::uint32_t size);

  std::uint32_t size() const override { return size_; }
  std::uint32_t grant(std::uint32_t requestMask) override;
  void reset() override { nextPriority_ = 0; }
  std::string name() const override { return "round-robin"; }

 private:
  std::uint32_t size_;
  std::uint32_t nextPriority_ = 0;  // index searched first
};

class MatrixArbiter final : public Arbiter {
 public:
  explicit MatrixArbiter(std::uint32_t size);

  std::uint32_t size() const override { return size_; }
  std::uint32_t grant(std::uint32_t requestMask) override;
  void reset() override;
  std::string name() const override { return "matrix"; }

 private:
  std::uint32_t size_;
  /// Column i of the priority matrix: bit j of beatenBy_[i] set iff j has
  /// priority over i (the diagonal is always clear).
  std::vector<std::uint32_t> beatenBy_;
};

/// Factory by name ("round-robin" | "matrix"); throws std::invalid_argument
/// on unknown names.
std::unique_ptr<Arbiter> makeArbiter(const std::string& kind, std::uint32_t size);

}  // namespace pnoc::noc
