// The wavelength-status token of Section 3.2.1.
//
// One bit per dynamically allocatable wavelength: set = currently allocated
// to some router, clear = free.  The token size N_TW = NW * lambda_W - N_lambdaR
// (eq. (1)); the N_lambdaR reserved wavelengths (at least one per cluster, so
// no cluster ever starves) are excluded — they are never traded.
//
// The token circulates router-to-router on a dedicated control waveguide with
// maximum DWDM; the per-hop latency is T_L = N_TW / (lambda_W * B) (eq. (2)),
// which the TokenRing converts to whole cycles.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "photonic/wavelength.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace pnoc::core {

class Token {
 public:
  /// Builds the token for a system with `totalWavelengths` data wavelengths
  /// of which `reserved` (the per-cluster minimums) are not tradeable.
  /// Bit i of the token corresponds to flat wavelength index `reserved + i`
  /// — reserved wavelengths occupy the lowest flat indices by convention.
  Token(std::uint32_t totalWavelengths, std::uint32_t reserved);

  /// N_TW of eq. (1).
  std::uint32_t sizeBits() const { return static_cast<std::uint32_t>(allocated_.size()); }
  std::uint32_t reserved() const { return reserved_; }
  std::uint32_t totalWavelengths() const { return total_; }

  bool isAllocated(std::uint32_t tokenBit) const { return allocated_[tokenBit]; }
  void markAllocated(std::uint32_t tokenBit);
  void markFree(std::uint32_t tokenBit);

  /// Marks every tradeable wavelength free again (network reset).
  void clear() { allocated_.assign(allocated_.size(), false); }

  std::uint32_t freeCount() const;

  /// Flat wavelength index (across all data waveguides) for a token bit.
  std::uint32_t flatIndexFor(std::uint32_t tokenBit) const { return reserved_ + tokenBit; }
  /// Inverse mapping; precondition: flatIndex >= reserved().
  std::uint32_t tokenBitFor(std::uint32_t flatIndex) const;

 private:
  std::uint32_t total_;
  std::uint32_t reserved_;
  std::vector<bool> allocated_;
};

/// Computes eq. (2) in whole clock cycles (minimum 1): the token occupies the
/// control waveguide's full DWDM width, so a hop takes
/// ceil(N_TW / (lambda_W * bitsPerLambdaPerCycle)) cycles.
Cycle tokenHopCycles(std::uint32_t tokenBits, std::uint32_t lambdasPerWaveguide,
                     const sim::Clock& clock);

/// A participant in the token ring (one per photonic router).
class TokenClient {
 public:
  virtual ~TokenClient() = default;
  /// Called when the token arrives; the client acquires/releases
  /// wavelengths by setting/clearing token bits and recording what it owns.
  virtual void onToken(Token& token, Cycle now) = 0;
};

/// Circulates the token between the photonic routers with the eq.-(2) hop
/// latency.  Deterministic round robin: router 0, 1, ..., NPR-1, 0, ...
class TokenRing final : public sim::Clocked {
 public:
  TokenRing(Token token, Cycle hopLatency);

  void addClient(TokenClient& client) { clients_.push_back(&client); }

  void evaluate(Cycle cycle) override;
  void advance(Cycle cycle) override;
  std::string name() const override { return "token-ring"; }
  obs::ComponentKind profileKind() const override {
    return obs::ComponentKind::kPolicy;
  }

  const Token& token() const { return token_; }
  Token& token() { return token_; }
  Cycle hopLatency() const { return hopLatency_; }
  std::size_t holder() const { return holder_; }
  std::uint64_t rotations() const { return rotations_; }

  /// Observer fired right after a client's onToken() with the visited client
  /// index.  The DBA policy uses it to wake routers parked on a grant change
  /// in the SAME cycle the grants changed — the ring registers before every
  /// router, so the woken router's advance still runs this cycle, exactly
  /// where a polling engine would have rescanned.  Survives reset().
  void setVisitHook(std::function<void(std::size_t)> hook) {
    visitHook_ = std::move(hook);
  }

  /// Fresh token (all tradeable wavelengths free), holder back at router 0,
  /// rotation counter zeroed (network reset).  Clients stay registered.
  void reset() {
    token_.clear();
    holder_ = 0;
    nextArrival_ = 0;
    rotations_ = 0;
  }

 private:
  Token token_;
  Cycle hopLatency_;
  std::vector<TokenClient*> clients_;
  std::function<void(std::size_t)> visitHook_;
  std::size_t holder_ = 0;
  Cycle nextArrival_ = 0;
  std::uint64_t rotations_ = 0;
};

}  // namespace pnoc::core
