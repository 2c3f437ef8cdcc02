// Dynamic Bandwidth Allocation controller — the paper's core mechanism
// (Section 3.2).  One controller lives in each photonic router.
//
// On token arrival the controller:
//   1. computes its target: the largest request-table entry, capped by the
//      bandwidth set's per-channel maximum (Table 3-3);
//   2. acquires free wavelengths from the token (or relinquishes surplus)
//      until it owns `target` wavelengths, availability permitting;
//   3. rewrites its current table: usable wavelengths toward destination d =
//      min(request[d], owned), never below the reserved minimum;
//   4. records the identifiers of everything it owns (these go out in
//      reservation flits) and releases the token.
// The request table is deliberately NOT cleared after allocation, so a
// router short on wavelengths retries on the next rotation (Section 3.2.1).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tables.hpp"
#include "core/token.hpp"
#include "photonic/wavelength.hpp"
#include "sim/types.hpp"

namespace pnoc::core {

struct DbaConfig {
  /// Per-channel wavelength cap for the bandwidth set (8 / 32 / 64).
  std::uint32_t maxChannelWavelengths = 8;
  /// Reserved (non-tradeable) wavelengths per cluster; >= 1 so no cluster
  /// starves (Section 3.2.1).
  std::uint32_t reservedPerCluster = 1;
  /// Waveguide-restricted variant (thesis conclusion): when non-zero, router
  /// x may only acquire wavelengths from waveguides x mod NW .. x+k-1 mod NW
  /// (k = this value), cutting its modulator count k/NW-fold at the cost of
  /// allocation flexibility.  0 = unrestricted (the paper's main design).
  std::uint32_t writableWaveguides = 0;
};

struct DbaStats {
  std::uint64_t tokenVisits = 0;
  std::uint64_t acquisitions = 0;   // wavelengths acquired over the run
  std::uint64_t releases = 0;       // wavelengths relinquished
  std::uint64_t shortfallVisits = 0;  // visits that could not reach target
};

class DbaController final : public TokenClient {
 public:
  /// Owns this cluster's reserved wavelengths (flat indices
  /// [self * reservedPerCluster, (self+1) * reservedPerCluster)) from the
  /// start; they sit below every token bit, so the token never trades them.
  DbaController(ClusterId self, const DbaConfig& config, RouterTables& tables);

  // TokenClient
  void onToken(Token& token, Cycle now) override;

  /// Back to the freshly-constructed state: only the reserved wavelengths
  /// owned, zeroed statistics.  The caller clears the token too
  /// (DhetpnocPolicy::reset()).
  void reset();

  /// Wavelengths currently usable toward `dst` (the current-table entry).
  std::uint32_t lambdasFor(ClusterId dst) const;

  /// Identifiers of every wavelength this cluster owns (reserved first);
  /// the first lambdasFor(dst) of them are what a reservation flit to `dst`
  /// carries.
  const std::vector<photonic::WavelengthId>& ownedWavelengths() const { return owned_; }

  std::uint32_t ownedCount() const { return static_cast<std::uint32_t>(owned_.size()); }
  /// Length of the reserved prefix of ownedWavelengths().
  std::uint32_t reservedCount() const { return config_.reservedPerCluster; }
  const DbaStats& stats() const { return stats_; }
  ClusterId self() const { return self_; }

 private:
  void refreshCurrentTable();
  /// Whether this controller is allowed to acquire the given flat index under
  /// the waveguide restriction (always true when unrestricted).
  bool mayAcquire(std::uint32_t flatIndex, std::uint32_t numWaveguides) const;

  ClusterId self_;
  DbaConfig config_;
  RouterTables* tables_;
  std::vector<photonic::WavelengthId> owned_;  // reserved entries stay at the front
  DbaStats stats_;
};

/// The ownership invariant of eq. (1), computed from its only home — the
/// token bits and each controller's owned list.  `controllers` must be every
/// client of the token.  Returns the first violation as text naming the
/// wavelength, or an empty string when:
///   - each owned list starts with its cluster's reserved prefix;
///   - no flat index is owned twice;
///   - every dynamically owned wavelength has its token bit set;
///   - every set token bit has exactly one owner;
///   - owned + token.freeCount() == token.totalWavelengths().
std::string ownershipViolation(const Token& token,
                               const std::vector<std::unique_ptr<DbaController>>& controllers);

}  // namespace pnoc::core
