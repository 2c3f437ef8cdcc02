#include "core/dba.hpp"

#include <algorithm>
#include <cassert>

#include "photonic/area_model.hpp"

namespace pnoc::core {

namespace {
constexpr std::uint32_t kLambdasPerWaveguide = photonic::kMaxWavelengthsPerWaveguide;
}  // namespace

DbaController::DbaController(ClusterId self, const DbaConfig& config, RouterTables& tables)
    : self_(self), config_(config), tables_(&tables) {
  assert(config.reservedPerCluster >= 1);
  reset();
}

void DbaController::reset() {
  owned_.clear();
  stats_ = DbaStats{};
  for (std::uint32_t i = 0; i < config_.reservedPerCluster; ++i) {
    const std::uint32_t flat = self_ * config_.reservedPerCluster + i;
    owned_.push_back(photonic::unflatten(flat, kLambdasPerWaveguide));
  }
  refreshCurrentTable();
}

std::uint32_t DbaController::lambdasFor(ClusterId dst) const {
  return tables_->current().get(dst);
}

bool DbaController::mayAcquire(std::uint32_t flatIndex, std::uint32_t numWaveguides) const {
  if (config_.writableWaveguides == 0) return true;
  const std::uint32_t waveguide = flatIndex / kLambdasPerWaveguide;
  // Allowed window: waveguides self..self+k-1 (mod NW), the conclusion's
  // "restrict PRx to Waveguide(x) and Waveguide(x+1)" generalized.
  const std::uint32_t first = self_ % numWaveguides;
  const std::uint32_t offset = (waveguide + numWaveguides - first) % numWaveguides;
  return offset < config_.writableWaveguides;
}

void DbaController::onToken(Token& token, Cycle) {
  ++stats_.tokenVisits;
  const std::uint32_t target = std::clamp<std::uint32_t>(
      tables_->request().maxEntry(), config_.reservedPerCluster,
      config_.maxChannelWavelengths);

  // Release surplus (never the reserved prefix).
  while (ownedCount() > target) {
    const photonic::WavelengthId id = owned_.back();
    owned_.pop_back();
    token.markFree(token.tokenBitFor(photonic::flatten(id, kLambdasPerWaveguide)));
    ++stats_.releases;
  }

  // Acquire toward the target from whatever the token says is free and the
  // waveguide restriction (if any) permits.
  const std::uint32_t numWaveguides =
      photonic::dataWaveguidesNeeded(token.totalWavelengths(), kLambdasPerWaveguide);
  std::uint32_t scan = 0;
  while (ownedCount() < target && scan < token.sizeBits()) {
    const std::uint32_t flat = token.flatIndexFor(scan);
    if (!token.isAllocated(scan) && mayAcquire(flat, numWaveguides)) {
      token.markAllocated(scan);
      owned_.push_back(photonic::unflatten(flat, kLambdasPerWaveguide));
      ++stats_.acquisitions;
    }
    ++scan;
  }
  if (ownedCount() < target) ++stats_.shortfallVisits;

  refreshCurrentTable();
}

void DbaController::refreshCurrentTable() {
  WavelengthTable& current = tables_->mutableCurrent();
  for (ClusterId dst = 0; dst < tables_->numClusters(); ++dst) {
    if (dst == self_) {
      current.set(dst, 0);
      continue;
    }
    // Usable lambdas toward dst: what the flow wants, bounded by what we
    // own, but never below the starvation-proof minimum.
    const std::uint32_t want = tables_->request().get(dst);
    const std::uint32_t usable =
        std::clamp<std::uint32_t>(std::min(want, ownedCount()),
                                  config_.reservedPerCluster, ownedCount());
    current.set(dst, usable);
  }
}

std::string ownershipViolation(const Token& token,
                               const std::vector<std::unique_ptr<DbaController>>& controllers) {
  const std::uint32_t total = token.totalWavelengths();
  std::vector<ClusterId> owner(total, kInvalidId);
  std::uint32_t owned = 0;
  for (const auto& controller : controllers) {
    const ClusterId self = controller->self();
    const std::uint32_t reserved = controller->reservedCount();
    const auto& list = controller->ownedWavelengths();
    const std::string who = "cluster " + std::to_string(self);
    if (list.size() < reserved) {
      return who + " owns " + std::to_string(list.size()) + " wavelength(s), fewer than its " +
             std::to_string(reserved) + " reserved";
    }
    for (std::uint32_t i = 0; i < list.size(); ++i) {
      const photonic::WavelengthId& id = list[i];
      const std::uint32_t flat = photonic::flatten(id, kLambdasPerWaveguide);
      const auto owns = [&] { return who + " owns " + photonic::toString(id); };
      if (i < reserved) {
        const std::uint32_t expected = self * reserved + i;
        if (flat != expected) {
          return owns() + " where its reserved " +
                 photonic::toString(photonic::unflatten(expected, kLambdasPerWaveguide)) +
                 " belongs";
        }
        if (flat >= token.reserved()) return owns() + " as reserved, but the token trades it";
      } else if (flat < token.reserved() || flat >= total) {
        return owns() + " outside the token's tradeable range";
      } else if (!token.isAllocated(token.tokenBitFor(flat))) {
        return owns() + " but its token bit is free";
      }
      if (owner[flat] != kInvalidId) {
        return photonic::toString(id) + " is owned by cluster " + std::to_string(owner[flat]) +
               " and " + who;
      }
      owner[flat] = self;
      ++owned;
    }
  }
  for (std::uint32_t bit = 0; bit < token.sizeBits(); ++bit) {
    const std::uint32_t flat = token.flatIndexFor(bit);
    if (token.isAllocated(bit) && owner[flat] == kInvalidId) {
      return "token bit for " +
             photonic::toString(photonic::unflatten(flat, kLambdasPerWaveguide)) +
             " is allocated but no cluster owns it";
    }
  }
  if (owned + token.freeCount() != total) {
    return std::to_string(owned) + " owned + " + std::to_string(token.freeCount()) +
           " free != " + std::to_string(total) + " total";
  }
  return {};
}

}  // namespace pnoc::core
