// Skewed traffic (Tables 3-1/3-2): four application bandwidth classes are
// mapped round-robin onto the clusters (cluster i runs a class (i mod 4)
// application), and the *frequency of communication* is skewed toward the
// high-bandwidth applications:
//
//             100Gbps-class  50  25  12.5      (set-1 naming; other sets scale)
//   skewed1        50%       25%  12.5% 12.5%
//   skewed2        75%       12.5% 6.25% 6.25%
//   skewed3        90%       5%   2.5%  2.5%
//
// A cluster's wavelength demand to every other cluster is its application
// class's demand, so per bandwidth set 1 the sixteen clusters demand
// 4x(8+4+2+1) = 60 of the 64 data wavelengths — satisfiable by the DBA, while
// Firefly's rigid 4-per-cluster split starves the class-3 sources that carry
// most of the traffic.  That mismatch is the mechanism behind Figures 3-3 and
// 3-4.
#pragma once

#include <array>

#include "traffic/pattern.hpp"

namespace pnoc::traffic {

/// Traffic fraction per class (descending bandwidth in the paper's table;
/// stored here ascending to match class indices 0..3).
std::array<double, kNumBandwidthClasses> skewedFractions(std::uint32_t level);

class SkewedPattern final : public TrafficPattern {
 public:
  /// `level` is 1, 2 or 3 (Table 3-2 rows). Throws std::invalid_argument
  /// otherwise.
  SkewedPattern(std::uint32_t level, const noc::ClusterTopology& topology,
                const BandwidthSet& set);

  std::string name() const override { return "skewed" + std::to_string(level_); }
  double sourceWeight(CoreId src) const override;
  CoreId sampleDestination(CoreId src, sim::Rng& rng) const override;
  std::uint32_t bandwidthClass(ClusterId src, ClusterId dst) const override;
  std::uint32_t wavelengthDemand(ClusterId src, ClusterId dst) const override;

  std::uint32_t level() const { return level_; }

 private:
  std::uint32_t level_;
  const noc::ClusterTopology* topology_;
  BandwidthSet set_;
  std::array<double, kNumBandwidthClasses> fractions_;
};

}  // namespace pnoc::traffic
