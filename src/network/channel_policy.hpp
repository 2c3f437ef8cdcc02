// Channel allocation policies: the single point where Firefly and d-HetPNoC
// differ.  The shared network assembly asks the policy how many wavelengths
// a source cluster may use toward a destination and how many identifiers a
// reservation flit may carry; the d-HetPNoC policy additionally owns the
// token ring and DBA controllers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dba.hpp"
#include "core/token.hpp"
#include "noc/topology.hpp"
#include "sim/engine.hpp"
#include "traffic/pattern.hpp"

namespace pnoc::network {

class ChannelPolicy {
 public:
  virtual ~ChannelPolicy() = default;

  virtual std::string name() const = 0;

  /// Wavelengths the source may use for a packet to `dst` right now.
  virtual std::uint32_t lambdasFor(ClusterId src, ClusterId dst) const = 0;

  /// Worst-case identifier count a reservation flit may carry (sizes the
  /// reservation serialization latency per Section 3.4.1.1).
  virtual std::uint32_t maxReservationIdentifiers() const = 0;

  /// Number of data waveguides the policy's wiring needs (for identifier
  /// encoding width and the area model).
  virtual std::uint32_t numDataWaveguides() const = 0;

  /// Registers any clocked machinery (e.g. the token ring) with the engine.
  virtual void attachTo(sim::Engine& engine) { (void)engine; }

  /// A router whose transmit scan is blocked (every candidate failed its
  /// reservation or holds zero granted wavelengths) asks the policy to wake
  /// it when `src`'s grants next change, so it can park instead of
  /// rescanning unchanged state every cycle.  Returns false when the policy
  /// cannot provide the notification — the router must then keep polling.
  /// Static policies return true without arming anything: their grants never
  /// change, so a blocked scan can only be unblocked by a destination VC
  /// freeing up (which the router tracks separately).  One-shot: consumed by
  /// the first grant change; re-arm after every blocked scan.
  virtual bool armGrantWake(ClusterId src, sim::Clocked& waiter) const {
    (void)src;
    (void)waiter;
    return true;
  }

  /// Restores the freshly-constructed allocation state and re-publishes the
  /// pattern's demand tables (network reset).  No-op for static policies.
  virtual void reset(const traffic::TrafficPattern& pattern) { (void)pattern; }
};

/// Firefly [20]: every cluster permanently owns totalWavelengths/numClusters
/// wavelengths of its dedicated write waveguide.
class FireflyPolicy final : public ChannelPolicy {
 public:
  FireflyPolicy(const noc::ClusterTopology& topology, const traffic::BandwidthSet& set);

  std::string name() const override { return "Firefly"; }
  std::uint32_t lambdasFor(ClusterId src, ClusterId dst) const override;
  std::uint32_t maxReservationIdentifiers() const override { return 0; }
  std::uint32_t numDataWaveguides() const override { return numClusters_; }

 private:
  std::uint32_t numClusters_;
  std::uint32_t lambdasPerChannel_;
};

/// d-HetPNoC: token-based dynamic allocation (Section 3.2).
class DhetpnocPolicy final : public ChannelPolicy {
 public:
  /// `tokenHopOverride` / `channelCapOverride` are ablation knobs; 0 keeps
  /// the eq.-(2) hop latency and the bandwidth set's per-channel cap.
  DhetpnocPolicy(const noc::ClusterTopology& topology, const traffic::BandwidthSet& set,
                 const traffic::TrafficPattern& pattern, const sim::Clock& clock,
                 std::uint32_t reservedPerCluster, Cycle tokenHopOverride = 0,
                 std::uint32_t channelCapOverride = 0,
                 std::uint32_t writableWaveguides = 0);

  std::string name() const override { return "d-HetPNoC"; }
  std::uint32_t lambdasFor(ClusterId src, ClusterId dst) const override;
  std::uint32_t maxReservationIdentifiers() const override;
  std::uint32_t numDataWaveguides() const override;
  void attachTo(sim::Engine& engine) override;
  bool armGrantWake(ClusterId src, sim::Clocked& waiter) const override;
  void reset(const traffic::TrafficPattern& pattern) override;

  // Introspection for tests, benches and the dba_reconfiguration example.
  const core::DbaController& controller(ClusterId cluster) const;
  const core::TokenRing& tokenRing() const { return *ring_; }

  /// core::ownershipViolation() over this policy's token and controllers:
  /// empty while wavelength ownership is consistent, else the first
  /// violation naming the wavelength.
  std::string ownershipViolation() const;

  /// Re-publishes demand tables from a (possibly different) traffic pattern —
  /// models a task-remapping event at runtime.
  void publishDemands(const traffic::TrafficPattern& pattern);

 private:
  const noc::ClusterTopology* topology_;
  traffic::BandwidthSet set_;
  core::DbaConfig dbaConfig_;
  std::vector<std::unique_ptr<core::RouterTables>> tables_;
  std::vector<std::unique_ptr<core::DbaController>> controllers_;
  std::unique_ptr<core::TokenRing> ring_;
  /// One-shot grant-change waiters, indexed by cluster (== ring client
  /// index); fired by the token ring's visit hook via requestWakeInCycle()
  /// so the woken router rescans in the same cycle its grants changed.
  /// Mutable: routers hold the policy by const reference, and arming a wake
  /// is observer registration, not an allocation-state change.
  mutable std::vector<sim::Clocked*> grantWaiters_;
};

/// Builds the policy matching `params.architecture`.
std::unique_ptr<ChannelPolicy> makePolicy(const struct SimulationParameters& params,
                                          const noc::ClusterTopology& topology,
                                          const traffic::TrafficPattern& pattern);

}  // namespace pnoc::network
