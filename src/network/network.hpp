// Full-system assembly and the library's top-level simulation API.
//
// The PhotonicNetwork wires up, per Figure 3-1:
//   * 64 cores in 16 clusters of 4 (Table 3-3),
//   * per-core 5-port electrical routers with all-to-all copper links inside
//     each cluster (Section 3.1) plus an uplink/downlink pair to the
//     cluster's photonic router,
//   * 16 photonic routers joined by the SWMR photonic crossbar, with the
//     channel-allocation policy (Firefly static / d-HetPNoC token DBA)
//     injected as a strategy object,
//   * each core on port 0 of its router: it injects into the router's input
//     port 0 and is the FlitSink on its output port 0, where it terminates
//     its packets and keeps every delivery counter.
// Links feed router input ports (noc::FlitSink) directly; there is no
// adapter or sink object between routers, links and cores.  Construction
// ends by validating the wiring: an unwired router output, ejection slot or
// peer list throws std::logic_error naming it.  run() steps the network
// through warmup + measurement windows and returns RunMetrics with the
// paper's quantities (delivered bandwidth, packet energy decomposition,
// congestion counters).
//
// Typical use — describe the run declaratively through the Scenario API
// (src/scenario), which binds every SimulationParameters field to a
// key=value / JSON name and runs batches on a worker fleet:
//
//   scenario::ScenarioSpec spec;
//   spec.set("arch", "dhetpnoc");
//   spec.set("pattern", "skewed3");      // or "hotspot:frac=0.3,hot=5", ...
//   spec.set("load", "0.004");
//   metrics::RunMetrics m = scenario::runScenario(spec);
//
// or drive the network directly:
//
//   SimulationParameters params;
//   params.architecture = Architecture::kDhetpnoc;
//   params.pattern = "skewed3";
//   params.offeredLoad = 0.004;
//   PhotonicNetwork net(params);
//   metrics::RunMetrics m = net.run();
//   net.setOfferedLoad(0.006);   // retarget the injectors ...
//   net.reset();                 // ... restore the built network to cycle 0
//   metrics::RunMetrics n = net.run();  // bit-identical to a fresh network
//
// A network is ~465 wired components; reset() rewinds them in place so load
// sweeps (the saturation search) skip the rebuild entirely.
#pragma once

#include <memory>
#include <vector>

#include "metrics/metrics.hpp"
#include "network/channel_policy.hpp"
#include "network/core_node.hpp"
#include "network/params.hpp"
#include "network/photonic_router.hpp"
#include "noc/link.hpp"
#include "noc/packet_slab.hpp"
#include "noc/router.hpp"
#include "noc/topology.hpp"
#include "sim/engine.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace pnoc::network {

class PhotonicNetwork {
 public:
  explicit PhotonicNetwork(const SimulationParameters& params);

  /// Runs a warmup window then a measurement window from the network's
  /// CURRENT state and returns the measurement window's metrics.  May be
  /// called repeatedly: each call appends another warmup+measure episode to
  /// the ongoing simulation (metrics are window-differenced, so earlier
  /// episodes never leak into later ones).  Call reset() first when the next
  /// run must be statistically fresh.
  metrics::RunMetrics run();

  /// Restores the freshly-constructed state in place: cycle 0, empty
  /// buffers/links/queues, initial DBA allocation, re-seeded RNG streams,
  /// zeroed counters.  A reset()+run() is bit-identical to constructing a
  /// new network with the same parameters and running it (asserted by
  /// tests/integration/determinism_test.cpp) while skipping the rebuild of
  /// every component — the saturation search leans on this.
  void reset();

  /// Re-targets every injector at a new offered load (packets/core/cycle,
  /// weighted by the pattern as at construction).  Effective immediately;
  /// combine with reset() for a clean measurement at the new load.
  void setOfferedLoad(double load);

  /// Steps the engine manually (examples/tests); freely mixable with run(),
  /// which simply continues from the current state.
  void step(Cycle cycles);

  const SimulationParameters& params() const { return params_; }
  const noc::ClusterTopology& topology() const { return topology_; }
  const traffic::TrafficPattern& pattern() const { return *pattern_; }
  ChannelPolicy& policy() { return *policy_; }
  const PhotonicRouter& photonicRouter(ClusterId cluster) const {
    return *photonicRouters_[cluster];
  }
  const CoreNode& core(CoreId id) const { return *cores_[id]; }
  sim::Engine& engine() { return engine_; }

  /// The cycle profiler attached to the engine when params.profile is set;
  /// nullptr otherwise.
  const obs::CycleProfiler* profiler() const { return profiler_.get(); }

  /// The workload model driving the cores (nullptr: open loop).
  const workload::Workload* workload() const { return workload_.get(); }

  /// The packet trace recorded so far (empty unless params.traceOut is set,
  /// which enables recording; run() writes it to that path as well).
  const workload::TraceData& recordedTrace() const { return recorder_.trace(); }

  /// Total flits currently buffered anywhere in the system.
  std::uint64_t occupancy() const;

  /// Flits injected by / ejected at all cores since construction
  /// (conservation invariant: injected == ejected + occupancy()).
  std::uint64_t totalFlitsInjected() const;
  std::uint64_t totalFlitsEjected() const;

 private:
  struct Totals {
    std::uint64_t packetsDelivered = 0;
    Bits bitsDelivered = 0;
    std::uint64_t latencySum = 0;
    metrics::LatencyHistogram latency;
    std::uint64_t packetsOffered = 0;
    std::uint64_t packetsRefused = 0;
    std::uint64_t packetsGenerated = 0;
    std::uint64_t headRetries = 0;
    std::uint64_t requestsIssued = 0;
    std::uint64_t repliesGenerated = 0;
    std::uint64_t requestsCompleted = 0;
    std::uint64_t requestLatencySum = 0;
    metrics::LatencyHistogram requestLatency;
    std::uint64_t reservationsIssued = 0;
    std::uint64_t reservationFailures = 0;
    double electricalRouterPj = 0.0;
    double linkPj = 0.0;
    photonic::EnergyLedger transferLedger;
    Bits photonicBufferBitsWritten = 0;
    std::uint64_t photonicBufferBitCycles = 0;
  };

  void build();
  Totals collectTotals() const;
  metrics::RunMetrics diffToMetrics(const Totals& before, const Totals& after,
                                    Cycle cycles) const;

  SimulationParameters params_;
  noc::ClusterTopology topology_;
  std::unique_ptr<traffic::TrafficPattern> pattern_;
  std::unique_ptr<ChannelPolicy> policy_;
  sim::Engine engine_;
  /// Owned per-phase/per-kind profiler (params.profile); outlives every
  /// engine step because it lives next to engine_.
  std::unique_ptr<obs::CycleProfiler> profiler_;
  /// Owns every live packet descriptor; flits carry handles into it.
  noc::PacketSlab slab_;
  PacketId nextPacketId_ = 0;
  /// Workload model (nullptr: the default open-loop injectors).
  std::unique_ptr<workload::Workload> workload_;
  /// Records every enqueued packet when params.traceOut is set.
  workload::TraceRecorder recorder_;
  /// Sum of the pattern's source weights, cached so setOfferedLoad() can
  /// renormalize without another pattern sweep.
  double totalSourceWeight_ = 0.0;

  std::vector<std::unique_ptr<noc::ElectricalRouter>> coreRouters_;
  std::vector<std::unique_ptr<PhotonicRouter>> photonicRouters_;
  std::vector<std::unique_ptr<noc::Link>> links_;
  std::vector<std::unique_ptr<CoreNode>> cores_;
};

}  // namespace pnoc::network
