// Top-level simulation parameters (Table 3-3 defaults).
#pragma once

#include <cstdint>
#include <string>

#include "noc/router.hpp"
#include "photonic/energy_model.hpp"
#include "sim/clock.hpp"
#include "sim/types.hpp"
#include "traffic/bandwidth_set.hpp"

namespace pnoc::network {

enum class Architecture {
  kFirefly,    // baseline: static, uniform wavelength split [20]
  kDhetpnoc,   // the paper's contribution: token-based DBA
};

std::string toString(Architecture arch);

struct SimulationParameters {
  // --- system size (Table 3-3) ---
  std::uint32_t numCores = 64;
  std::uint32_t clusterSize = 4;

  // --- architecture under test ---
  Architecture architecture = Architecture::kDhetpnoc;
  traffic::BandwidthSet bandwidthSet = traffic::BandwidthSet::set1();
  /// Reserved (minimum) wavelengths per cluster write channel, >= 1.
  std::uint32_t reservedPerCluster = 1;
  /// Ablation knob: overrides the token-ring hop latency of eq. (2) when
  /// non-zero (swept by bench/grids/paper_runs.json).
  Cycle tokenHopCyclesOverride = 0;
  /// Ablation knob: overrides the bandwidth set's per-channel wavelength cap
  /// when non-zero (swept by bench/grids/paper_runs.json).
  std::uint32_t maxChannelWavelengthsOverride = 0;
  /// Conclusion's waveguide-restricted variant: router x may only modulate
  /// on this many waveguides starting at waveguide (x mod NW).  0 = the
  /// paper's unrestricted design (swept by bench/grids/paper_runs.json).
  std::uint32_t writableWaveguides = 0;

  // --- clocking & run length (Table 3-3: 10000 cycles with 1000 reset) ---
  sim::Clock clock{};
  Cycle warmupCycles = 1000;
  Cycle measureCycles = 10000;

  // --- simulator engine ---
  /// Skip quiescent components each cycle (bit-identical results, large
  /// speedup at low load; off = classic step-everything engine).  Exposed so
  /// the microbench and the equivalence test can compare both modes.
  bool activityGating = true;
  /// Attach an obs::CycleProfiler to the engine: per-phase / per-kind wall
  /// time attribution (bit-identical results; modest slowdown from the
  /// clock reads).  Read back via PhotonicNetwork::profiler().
  bool profile = false;

  // --- traffic ---
  std::string pattern = "uniform";
  /// Workload model spec ("family:key=value,..."; src/workload/registry).
  /// "open" keeps the classic open-loop injectors; "closed"/"chain" switch
  /// the cores to self-pacing request--reply loops (offeredLoad is then
  /// ignored); "trace:file=..." replays a recorded packet trace.
  std::string workload = "open";
  /// When non-empty, record every enqueued packet and write the NDJSON trace
  /// to this path at the end of run() (replayable via workload=trace:file=).
  std::string traceOut;
  /// Offered load in packets per core per cycle (before per-core weighting).
  double offeredLoad = 0.02;
  std::uint64_t seed = 1;
  /// Injection queue capacity in packets; overflowing offers are refused and
  /// counted (open-loop source with finite queue).
  std::uint32_t injectionQueuePackets = 8;

  // --- electrical substrate ---
  noc::RouterConfig coreRouter{};  // 5 ports: local, 3 peers, photonic uplink
  double linkEnergyPerBitPj = 0.1;
  std::uint32_t intraClusterLinkLatency = 1;

  // --- photonic substrate ---
  photonic::EnergyParams energy{};
  /// Cycles of flight from source modulator to destination detector.
  Cycle photonicPropagationCycles = 1;

  std::uint32_t numClusters() const { return numCores / clusterSize; }

  /// Throws std::invalid_argument when inconsistent (e.g. core count not a
  /// multiple of the cluster size, zero wavelengths, ...).
  void validate() const;
};

}  // namespace pnoc::network
