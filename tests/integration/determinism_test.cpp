// Determinism and activity-gating equivalence over the full system.
//
// Two guarantees the perf work must never erode:
//  1. Same seed + same parameters => bit-identical RunMetrics across runs
//     (the simulator owns its RNG; no platform or scheduling dependence).
//  2. The activity-gated engine is an optimization, not a model change:
//     gated and ungated runs produce identical metrics for any seed.
#include <gtest/gtest.h>

#include <tuple>

#include "network/network.hpp"
#include "support/param_name.hpp"

namespace pnoc::network {
namespace {

SimulationParameters baseParams(const char* pattern, Architecture arch, double load,
                                std::uint64_t seed, bool gating) {
  SimulationParameters params;
  params.pattern = pattern;
  params.architecture = arch;
  params.offeredLoad = load;
  params.seed = seed;
  params.warmupCycles = 200;
  params.measureCycles = 2000;
  params.activityGating = gating;
  return params;
}

struct RunOutcome {
  metrics::RunMetrics metrics;
  std::uint64_t flitsInjected = 0;
  std::uint64_t flitsEjected = 0;
  std::uint64_t occupancy = 0;
};

RunOutcome runOnce(const SimulationParameters& params) {
  PhotonicNetwork net(params);
  RunOutcome outcome;
  outcome.metrics = net.run();
  outcome.flitsInjected = net.totalFlitsInjected();
  outcome.flitsEjected = net.totalFlitsEjected();
  outcome.occupancy = net.occupancy();
  return outcome;
}

/// Every counter and every energy term must match exactly — "bit-identical",
/// not "statistically close".
void expectIdentical(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.metrics.packetsDelivered, b.metrics.packetsDelivered);
  EXPECT_EQ(a.metrics.bitsDelivered, b.metrics.bitsDelivered);
  EXPECT_EQ(a.metrics.latencyCyclesSum, b.metrics.latencyCyclesSum);
  EXPECT_EQ(a.metrics.packetsOffered, b.metrics.packetsOffered);
  EXPECT_EQ(a.metrics.packetsRefused, b.metrics.packetsRefused);
  EXPECT_EQ(a.metrics.packetsGenerated, b.metrics.packetsGenerated);
  EXPECT_EQ(a.metrics.headRetries, b.metrics.headRetries);
  EXPECT_EQ(a.metrics.reservationsIssued, b.metrics.reservationsIssued);
  EXPECT_EQ(a.metrics.reservationFailures, b.metrics.reservationFailures);
  EXPECT_EQ(a.metrics.latencyP50(), b.metrics.latencyP50());
  EXPECT_EQ(a.metrics.latencyP99(), b.metrics.latencyP99());
  EXPECT_EQ(a.metrics.ledger.total(), b.metrics.ledger.total());
  EXPECT_EQ(a.metrics.energyPerPacketPj(), b.metrics.energyPerPacketPj());
  EXPECT_EQ(a.flitsInjected, b.flitsInjected);
  EXPECT_EQ(a.flitsEjected, b.flitsEjected);
  EXPECT_EQ(a.occupancy, b.occupancy);
}

using DeterminismParam = std::tuple<const char*, Architecture, double>;

class Determinism : public ::testing::TestWithParam<DeterminismParam> {};

TEST_P(Determinism, SameSeedSameMetricsAcrossRuns) {
  const auto& [pattern, arch, load] = GetParam();
  const auto params = baseParams(pattern, arch, load, 7, true);
  const RunOutcome first = runOnce(params);
  const RunOutcome second = runOnce(params);
  ASSERT_GT(first.metrics.packetsDelivered, 0u);  // the run does real work
  expectIdentical(first, second);
}

TEST_P(Determinism, GatedAndUngatedEnginesAreEquivalent) {
  const auto& [pattern, arch, load] = GetParam();
  for (const std::uint64_t seed : {1ull, 42ull}) {
    const RunOutcome gated = runOnce(baseParams(pattern, arch, load, seed, true));
    const RunOutcome ungated = runOnce(baseParams(pattern, arch, load, seed, false));
    ASSERT_GT(gated.metrics.packetsDelivered, 0u);
    expectIdentical(gated, ungated);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Determinism,
    ::testing::Values(
        // Low load is where gating actually parks components — 0.001 is the
        // timer-driven regime, where cores sleep whole geometric gaps and
        // blocked routers park on drain wakes; saturated skewed traffic
        // exercises wormhole stalls, reservation retries and DBA churn with
        // most components active.
        DeterminismParam{"uniform", Architecture::kDhetpnoc, 0.001},
        DeterminismParam{"uniform", Architecture::kDhetpnoc, 0.0005},
        DeterminismParam{"uniform", Architecture::kFirefly, 0.0005},
        DeterminismParam{"skewed3", Architecture::kDhetpnoc, 0.004},
        DeterminismParam{"skewed3", Architecture::kFirefly, 0.004},
        DeterminismParam{"real-apps", Architecture::kDhetpnoc, 0.002}),
    testsupport::TupleName());

TEST_P(Determinism, ResetReuseIsBitIdenticalToFreshNetwork) {
  // The scenario layer's saturation search reuses ONE built network across
  // load probes via reset(); that is only sound if reset()+run() replays a
  // fresh construction exactly.
  const auto& [pattern, arch, load] = GetParam();
  const auto params = baseParams(pattern, arch, load, 7, true);
  const RunOutcome fresh = runOnce(params);
  ASSERT_GT(fresh.metrics.packetsDelivered, 0u);

  PhotonicNetwork reused(params);
  reused.run();                 // dirty the network thoroughly
  reused.reset();
  ASSERT_EQ(reused.occupancy(), 0u)
      << "reset() must drain every buffer before the replay run";
  RunOutcome replay;
  replay.metrics = reused.run();
  replay.flitsInjected = reused.totalFlitsInjected();
  replay.flitsEjected = reused.totalFlitsEjected();
  replay.occupancy = reused.occupancy();
  expectIdentical(fresh, replay);
}

TEST(NetworkReset, LoadSweepOverOneNetworkMatchesFreshBuilds) {
  // The exact reuse pattern of scenario::findScenarioPeak: retarget the
  // load, rewind, run — every point must equal a from-scratch network.
  auto params = baseParams("skewed3", Architecture::kDhetpnoc, 0.0005, 11, true);
  PhotonicNetwork reused(params);
  for (const double load : {0.0005, 0.002, 0.004, 0.001}) {
    reused.setOfferedLoad(load);
    reused.reset();
    ASSERT_EQ(reused.occupancy(), 0u) << "stale flits after reset at load " << load;
    RunOutcome sweep;
    sweep.metrics = reused.run();
    sweep.flitsInjected = reused.totalFlitsInjected();
    sweep.flitsEjected = reused.totalFlitsEjected();
    sweep.occupancy = reused.occupancy();

    auto freshParams = params;
    freshParams.offeredLoad = load;
    const RunOutcome fresh = runOnce(freshParams);
    ASSERT_GT(fresh.metrics.packetsDelivered, 0u) << "load " << load;
    expectIdentical(fresh, sweep);
  }
}

TEST(ActivityGating, ParksComponentsAtLowLoad) {
  // The point of the tentpole: at near-zero load most of the machine sleeps.
  SimulationParameters params = baseParams("uniform", Architecture::kDhetpnoc,
                                           0.0001, 3, true);
  PhotonicNetwork net(params);
  net.step(500);
  EXPECT_LT(net.engine().activeCount(), net.engine().componentCount() / 2)
      << "expected most links/routers parked at load 0.0001";
}

TEST(ActivityGating, ZeroWeightCoresParkUnderHotspot) {
  // skewed-hotspot patterns give several cores zero source weight; those
  // cores (and their idle cluster hardware) must end up parked.
  SimulationParameters params = baseParams("skewed-hotspot2", Architecture::kDhetpnoc,
                                           0.001, 3, true);
  PhotonicNetwork net(params);
  net.step(500);
  EXPECT_LT(net.engine().activeCount(), net.engine().componentCount());
}

}  // namespace
}  // namespace pnoc::network
