// Photonic reservation parking vs poll-mode: the activity-gated engine may
// park blocked photonic routers (failed reservations, wormhole bubbles,
// stalled down links) and replay their per-cycle counters on wake.  These
// tests pin the tentpole equivalence claim at system level: every metric the
// simulator reports — the full RunMetrics wire serialization, the per-router
// reservation/busy counters and the BENCH record bytes — must be identical
// with gating on and off, in exactly the regimes where parking engages.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "network/network.hpp"
#include "scenario/json_record.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/wire.hpp"

namespace pnoc::network {
namespace {

SimulationParameters baseParams(const char* pattern, double load,
                                std::uint64_t seed) {
  SimulationParameters params;
  params.pattern = pattern;
  params.architecture = Architecture::kDhetpnoc;
  params.offeredLoad = load;
  params.seed = seed;
  params.warmupCycles = 200;
  params.measureCycles = 1500;
  return params;
}

struct Outcome {
  std::string metricsJson;   // full RunMetrics wire serialization
  std::string routerCounts;  // per-cluster photonic reservation/busy counters
  std::uint64_t reservationFailures = 0;
  std::uint64_t componentSteps = 0;
};

Outcome runWith(SimulationParameters params, bool gating) {
  params.activityGating = gating;
  PhotonicNetwork net(params);
  const metrics::RunMetrics metrics = net.run();
  Outcome out;
  out.metricsJson = scenario::wire::toJson(metrics);
  out.reservationFailures = metrics.reservationFailures;
  out.componentSteps = net.engine().stats().componentSteps;
  std::ostringstream counts;
  for (ClusterId cluster = 0; cluster < params.numClusters(); ++cluster) {
    const PhotonicRouterStats& stats = net.photonicRouter(cluster).stats();
    counts << cluster << ":" << stats.reservationsIssued << "/"
           << stats.reservationFailures << "/" << stats.packetsTransmitted
           << "/" << stats.bitsTransmitted << "/" << stats.transmitBusyCycles
           << "/" << stats.reservationCyclesSpent << "\n";
  }
  out.routerCounts = counts.str();
  return out;
}

void expectEquivalent(const Outcome& gated, const Outcome& polled) {
  EXPECT_EQ(gated.metricsJson, polled.metricsJson);
  EXPECT_EQ(gated.routerCounts, polled.routerCounts);
  EXPECT_LT(gated.componentSteps, polled.componentSteps)
      << "gating never parked anything — the regime did not engage";
}

TEST(ParkingEquivalence, HotCoreStormMatchesPollMode) {
  // Natural storm: half of all traffic targets one core, so its cluster's
  // receive VCs stay exhausted for most of the run and sources retry (and,
  // gated, park-and-replay) in bulk.
  const auto params = baseParams("hotspot:frac=0.5,hot=4", 0.004, 7);
  const Outcome gated = runWith(params, true);
  const Outcome polled = runWith(params, false);
  ASSERT_GT(gated.reservationFailures, 100u) << "storm never happened";
  expectEquivalent(gated, polled);
}

TEST(ParkingEquivalence, SaturatedHotspotMatchesPollMode) {
  // Natural reservation failures: two hot destination clusters at a load far
  // beyond their receive-VC turnover (skewed3 spreads wide enough that the
  // DBA keeps up; the two-cluster hotspot reliably exhausts VCs).  The
  // second input is the widest legal geometry, 64 clusters on Firefly with
  // bandwidth set 3: refused sources then set reservation-waiter bits up to
  // 63, the top of the 64-bit mask.
  auto wide = baseParams("skewed-hotspot2", 0.02, 7);
  wide.architecture = Architecture::kFirefly;
  wide.bandwidthSet = traffic::BandwidthSet::set3();
  wide.numCores = 256;
  ASSERT_EQ(wide.numClusters(), 64u);
  for (const SimulationParameters& params :
       {baseParams("skewed-hotspot2", 0.02, 7), wide}) {
    SCOPED_TRACE(params.numClusters());
    const Outcome gated = runWith(params, true);
    const Outcome polled = runWith(params, false);
    ASSERT_GT(gated.reservationFailures, 0u) << "hotspot never saturated";
    expectEquivalent(gated, polled);
  }
}

TEST(ParkingEquivalence, LowLoadBubblesMatchPollMode) {
  // Low load: long idle stretches plus wormhole bubbles when the electrical
  // feed trails the photonic drain rate mid-packet.
  const Outcome gated = runWith(baseParams("uniform", 0.001, 3), true);
  const Outcome polled = runWith(baseParams("uniform", 0.001, 3), false);
  expectEquivalent(gated, polled);
}

TEST(ParkingEquivalence, BenchRecordBytesMatchPollMode) {
  // The CI perf gate diffs BENCH record strings; gating must not perturb a
  // single byte of them, here on a moderate-load skewed3 run.
  auto recordFor = [](const char* gating) {
    scenario::ScenarioSpec spec;
    spec.set("arch", "dhetpnoc");
    spec.set("pattern", "skewed3");
    spec.set("load", "0.004");
    spec.set("gating", gating);
    spec.params.seed = 7;
    spec.params.warmupCycles = 200;
    spec.params.measureCycles = 1500;
    const metrics::RunMetrics metrics = scenario::runScenario(spec);
    scenario::JsonRecorder scratch("scratch");
    return scenario::recordRun(scratch, spec, metrics).serialize();
  };
  EXPECT_EQ(recordFor("true"), recordFor("false"));
}

}  // namespace
}  // namespace pnoc::network
