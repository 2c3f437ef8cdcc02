// CycleProfiler tests: the profiling observer must be observational only —
// bit-identical simulation results with the profiler on or off — while the
// engine's registry counters survive gating toggles and feed the profiler's
// published gauges.
#include <gtest/gtest.h>

#include <string>

#include "network/network.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "scenario/dispatch/checkpoint.hpp"
#include "scenario/execution_backend.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/engine.hpp"

namespace pnoc {
namespace {

scenario::ScenarioSpec quickSpec(const std::string& pattern,
                                 const std::string& arch = "firefly",
                                 double offeredLoad = 0.002) {
  scenario::ScenarioSpec spec;
  spec.set("pattern", pattern);
  spec.set("arch", arch);
  spec.params.offeredLoad = offeredLoad;
  spec.params.seed = 7;
  spec.params.warmupCycles = 200;
  spec.params.measureCycles = 800;
  return spec;
}

TEST(CycleProfiler, ProfiledRunsAreByteIdenticalToUnprofiled) {
  struct Input {
    const char* arch;
    const char* pattern;
    double offeredLoad;
    Cycle measureCycles;
  };
  // Light load on firefly, d-HetPNoC at saturation, and a longer d-HetPNoC
  // run in which parked photonic routers are woken mid-sweep, so the engine
  // splices same-cycle joiners into the advance phase.
  const Input inputs[] = {{"firefly", "uniform", 0.002, 800},
                          {"firefly", "skewed3", 0.002, 800},
                          {"dhetpnoc", "skewed-hotspot2", 0.02, 800},
                          {"dhetpnoc", "skewed-hotspot2", 0.005, 2800}};
  // The serialized record is the deterministic wire/BENCH form — if the
  // profiling observer perturbed anything (ordering, wakes, RNG), the bytes
  // would differ.  The one intentional difference is spec_key, which hashes
  // the whole spec including the profile flag; blank it out.
  const auto stripSpecKey = [](std::string record) {
    const std::string tag = "\"spec_key\":\"";
    const std::size_t at = record.find(tag);
    EXPECT_NE(at, std::string::npos);
    if (at != std::string::npos) record.erase(at + tag.size(), 16);
    return record;
  };
  for (const Input& input : inputs) {
    for (const bool gating : {true, false}) {
      scenario::ScenarioSpec plain =
          quickSpec(input.pattern, input.arch, input.offeredLoad);
      plain.params.measureCycles = input.measureCycles;
      plain.params.activityGating = gating;
      scenario::ScenarioSpec profiled = plain;
      profiled.params.profile = true;

      const scenario::ScenarioOutcome plainOutcome =
          scenario::executeJob({scenario::ScenarioJob::Op::kRun, plain});
      const scenario::ScenarioOutcome profiledOutcome =
          scenario::executeJob({scenario::ScenarioJob::Op::kRun, profiled});

      const std::string plainRecord = stripSpecKey(
          scenario::dispatch::serializedOutcomeRecord(plainOutcome, 0));
      const std::string profiledRecord = stripSpecKey(
          scenario::dispatch::serializedOutcomeRecord(profiledOutcome, 0));
      EXPECT_EQ(plainRecord, profiledRecord)
          << input.arch << " " << input.pattern << " load=" << input.offeredLoad
          << " gating=" << gating;
    }
  }
}

TEST(CycleProfiler, NetworkAttachesProfilerAndAttributesEveryStep) {
  for (const bool gating : {true, false}) {
    SCOPED_TRACE(gating ? "gated" : "poll mode");
    // dhetpnoc is the arch with a policy ring component.
    scenario::ScenarioSpec spec = quickSpec("uniform", "dhetpnoc");
    spec.params.profile = true;
    spec.params.activityGating = gating;
    network::PhotonicNetwork net(spec.params);
    ASSERT_NE(net.profiler(), nullptr);

    net.step(500);
    const obs::CycleProfiler::Snapshot snap = net.profiler()->snapshot();
    EXPECT_EQ(snap.cycles, 500u);

    // Every component step lands in exactly one kind bucket per phase; the
    // engine counts a component once per cycle while the profiler attributes
    // evaluate and advance separately, hence the factor of two.
    std::uint64_t kindSteps = 0;
    for (std::size_t k = 0; k < obs::kComponentKindCount; ++k) {
      kindSteps += snap.kindSteps[k];
    }
    EXPECT_EQ(kindSteps, 2 * net.engine().stats().componentSteps);
    EXPECT_GT(snap.kindSteps[static_cast<std::size_t>(
                  obs::ComponentKind::kCore)],
              0u);
    EXPECT_GT(snap.kindSteps[static_cast<std::size_t>(
                  obs::ComponentKind::kPolicy)],
              0u);

    // Publishing bridges the profiler's cells into a registry as gauges.
    obs::Registry registry;
    net.profiler()->publishTo(registry);
    EXPECT_EQ(registry.gauge("profile_cycles").value(), 500);
    const obs::Snapshot published = registry.snapshot();
    EXPECT_EQ(published.gauges.count("profile_evaluate_ns"), 1u);
    EXPECT_EQ(published.gauges.count("profile_kind_core_steps"), 1u);
  }
}

TEST(CycleProfiler, UnprofiledNetworkHasNoProfilerAttached) {
  scenario::ScenarioSpec spec = quickSpec("uniform");
  network::PhotonicNetwork net(spec.params);
  EXPECT_EQ(net.profiler(), nullptr);
  EXPECT_EQ(net.engine().profiler(), nullptr);
}

TEST(EngineMetrics, NetworkResetZeroesStats) {
  scenario::ScenarioSpec spec = quickSpec("uniform");
  network::PhotonicNetwork net(spec.params);
  sim::Engine& engine = net.engine();

  net.step(100);
  const sim::EngineStats before = engine.stats();
  EXPECT_EQ(before.cycles, 100u);
  EXPECT_GT(before.componentSteps, 0u);

  net.reset();
  const sim::EngineStats after = engine.stats();
  EXPECT_EQ(after.cycles, 0u);
  EXPECT_EQ(after.componentSteps, 0u);
  EXPECT_EQ(after.wakes, 0u);
  EXPECT_EQ(after.timersScheduled, 0u);
  EXPECT_EQ(after.timersFired, 0u);
}

}  // namespace
}  // namespace pnoc
