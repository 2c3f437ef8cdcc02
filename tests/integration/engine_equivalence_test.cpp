// The timer-driven engine's two load-bearing equivalence claims:
//
//  1. Geometric arrival pre-scheduling is LAW-IDENTICAL to per-cycle
//     Bernoulli injection — in fact bit-identical, because each gap is drawn
//     by replaying the same per-cycle trials against the same per-core RNG
//     stream.  An external replay of those trials must predict every offer
//     cycle exactly, and the measured gaps must match the geometric law.
//
//  2. The whole engine is BIT-IDENTICAL to the pre-wheel engine: the golden
//     record strings below were captured from the per-cycle Bernoulli
//     engine before the timer wheel landed (same specs, byte for byte,
//     including full saturation searches).  They pin the simulation's
//     numerics — any model drift, RNG reordering or metrics change shows up
//     as a string mismatch here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "network/network.hpp"
#include "scenario/json_record.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/rng.hpp"

namespace pnoc::network {
namespace {

SimulationParameters lowLoadParams(double load, std::uint64_t seed) {
  SimulationParameters params;
  params.pattern = "uniform";
  params.architecture = Architecture::kDhetpnoc;
  params.offeredLoad = load;
  params.seed = seed;
  params.warmupCycles = 200;
  params.measureCycles = 2000;
  return params;
}

/// Offer cycles per core, observed by stepping the network one cycle at a
/// time and watching each core's offered-packet counter.
std::vector<std::vector<Cycle>> observeOffers(PhotonicNetwork& net, Cycle cycles) {
  const std::uint32_t numCores = net.params().numCores;
  std::vector<std::vector<Cycle>> offers(numCores);
  std::vector<std::uint64_t> seen(numCores, 0);
  for (Cycle cycle = 0; cycle < cycles; ++cycle) {
    net.step(1);
    for (CoreId core = 0; core < numCores; ++core) {
      const std::uint64_t count = net.core(core).stats().packetsOffered;
      EXPECT_LE(count, seen[core] + 1) << "two offers in one cycle";
      if (count != seen[core]) {
        offers[core].push_back(cycle);
        seen[core] = count;
      }
    }
  }
  return offers;
}

TEST(GeometricArrivals, BernoulliReplayPredictsEveryOfferCycle) {
  const double load = 0.002;  // uniform weights: per-core probability == load
  const Cycle kCycles = 3000;
  auto params = lowLoadParams(load, 11);
  PhotonicNetwork net(params);
  const auto offers = observeOffers(net, kCycles);

  // No refusals allowed in the window: a refused offer skips the destination
  // draw, which the external replay below cannot see.
  for (CoreId core = 0; core < params.numCores; ++core) {
    ASSERT_EQ(net.core(core).stats().packetsRefused, 0u) << "core " << core;
  }

  // Replay: the network seeds one splitter stream and splits once per core
  // in core order; per-cycle Bernoulli trials plus a destination draw per
  // success must then reproduce the offer cycles exactly.
  sim::Rng seeder(params.seed);
  std::uint64_t totalOffers = 0;
  for (CoreId core = 0; core < params.numCores; ++core) {
    sim::Rng rng = seeder.split();
    std::vector<Cycle> predicted;
    for (Cycle cycle = 0; cycle < kCycles; ++cycle) {
      if (!rng.nextBool(load)) continue;
      predicted.push_back(cycle);
      net.pattern().sampleDestination(core, rng);
    }
    // The engine pre-draws beyond the horizon, so it may know about offers
    // the replay has not reached; compare only the observed window.
    if (predicted.size() > offers[core].size()) {
      predicted.resize(offers[core].size());
    }
    EXPECT_EQ(offers[core], predicted) << "core " << core;
    totalOffers += offers[core].size();
  }
  EXPECT_GT(totalOffers, 200u);  // the window exercised real traffic
}

TEST(GeometricArrivals, InterArrivalGapsMatchGeometricLaw) {
  // At probability p the gap between consecutive offers is geometric:
  // mean 1/p, variance (1-p)/p^2.  Pool the gaps of all 64 cores.
  for (const double p : {0.05, 0.01}) {
    auto params = lowLoadParams(p, 23);
    PhotonicNetwork net(params);
    const Cycle kCycles = p >= 0.05 ? 4000 : 12000;
    const auto offers = observeOffers(net, kCycles);
    std::vector<double> gaps;
    for (const auto& cycles : offers) {
      for (std::size_t i = 1; i < cycles.size(); ++i) {
        gaps.push_back(static_cast<double>(cycles[i] - cycles[i - 1]));
      }
    }
    ASSERT_GT(gaps.size(), 2000u) << "p " << p;
    double sum = 0.0;
    for (const double gap : gaps) sum += gap;
    const double mean = sum / static_cast<double>(gaps.size());
    double varSum = 0.0;
    for (const double gap : gaps) varSum += (gap - mean) * (gap - mean);
    const double variance = varSum / static_cast<double>(gaps.size() - 1);

    const double expectedMean = 1.0 / p;
    const double expectedVariance = (1.0 - p) / (p * p);
    EXPECT_NEAR(mean, expectedMean, 0.05 * expectedMean) << "p " << p;
    EXPECT_NEAR(variance, expectedVariance, 0.15 * expectedVariance) << "p " << p;
  }
}

// --- pre-wheel golden records -----------------------------------------------
//
// Captured from the per-cycle Bernoulli engine at the commit before the
// timer wheel (fixed specs below, default gating).  recordRun/recordPeak
// serialize with shortest-round-trip doubles, so string equality IS
// bit-identity of every metric in the record.

struct GoldenRun {
  const char* arch;
  const char* pattern;
  double load;
  std::uint64_t seed;
  const char* record;
};

std::string runRecordFor(const GoldenRun& golden) {
  scenario::ScenarioSpec spec;
  spec.set("arch", golden.arch);
  spec.set("pattern", golden.pattern);
  spec.params.offeredLoad = golden.load;
  spec.params.seed = golden.seed;
  spec.params.warmupCycles = 200;
  spec.params.measureCycles = 2000;
  const metrics::RunMetrics metrics = scenario::runScenario(spec);
  scenario::JsonRecorder scratch("scratch");
  return scenario::recordRun(scratch, spec, metrics).serialize();
}

TEST(PreWheelGoldens, FixedLoadRunRecordsAreByteIdentical) {
  const GoldenRun goldens[] = {
      {"dhetpnoc", "uniform", 0.001, 7,
       R"({"name":"run","arch":"dhetpnoc","pattern":"uniform","bandwidth_set":1,"seed":7,"load":0.001,"gbps":294.39999999999998,"acceptance":1,"avg_latency_cycles":195.56521739130434,"energy_per_packet_pj":4924.5522119565212})"},
      {"firefly", "uniform", 0.0005, 7,
       R"({"name":"run","arch":"firefly","pattern":"uniform","bandwidth_set":1,"seed":7,"load":0.00050000000000000001,"gbps":158.72,"acceptance":1.0163934426229508,"avg_latency_cycles":159.85483870967741,"energy_per_packet_pj":5398.6834526209641})"},
      {"dhetpnoc", "skewed3", 0.004, 7,
       R"({"name":"run","arch":"dhetpnoc","pattern":"skewed3","bandwidth_set":1,"seed":7,"load":0.0040000000000000001,"gbps":522.2399999999999,"acceptance":0.39921722113502933,"avg_latency_cycles":660.62745098039215,"energy_per_packet_pj":6407.4191636029445})"},
      {"dhetpnoc", "skewed-hotspot2", 0.001, 3,
       R"({"name":"run","arch":"dhetpnoc","pattern":"skewed-hotspot2","bandwidth_set":1,"seed":3,"load":0.001,"gbps":261.11999999999995,"acceptance":0.9107142857142857,"avg_latency_cycles":284.50980392156862,"energy_per_packet_pj":5404.3049540441352})"},
  };
  for (const GoldenRun& golden : goldens) {
    EXPECT_EQ(runRecordFor(golden), golden.record)
        << golden.arch << "/" << golden.pattern;
  }
}

TEST(PreWheelGoldens, SaturationSweepPeakRecordsAreByteIdentical) {
  // Full saturation searches (ramp + bisection over one reset-reused
  // network): the committed BENCH-record expectations from the pre-wheel
  // engine must reproduce byte for byte.
  struct GoldenPeak {
    const char* arch;
    const char* pattern;
    std::uint64_t seed;
    const char* record;
  };
  const GoldenPeak goldens[] = {
      {"dhetpnoc", "uniform", 7,
       R"({"name":"peak","arch":"dhetpnoc","pattern":"uniform","bandwidth_set":1,"seed":7,"offered_load":0.00037500000000000001,"gbps":119.46666666666665,"energy_per_packet_pj":5930.9408705357137,"points_evaluated":6})"},
      {"firefly", "skewed3", 7,
       R"({"name":"peak","arch":"firefly","pattern":"skewed3","bandwidth_set":1,"seed":7,"offered_load":0.00022499999999999999,"gbps":76.799999999999983,"energy_per_packet_pj":7136.2172916666641,"points_evaluated":5})"},
  };
  for (const GoldenPeak& golden : goldens) {
    scenario::ScenarioSpec spec;
    spec.set("arch", golden.arch);
    spec.set("pattern", golden.pattern);
    spec.params.seed = golden.seed;
    spec.params.warmupCycles = 100;
    spec.params.measureCycles = 600;
    const metrics::PeakSearchResult result = scenario::findScenarioPeak(spec);
    scenario::JsonRecorder scratch("scratch");
    const std::string record =
        scenario::recordPeak(scratch, scenario::ScenarioPeak{spec, result}).serialize();
    EXPECT_EQ(record, golden.record) << golden.arch << "/" << golden.pattern;
  }
}

TEST(SaturationGoldens, HighLoadRunRecordsAreByteIdenticalToPrePartitionEngine) {
  // Captured from the engine before the SoA hot-state split and photonic
  // reservation parking landed, at loads deep into saturation — the regime
  // where the compact-scan transmit/ejection paths and the parking replay
  // actually run.  String equality pins every metric byte.
  const GoldenRun goldens[] = {
      {"dhetpnoc", "uniform", 0.01, 7,
       R"({"name":"run","arch":"dhetpnoc","pattern":"uniform","bandwidth_set":1,"seed":7,"load":0.01,"gbps":911.3599999999999,"acceptance":0.29741019214703424,"avg_latency_cycles":735.38764044943821,"energy_per_packet_pj":8492.4758953651763})"},
      {"dhetpnoc", "skewed3", 0.02, 7,
       R"({"name":"run","arch":"dhetpnoc","pattern":"skewed3","bandwidth_set":1,"seed":7,"load":0.02,"gbps":724.4799999999999,"acceptance":0.10707529322739312,"avg_latency_cycles":829.41342756183747,"energy_per_packet_pj":7174.4117237190885})"},
      {"firefly", "uniform", 0.01, 7,
       R"({"name":"run","arch":"firefly","pattern":"uniform","bandwidth_set":1,"seed":7,"load":0.01,"gbps":916.4799999999999,"acceptance":0.29908103592314117,"avg_latency_cycles":724.96648044692733,"energy_per_packet_pj":8447.0345338687239})"},
      {"dhetpnoc", "skewed-hotspot2", 0.02, 3,
       R"({"name":"run","arch":"dhetpnoc","pattern":"skewed-hotspot2","bandwidth_set":1,"seed":3,"load":0.02,"gbps":701.43999999999983,"acceptance":0.10686427457098284,"avg_latency_cycles":835.37956204379566,"energy_per_packet_pj":7294.3761792883288})"},
  };
  for (const GoldenRun& golden : goldens) {
    EXPECT_EQ(runRecordFor(golden), golden.record)
        << golden.arch << "/" << golden.pattern << "@" << golden.load;
  }
}

TEST(SaturationGoldens, PeakRecordsAreByteIdenticalToPrePartitionEngine) {
  struct GoldenPeak {
    const char* arch;
    const char* pattern;
    std::uint64_t seed;
    const char* record;
  };
  const GoldenPeak goldens[] = {
      {"dhetpnoc", "skewed3", 7,
       R"({"name":"peak","arch":"dhetpnoc","pattern":"skewed3","bandwidth_set":1,"seed":7,"offered_load":0.00020000000000000001,"gbps":68.266666666666652,"energy_per_packet_pj":7177.7525000000005,"points_evaluated":5})"},
      {"firefly", "uniform", 7,
       R"({"name":"peak","arch":"firefly","pattern":"uniform","bandwidth_set":1,"seed":7,"offered_load":0.00037500000000000001,"gbps":119.46666666666665,"energy_per_packet_pj":5920.6208705357149,"points_evaluated":6})"},
  };
  for (const GoldenPeak& golden : goldens) {
    scenario::ScenarioSpec spec;
    spec.set("arch", golden.arch);
    spec.set("pattern", golden.pattern);
    spec.params.seed = golden.seed;
    spec.params.warmupCycles = 100;
    spec.params.measureCycles = 600;
    const metrics::PeakSearchResult result = scenario::findScenarioPeak(spec);
    scenario::JsonRecorder scratch("scratch");
    const std::string record =
        scenario::recordPeak(scratch, scenario::ScenarioPeak{spec, result}).serialize();
    EXPECT_EQ(record, golden.record) << golden.arch << "/" << golden.pattern;
  }
}

TEST(TimerParking, CoresParkBetweenArrivalsAtNonzeroLoad) {
  // The tentpole claim: at low-but-nonzero offered load the injection side
  // sleeps between pre-scheduled arrivals instead of flipping a per-cycle
  // coin, so the park rate is high and timers demonstrably fire.
  auto params = lowLoadParams(0.001, 3);
  PhotonicNetwork net(params);
  net.step(5000);
  const sim::EngineStats& stats = net.engine().stats();
  EXPECT_GT(stats.timersScheduled, 0u);
  EXPECT_GT(stats.timersFired, 0u);
  EXPECT_GT(stats.parkRate(net.engine().componentCount()), 0.85)
      << "expected cores, routers and links parked most cycles at load 0.001";
  // Fewer than the 64 cores alone are awake on an average cycle.
  EXPECT_LT(static_cast<double>(stats.componentSteps) / static_cast<double>(stats.cycles),
            64.0);
}

TEST(TimerParking, RedundantLoadRetargetKeepsCoresParked) {
  // setOfferedLoad() with an unchanged value must be a no-op: saturation
  // sweeps re-announce the same point and must not wake 64 parked cores
  // (and a real change must).
  auto params = lowLoadParams(0.0001, 3);
  PhotonicNetwork net(params);
  net.step(600);
  // Components stepped in one cycle == the active count during it (cores
  // that wake, redraw and re-park within a cycle still get stepped once).
  const auto stepsInNextCycle = [&net] {
    const std::uint64_t before = net.engine().stats().componentSteps;
    net.step(1);
    return net.engine().stats().componentSteps - before;
  };
  const std::uint64_t parkedBaseline = stepsInNextCycle();
  ASSERT_LT(parkedBaseline, 20u);  // nearly everything asleep at 1e-4

  net.setOfferedLoad(params.offeredLoad);  // identical: no wake
  EXPECT_LT(stepsInNextCycle(), 20u);

  net.setOfferedLoad(params.offeredLoad * 2);  // real change: all cores wake
  EXPECT_GE(stepsInNextCycle(), 64u);
}

}  // namespace
}  // namespace pnoc::network
