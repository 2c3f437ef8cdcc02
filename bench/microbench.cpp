// Self-timed microbenchmarks of the simulator's hot paths: full-system cycle
// rate (with the activity-gated engine on and off), electrical DBA token
// handling and RNG draws.  These guard the simulator's own performance (a
// cycle-accurate model is only useful if sweeps stay cheap), complementing
// the figure-reproduction binaries.
//
// Dependency-free on purpose (no google-benchmark): the same binary runs in
// CI smoke mode and emits the machine-readable BENCH_microbench.json record
// that tracks the perf trajectory PR over PR.
//
// Usage: microbench [minMs=<per-bench ms>] [json=<dir>] [load=...] [set=...]
// (scenario keys shape the full-system benchmark's network; help=1 lists
// everything).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dba.hpp"
#include "core/token.hpp"
#include "network/network.hpp"
#include "obs/profiler.hpp"
#include "scenario/cli.hpp"
#include "scenario/json_record.hpp"
#include "scenario/scenario_runner.hpp"
#include "sim/rng.hpp"

using namespace pnoc;

namespace {

struct Measurement {
  std::uint64_t calls = 0;
  double wallSeconds = 0.0;
};

/// Repeats `body` until at least `minSeconds` of wall time accumulate
/// (always at least once).
Measurement timeLoop(const std::function<void()>& body, double minSeconds) {
  using Clock = std::chrono::steady_clock;
  Measurement m;
  const auto start = Clock::now();
  do {
    body();
    ++m.calls;
    m.wallSeconds = std::chrono::duration<double>(Clock::now() - start).count();
  } while (m.wallSeconds < minSeconds);
  return m;
}

/// This process's peak resident set so far, in MB (ru_maxrss is KiB on Linux).
double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  scenario::ScenarioSpec base;
  base.params.offeredLoad = 0.001;
  base.params.warmupCycles = 0;
  base.params.measureCycles = 0;
  scenario::Cli cli("microbench", "hot-path microbenchmarks (cycle rate, DBA, RNG)");
  cli.addKey("minMs", "minimum wall time per benchmark in ms (default 300)");
  cli.addKey("json", "directory for BENCH_microbench.json (default .)");
  switch (cli.parse(argc, argv, &base)) {
    case scenario::CliStatus::kHelp: return 0;
    case scenario::CliStatus::kError: return 1;
    case scenario::CliStatus::kWorker: return cli.workerExitCode();
    case scenario::CliStatus::kRun: break;
  }
  double minSeconds = 0.0;
  try {
    minSeconds = cli.config().getU64("minMs", 300) / 1000.0;
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "microbench: %s\n", error.what());
    return 1;
  }
  const std::string jsonDir = cli.config().getString("json", ".");

  scenario::JsonRecorder recorder("microbench");
  scenario::JsonRecorder closedRecorder("microbench_closed");
  scenario::JsonRecorder satRecorder("microbench_sat");
  std::printf("%-28s %-10s %-8s %14s %12s\n", "bench", "label", "gating", "per_sec",
              "wall_ms");

  // --- full-system cycle rate, gated vs ungated ---
  const Cycle kStep = 100;
  std::vector<std::pair<std::string, double>> gatingSpeedups;  // pattern -> on/off ratio
  for (const std::string pattern : {"uniform", "skewed3"}) {
    double rates[2] = {0.0, 0.0};
    for (const bool gating : {false, true}) {
      scenario::ScenarioSpec spec = base;
      spec.params.pattern = pattern;
      spec.params.activityGating = gating;
      network::PhotonicNetwork net(spec.params);
      const Measurement m = timeLoop([&] { net.step(kStep); }, minSeconds);
      const double cycles = static_cast<double>(m.calls * kStep);
      const double cyclesPerSec = cycles / m.wallSeconds;
      rates[gating ? 1 : 0] = cyclesPerSec;
      const sim::EngineStats& stats = net.engine().stats();
      const double parkRate = stats.parkRate(net.engine().componentCount());
      std::printf("%-28s %-10s %-8s %14.0f %12.2f\n", "BM_FullSystemCycles",
                  pattern.c_str(), gating ? "on" : "off", cyclesPerSec,
                  m.wallSeconds * 1e3);
      recorder.add("BM_FullSystemCycles")
          .text("label", pattern)
          .text("gating", gating ? "on" : "off")
          .number("load", spec.params.offeredLoad)
          .number("cycles_per_sec", cyclesPerSec)
          .integer("cycles", static_cast<long long>(cycles))
          .number("wall_ms", m.wallSeconds * 1e3)
          .number("park_rate", parkRate)
          .integer("timers_fired", static_cast<long long>(stats.timersFired));
    }
    const double speedup = rates[0] > 0.0 ? rates[1] / rates[0] : 0.0;
    std::printf("%-28s %-10s %-8s %13.2fx\n", "BM_FullSystemCycles/speedup",
                pattern.c_str(), "on/off", speedup);
    recorder.add("BM_FullSystemCycles_gating_speedup")
        .text("label", pattern)
        .number("speedup", speedup);
    gatingSpeedups.emplace_back(pattern, speedup);
  }

  // --- low-load fixed work: the timer-driven regime CI gates on ---
  // A FIXED cycle count (not a timed loop) so the wall time is a genuine
  // perf signal: this is the load regime where cores sleep whole geometric
  // arrival gaps and blocked routers park on drain wakes, and the committed
  // scripts/bench_baseline.json entry fails CI if it regresses > 25%.
  {
    const Cycle kFixedCycles = 300000;
    scenario::ScenarioSpec spec = base;
    spec.params.pattern = "uniform";
    network::PhotonicNetwork net(spec.params);
    const Measurement m = timeLoop([&] { net.step(kFixedCycles); }, 0.0);  // once
    const double cyclesPerSec = static_cast<double>(kFixedCycles) / m.wallSeconds;
    const sim::EngineStats& stats = net.engine().stats();
    const double parkRate = stats.parkRate(net.engine().componentCount());
    std::printf("%-28s %-10s %-8s %14.0f %12.2f\n", "BM_LowLoadTimerWheel", "uniform",
                "on", cyclesPerSec, m.wallSeconds * 1e3);
    std::printf("%-28s %-10s %-8s %13.1f%% %12s\n", "BM_LowLoadTimerWheel/park",
                "uniform", "on", parkRate * 100.0, "-");
    recorder.add("BM_LowLoadTimerWheel")
        .text("label", "uniform")
        .number("load", spec.params.offeredLoad)
        .number("cycles_per_sec", cyclesPerSec)
        .integer("cycles", static_cast<long long>(kFixedCycles))
        .number("wall_ms", m.wallSeconds * 1e3)
        .number("park_rate", parkRate)
        .integer("timers_scheduled", static_cast<long long>(stats.timersScheduled))
        .integer("timers_fired", static_cast<long long>(stats.timersFired));
    // The binary's trended+gated timing record is this fixed-work section
    // (the timed loops above always run for ~minMs by construction).
    scenario::recordTiming(recorder, m.wallSeconds,
                           static_cast<std::size_t>(kFixedCycles));
  }

  // --- phase profile: where the engine's wall time goes ---
  // The same fixed work as BM_LowLoadTimerWheel but with the cycle profiler
  // attached (profile=1): the record carries per-phase and per-component-kind
  // attribution, which scripts/bench_step_summary.py publishes per PR.
  // Simulation results are bit-identical with the profiler on (asserted by
  // tests/obs/profiler_test.cpp) — only the wall time differs, and comparing
  // this record's cycles_per_sec against BM_LowLoadTimerWheel bounds the
  // profiler's own overhead.
  {
    const Cycle kProfiledCycles = 300000;
    scenario::ScenarioSpec spec = base;
    spec.params.pattern = "uniform";
    spec.params.profile = true;
    network::PhotonicNetwork net(spec.params);
    const Measurement m = timeLoop([&] { net.step(kProfiledCycles); }, 0.0);  // once
    const double cyclesPerSec = static_cast<double>(kProfiledCycles) / m.wallSeconds;
    const obs::CycleProfiler::Snapshot profile = net.profiler()->snapshot();
    const double totalNs = static_cast<double>(profile.totalNs());
    std::printf("%-28s %-10s %-8s %14.0f %12.2f\n", "BM_PhaseProfile", "uniform",
                "on", cyclesPerSec, m.wallSeconds * 1e3);
    scenario::JsonRecord& record = recorder.add("BM_PhaseProfile");
    record.text("label", "uniform")
        .number("load", spec.params.offeredLoad)
        .number("cycles_per_sec", cyclesPerSec)
        .integer("cycles", static_cast<long long>(kProfiledCycles))
        .number("wall_ms", m.wallSeconds * 1e3);
    for (std::size_t p = 0; p < obs::CycleProfiler::kPhaseCount; ++p) {
      const auto phase = static_cast<obs::CycleProfiler::Phase>(p);
      const std::string name = obs::CycleProfiler::phaseName(phase);
      record.integer("phase_" + name + "_ns",
                     static_cast<long long>(profile.phaseNs[p]));
      record.number("phase_" + name + "_share",
                    totalNs > 0.0 ? profile.phaseNs[p] / totalNs : 0.0);
      std::printf("%-28s %-10s %-8s %13.1f%% %12s\n",
                  ("BM_PhaseProfile/" + name).c_str(), "uniform", "on",
                  totalNs > 0.0 ? profile.phaseNs[p] / totalNs * 100.0 : 0.0,
                  "-");
    }
    for (std::size_t k = 0; k < obs::kComponentKindCount; ++k) {
      if (profile.kindSteps[k] == 0) continue;
      const std::string name = obs::toString(static_cast<obs::ComponentKind>(k));
      record.integer("kind_" + name + "_ns",
                     static_cast<long long>(profile.kindNs[k]));
      record.integer("kind_" + name + "_steps",
                     static_cast<long long>(profile.kindSteps[k]));
    }
  }

  // --- closed-loop fixed work: the workload subsystem's gated record ---
  // Same fixed-work rationale as BM_LowLoadTimerWheel, but with the
  // closed-loop request-reply workload driving injection: window credits,
  // per-flow state, reply generation and the request-latency histogram are
  // all on the hot path.  Emitted as its own BENCH_microbench_closed.json
  // document so the committed baseline gates the workload subsystem's
  // overhead independently of the open-loop record above.
  {
    const Cycle kClosedCycles = 200000;
    scenario::ScenarioSpec spec = base;
    spec.params.pattern = "skewed3";
    spec.params.workload = "closed:window=4,think=20";
    network::PhotonicNetwork net(spec.params);
    const Measurement m = timeLoop([&] { net.step(kClosedCycles); }, 0.0);  // once
    const double cyclesPerSec = static_cast<double>(kClosedCycles) / m.wallSeconds;
    std::uint64_t requestsCompleted = 0;
    for (CoreId core = 0; core < spec.params.numCores; ++core) {
      requestsCompleted += net.core(core).stats().requestsCompleted;
    }
    const sim::EngineStats& stats = net.engine().stats();
    const double parkRate = stats.parkRate(net.engine().componentCount());
    std::printf("%-28s %-10s %-8s %14.0f %12.2f\n", "BM_ClosedLoopCycles", "skewed3",
                "on", cyclesPerSec, m.wallSeconds * 1e3);
    closedRecorder.add("BM_ClosedLoopCycles")
        .text("label", "skewed3")
        .text("workload", spec.params.workload)
        .number("cycles_per_sec", cyclesPerSec)
        .integer("cycles", static_cast<long long>(kClosedCycles))
        .number("wall_ms", m.wallSeconds * 1e3)
        .number("park_rate", parkRate)
        .integer("requests_completed", static_cast<long long>(requestsCompleted))
        .number("achieved_req_per_kcycle",
                static_cast<double>(requestsCompleted) * 1000.0 / kClosedCycles);
    scenario::recordTiming(closedRecorder, m.wallSeconds,
                           static_cast<std::size_t>(kClosedCycles));
  }

  // --- saturation fixed work: the blocked-regime gated record ---
  // The complement of BM_LowLoadTimerWheel: a hotspot pattern at a load deep
  // into saturation, where the bank mask scans (transmit candidate selection,
  // per-core ejection rotation) and the reservation-retry machinery carry
  // the whole cycle.  Emitted as its own BENCH_microbench_sat.json document
  // so the committed baseline gates the saturated hot path independently of
  // the low-load timer-driven record.
  {
    const Cycle kSatCycles = 100000;
    scenario::ScenarioSpec spec = base;
    spec.params.pattern = "skewed-hotspot2";
    spec.params.offeredLoad = 0.02;
    network::PhotonicNetwork net(spec.params);
    const Measurement m = timeLoop([&] { net.step(kSatCycles); }, 0.0);  // once
    const double cyclesPerSec = static_cast<double>(kSatCycles) / m.wallSeconds;
    std::uint64_t reservationFailures = 0;
    for (ClusterId cluster = 0; cluster < spec.params.numClusters(); ++cluster) {
      reservationFailures +=
          net.photonicRouter(cluster).stats().reservationFailures;
    }
    const sim::EngineStats& stats = net.engine().stats();
    const double parkRate = stats.parkRate(net.engine().componentCount());
    std::printf("%-28s %-10s %-8s %14.0f %12.2f\n", "BM_SaturationCycles",
                "hotspot2", "on", cyclesPerSec, m.wallSeconds * 1e3);
    satRecorder.add("BM_SaturationCycles")
        .text("label", "skewed-hotspot2")
        .number("load", spec.params.offeredLoad)
        .number("cycles_per_sec", cyclesPerSec)
        .integer("cycles", static_cast<long long>(kSatCycles))
        .number("wall_ms", m.wallSeconds * 1e3)
        .number("park_rate", parkRate)
        .integer("reservation_failures",
                 static_cast<long long>(reservationFailures));
    scenario::recordTiming(satRecorder, m.wallSeconds,
                           static_cast<std::size_t>(kSatCycles));
  }

  // --- network reset vs rebuild: the saturation search's inner loop ---
  {
    scenario::ScenarioSpec spec = base;
    spec.params.pattern = "uniform";
    const Measurement rebuild = timeLoop(
        [&] {
          network::PhotonicNetwork net(spec.params);
          net.step(1);
        },
        minSeconds);
    network::PhotonicNetwork reused(spec.params);
    const Measurement reset = timeLoop(
        [&] {
          reused.reset();
          reused.step(1);
        },
        minSeconds);
    const double rebuildPerSec = static_cast<double>(rebuild.calls) / rebuild.wallSeconds;
    const double resetPerSec = static_cast<double>(reset.calls) / reset.wallSeconds;
    // Recorded, not gated: the process high-water mark after the rebuild
    // loop, which network storage (VC buffers above all) dominates.
    const double rssMb = peakRssMb();
    std::printf("%-28s %-10s %-8s %14.0f %12.2f\n", "BM_NetworkRebuild", "-", "-",
                rebuildPerSec, rebuild.wallSeconds * 1e3);
    std::printf("%-28s %-10s %-8s %12.1fMB %12s\n", "BM_NetworkRebuild/peak_rss", "-",
                "-", rssMb, "-");
    std::printf("%-28s %-10s %-8s %14.0f %12.2f\n", "BM_NetworkReset", "-", "-",
                resetPerSec, reset.wallSeconds * 1e3);
    recorder.add("BM_NetworkRebuild")
        .number("items_per_sec", rebuildPerSec)
        .number("wall_ms", rebuild.wallSeconds * 1e3)
        .number("peak_rss_mb", rssMb);
    recorder.add("BM_NetworkReset")
        .number("items_per_sec", resetPerSec)
        .number("wall_ms", reset.wallSeconds * 1e3)
        .number("speedup_vs_rebuild",
                rebuildPerSec > 0.0 ? resetPerSec / rebuildPerSec : 0.0);
  }

  // --- DBA token handling ---
  {
    core::Token token(512, 16);
    core::DbaConfig dbaConfig;
    dbaConfig.maxChannelWavelengths = 64;
    std::vector<std::unique_ptr<core::RouterTables>> tables;
    std::vector<std::unique_ptr<core::DbaController>> controllers;
    for (ClusterId c = 0; c < 16; ++c) {
      tables.push_back(std::make_unique<core::RouterTables>(c, 16, 4));
      controllers.push_back(
          std::make_unique<core::DbaController>(c, dbaConfig, *tables[c]));
      core::WavelengthTable demand(16);
      for (ClusterId d = 0; d < 16; ++d) {
        if (d != c) demand.set(d, 8 * (c % 4 + 1));
      }
      tables[c]->updateDemand(0, demand);
    }
    const Measurement m = timeLoop(
        [&] {
          for (auto& controller : controllers) controller->onToken(token, 0);
        },
        minSeconds);
    const double tokensPerSec = static_cast<double>(m.calls * 16) / m.wallSeconds;
    std::printf("%-28s %-10s %-8s %14.0f %12.2f\n", "BM_DbaTokenRotation", "-", "-",
                tokensPerSec, m.wallSeconds * 1e3);
    recorder.add("BM_DbaTokenRotation")
        .number("items_per_sec", tokensPerSec)
        .number("cycles_per_sec", tokensPerSec)  // one token visit per cycle
        .number("wall_ms", m.wallSeconds * 1e3);
  }

  // --- RNG draws ---
  {
    sim::Rng rng(1);
    std::uint64_t sink = 0;
    const std::uint64_t kBatch = 10000;
    const Measurement m = timeLoop(
        [&] {
          for (std::uint64_t i = 0; i < kBatch; ++i) sink += rng.nextBelow(63);
        },
        minSeconds);
    const double drawsPerSec = static_cast<double>(m.calls * kBatch) / m.wallSeconds;
    std::printf("%-28s %-10s %-8s %14.0f %12.2f\n", "BM_RngDraws", "-", "-", drawsPerSec,
                m.wallSeconds * 1e3);
    recorder.add("BM_RngDraws")
        .number("items_per_sec", drawsPerSec)
        .number("cycles_per_sec", drawsPerSec)  // one draw per injector cycle
        .number("wall_ms", m.wallSeconds * 1e3)
        .integer("checksum", static_cast<long long>(sink % 1000));
  }

  const std::string path = recorder.write(jsonDir);
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  const std::string closedPath = closedRecorder.write(jsonDir);
  if (!closedPath.empty()) std::printf("wrote %s\n", closedPath.c_str());
  const std::string satPath = satRecorder.write(jsonDir);
  if (!satPath.empty()) std::printf("wrote %s\n", satPath.c_str());
  for (const auto& [pattern, speedup] : gatingSpeedups) {
    std::printf("activity gating speedup (%s, load %.4g): %.2fx\n", pattern.c_str(),
                base.params.offeredLoad, speedup);
  }
  return 0;
}
