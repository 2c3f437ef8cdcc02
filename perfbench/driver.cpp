// perfbench driver: the measuring half of the pnoc benchmark.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--pins <pins.json>] [--work-dir <dir>]
//
// Workloads (perfbench/README.md says why each exists):
//   lowload_uniform     one dhetpnoc network per sub-seed stream, uniform,
//                       load 0.001, repeated reset()+run() episodes
//   hotspot_saturation  the same episode shape at skewed-hotspot2, load 0.02
//   served_grid         a real pnoc_serve daemon (2 local workers) fed short
//                       mixed grids by a 2-connection closed-loop client
//
// The driver reaches the program only through its public entry points
// (PhotonicNetwork, Engine::stats, CycleProfiler, ScenarioSpec::fromJson,
// wire, executeJob, ServeClient plus the daemon's trace= file and
// op=metrics) and times the calls into each layer from outside.  Every
// operation (an in-process episode, a served job) is checked; each failed
// check is named on a `check` line and counted.  The last stdout line is the
// result object {"correct","attempted","failed","metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "metrics/histogram.hpp"
#include "network/network.hpp"
#include "obs/profiler.hpp"
#include "scenario/dispatch/checkpoint.hpp"
#include "scenario/execution_backend.hpp"
#include "scenario/json_util.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/wire.hpp"
#include "service/client.hpp"

#ifndef PERFBENCH_SERVE_BIN
#error "PERFBENCH_SERVE_BIN must name the pnoc_serve binary"
#endif

using namespace pnoc;

namespace {

using Clock = std::chrono::steady_clock;
using scenario::JsonValue;
namespace fs = std::filesystem;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of the calling thread.  The in-process workloads are single
/// threaded and time themselves with it: on a shared host, wall time also
/// counts the slices the scheduler gives to other tenants.
double cpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------- statistics

/// Linear interpolation between closest ranks (numpy's default).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Simulation seed of stream `k` under workload seed `seed`.
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t k) {
  return splitmix(seed * 1000003ULL + k) % 1000000007ULL + 1;
}

std::string digestOf(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// ------------------------------------------------------------ result ledger

/// Every per-layer metric, in report order; --trace 1 prints all of them on
/// every workload (0 where the workload does not exercise the layer).
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"sim.component_steps", "count"},
      {"sim.wakes", "count"},
      {"sim.timers_scheduled", "count"},
      {"sim.timers_fired", "count"},
      {"sim.park_rate", "ratio"},
      {"sim.ns_per_component_step", "ns"},
      {"sim.poll_component_steps", "count"},
      {"sim.gated_poll_step_ratio", "ratio"},
      {"sim.phase.timer_expire_ns", "ns"},
      {"sim.phase.wake_drain_ns", "ns"},
      {"sim.phase.evaluate_ns", "ns"},
      {"sim.phase.advance_ns", "ns"},
      {"sim.phase.park_scan_ns", "ns"},
      {"network.build_ms", "ms"},
      {"network.reset_ms", "ms"},
      {"network.core.steps", "count"},
      {"network.core.ns", "ns"},
      {"network.photonic_router.steps", "count"},
      {"network.photonic_router.ns", "ns"},
      {"network.reservations_issued", "count"},
      {"network.reservation_failures", "count"},
      {"network.reservation_success_ratio", "ratio"},
      {"noc.electrical_router.steps", "count"},
      {"noc.electrical_router.ns", "ns"},
      {"noc.link.steps", "count"},
      {"noc.link.ns", "ns"},
      {"noc.flits_injected", "count"},
      {"noc.flits_ejected", "count"},
      {"noc.flits_in_flight", "count"},
      {"core.policy.steps", "count"},
      {"core.policy.ns", "ns"},
      {"workload.requests_completed", "count"},
      {"workload.request_latency_p99_cycles", "cycles"},
      {"scenario.spec_parse_us", "us"},
      {"scenario.wire_encode_us", "us"},
      {"scenario.wire_decode_us", "us"},
      {"dispatch.worker_handshake_ms", "ms"},
      {"service.journal_fsync_us_p50", "us"},
      {"service.submit_ack_ms_p50", "ms"},
      {"service.submit_ack_ms_p95", "ms"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.unit_execution_ms_p50", "ms"},
      {"service.checkpoint_flush_ms_p50", "ms"},
      {"service.dispatch_us_p50", "us"},
      {"service.worker_busy_ratio", "ratio"},
      {"service.retries", "count"},
      {"service.respawns", "count"},
      {"service.protocol_deaths", "count"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return kMetrics;
}

class Ledger {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    std::printf("metric %-36s %.6g %s\n", name.c_str(), value, unit.c_str());
    metrics_[name] = {value, unit};
  }

  /// One checked operation; `failedChecks` names every check it failed.
  void op(const std::vector<std::string>& failedChecks) {
    ++attempted_;
    if (failedChecks.empty()) return;
    ++failed_;
    for (const std::string& check : failedChecks) {
      if (failures_[check]++ == 0) {
        std::printf("check %s FAILED (first at operation %llu)\n", check.c_str(),
                    static_cast<unsigned long long>(attempted_));
      }
    }
  }

  /// Fills the per-layer metrics this workload does not exercise with 0.
  void completePerLayer() {
    for (const auto& [name, unit] : perLayerMetrics()) {
      if (metrics_.count(name) == 0) {
        std::printf("metric %-36s 0 %s (not exercised by this workload)\n", name.c_str(),
                    unit.c_str());
        metrics_[name] = {0.0, unit};
      }
    }
  }

  void printResult() const {
    for (const auto& [check, count] : failures_) {
      std::printf("check %s failed %llu operation(s)\n", check.c_str(),
                  static_cast<unsigned long long>(count));
    }
    const double ratio = attempted_ > 0 ? static_cast<double>(failed_) /
                                              static_cast<double>(attempted_)
                                        : 1.0;
    std::printf("info failed_ops_ratio %.6g (%llu of %llu operations)\n", ratio,
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    std::string out = "{\"correct\": ";
    out += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, entry] : metrics_) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + fmt(entry.first) + ", \"unit\": \"" +
             entry.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::uint64_t> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ------------------------------------------------------------ work + profile

constexpr std::array<const char*, obs::kComponentKindCount> kKindNames = {
    "other", "policy", "photonic_router", "electrical_router", "link", "core"};

/// The exact work of one or more episodes.  Engine counters come from
/// Engine::stats(), per-kind steps from the cycle profiler, simulated counts
/// from the network and its RunMetrics.
struct Work {
  std::uint64_t cycles = 0;
  std::uint64_t componentSteps = 0;
  std::uint64_t wakes = 0;
  std::uint64_t timersScheduled = 0;
  std::uint64_t timersFired = 0;
  std::array<std::uint64_t, obs::kComponentKindCount> kindSteps{};
  std::uint64_t reservationsIssued = 0;
  std::uint64_t reservationFailures = 0;
  std::uint64_t flitsInjected = 0;
  std::uint64_t flitsEjected = 0;
  std::uint64_t flitsInFlight = 0;
  std::uint64_t packetsDelivered = 0;

  /// (name, value, engine work?) for every field.  Against a pin, engine
  /// work may shrink (fewer steps, wakes, timers) but never grow, and the
  /// simulated counts must stay equal.
  std::vector<std::tuple<std::string, std::uint64_t, bool>> fields() const {
    std::vector<std::tuple<std::string, std::uint64_t, bool>> out = {
        {"cycles", cycles, false},
        {"component_steps", componentSteps, true},
        {"wakes", wakes, true},
        {"timers_scheduled", timersScheduled, true},
        {"timers_fired", timersFired, true},
    };
    for (std::size_t k = 0; k < kindSteps.size(); ++k) {
      out.emplace_back(std::string("steps.") + kKindNames[k], kindSteps[k], true);
    }
    out.emplace_back("reservations_issued", reservationsIssued, false);
    out.emplace_back("reservation_failures", reservationFailures, false);
    out.emplace_back("flits_injected", flitsInjected, false);
    out.emplace_back("flits_ejected", flitsEjected, false);
    out.emplace_back("flits_in_flight", flitsInFlight, false);
    out.emplace_back("packets_delivered", packetsDelivered, false);
    return out;
  }

  std::string toJson() const {
    std::string out;
    for (const auto& [name, value, engine] : fields()) {
      (void)engine;
      out += (out.empty() ? "{\"" : ",\"") + name + "\":" + std::to_string(value);
    }
    return out + "}";
  }

  Work& operator+=(const Work& o) {
    cycles += o.cycles;
    componentSteps += o.componentSteps;
    wakes += o.wakes;
    timersScheduled += o.timersScheduled;
    timersFired += o.timersFired;
    for (std::size_t k = 0; k < kindSteps.size(); ++k) kindSteps[k] += o.kindSteps[k];
    reservationsIssued += o.reservationsIssued;
    reservationFailures += o.reservationFailures;
    flitsInjected += o.flitsInjected;
    flitsEjected += o.flitsEjected;
    flitsInFlight += o.flitsInFlight;
    packetsDelivered += o.packetsDelivered;
    return *this;
  }
};

/// Work of the episode that just ended on `net` (engine stats and flit
/// counters restart at reset()); kindSteps are left for the caller.
Work workOf(network::PhotonicNetwork& net, const metrics::RunMetrics& m) {
  Work w;
  const sim::EngineStats stats = net.engine().stats();
  w.cycles = stats.cycles;
  w.componentSteps = stats.componentSteps;
  w.wakes = stats.wakes;
  w.timersScheduled = stats.timersScheduled;
  w.timersFired = stats.timersFired;
  w.reservationsIssued = m.reservationsIssued;
  w.reservationFailures = m.reservationFailures;
  w.flitsInjected = net.totalFlitsInjected();
  w.flitsEjected = net.totalFlitsEjected();
  w.flitsInFlight = net.occupancy();
  w.packetsDelivered = m.packetsDelivered;
  return w;
}

struct Profile {
  std::array<std::uint64_t, obs::CycleProfiler::kPhaseCount> phaseNs{};
  std::array<std::uint64_t, obs::kComponentKindCount> kindNs{};
  std::array<std::uint64_t, obs::kComponentKindCount> kindSteps{};

  static Profile of(const obs::CycleProfiler::Snapshot& s) {
    return Profile{s.phaseNs, s.kindNs, s.kindSteps};
  }

  Profile& operator+=(const Profile& o) {
    for (std::size_t i = 0; i < phaseNs.size(); ++i) phaseNs[i] += o.phaseNs[i];
    for (std::size_t i = 0; i < kindNs.size(); ++i) {
      kindNs[i] += o.kindNs[i];
      kindSteps[i] += o.kindSteps[i];
    }
    return *this;
  }
};

/// Field-wise median of per-round profiles.
Profile medianProfile(const std::vector<Profile>& rounds) {
  Profile out;
  const auto med = [&](auto get) {
    std::vector<double> v;
    for (const Profile& p : rounds) v.push_back(static_cast<double>(get(p)));
    return static_cast<std::uint64_t>(std::llround(median(v)));
  };
  for (std::size_t i = 0; i < out.phaseNs.size(); ++i) {
    out.phaseNs[i] = med([i](const Profile& p) { return p.phaseNs[i]; });
  }
  for (std::size_t i = 0; i < out.kindNs.size(); ++i) {
    out.kindNs[i] = med([i](const Profile& p) { return p.kindNs[i]; });
  }
  return out;
}

// --------------------------------------------------------------- reference

/// One episode on a fresh profiled network: the reference every timed
/// episode is checked against (profiling is bit-identical to the plain run)
/// and the source of the exact per-kind steps.
struct Reference {
  std::string digest;  // of wire::toJson(RunMetrics)
  Work work;
  Profile profile;
  metrics::RunMetrics metrics;
  double componentCycles = 0.0;  // cycles x registered components
};

Reference referenceRun(network::SimulationParameters params) {
  params.profile = true;
  network::PhotonicNetwork net(params);
  Reference ref;
  ref.metrics = net.run();
  ref.profile = Profile::of(net.profiler()->snapshot());
  ref.digest = digestOf(scenario::wire::toJson(ref.metrics));
  ref.work = workOf(net, ref.metrics);
  ref.work.kindSteps = ref.profile.kindSteps;
  ref.componentCycles = static_cast<double>(ref.work.cycles) *
                        static_cast<double>(net.engine().componentCount());
  return ref;
}

/// Component steps of the same episode on the poll engine (activity gating
/// off), and the digest of its results, which must equal the gated one.
std::pair<std::uint64_t, std::string> pollRun(network::SimulationParameters params) {
  params.activityGating = false;
  params.profile = false;
  network::PhotonicNetwork net(params);
  const metrics::RunMetrics m = net.run();
  return {net.engine().stats().componentSteps, digestOf(scenario::wire::toJson(m))};
}

// -------------------------------------------------------------------- pins

class Pins {
 public:
  explicit Pins(const std::string& path) {
    if (path.empty()) return;
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read pins file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    root_ = JsonValue::parse(text.str());
    loaded_ = true;
  }

  /// The pinned per-unit entries for (workload, seed), or nullptr.
  const std::vector<JsonValue>* units(const std::string& workload, std::uint64_t seed) const {
    if (!loaded_) return nullptr;
    const JsonValue* entry = root_.at("pins").find(workload + "/" + std::to_string(seed));
    return entry == nullptr ? nullptr : &entry->at("units").items();
  }

 private:
  JsonValue root_;
  bool loaded_ = false;
};

/// Pin checks of unit `u`'s digest and work; no pin list checks nothing.
std::vector<std::string> pinFailures(const std::vector<JsonValue>* pinned, std::size_t u,
                                     const std::string& digest, const Work& work) {
  if (pinned == nullptr) return {};
  if (u >= pinned->size()) return {"digest-pin"};
  const JsonValue& pin = (*pinned)[u];
  std::vector<std::string> failures;
  if (pin.at("digest").asString() != digest) failures.push_back("digest-pin");
  const JsonValue& pinnedWork = pin.at("work");
  for (const auto& [name, value, engine] : work.fields()) {
    const JsonValue* want = pinnedWork.find(name);
    if (want == nullptr || (engine ? value > want->asU64() : value != want->asU64())) {
      failures.push_back("work-pin:" + name);
    }
  }
  return failures;
}

/// The `pin` line: what pins.json would hold for this (workload, seed).
void printPinLine(const std::string& workload, std::uint64_t seed,
                  const std::vector<Reference>& refs) {
  std::string line =
      "pin {\"key\":\"" + workload + "/" + std::to_string(seed) + "\",\"units\":[";
  for (std::size_t u = 0; u < refs.size(); ++u) {
    if (u > 0) line += ",";
    line += "{\"digest\":\"" + refs[u].digest + "\",\"work\":" + refs[u].work.toJson() + "}";
  }
  std::printf("%s]}\n", line.c_str());
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pinsPath;
  std::string workDir = ".bench_build/work";
};

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (key == "--pins") {
      o.pinsPath = value;
    } else if (key == "--work-dir") {
      o.workDir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

/// Peak RSS in MB of this process (RUSAGE_SELF) or of the largest reaped
/// descendant (RUSAGE_CHILDREN: the daemons, and through their waits, the
/// workers).
double peakRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median microseconds of `repeats` calls of `body`.
template <typename Body>
double medianCallUs(int repeats, Body body) {
  std::vector<double> us;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    body();
    us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
  }
  return median(us);
}

/// scenario.* layer timings over the workload's specs and results; returns
/// false when decode(encode(m)) does not re-encode byte-identically.
bool scenarioLayer(Ledger& ledger, const std::vector<std::string>& specJsons,
                   const std::vector<Reference>& refs) {
  std::size_t sink = 0;
  std::vector<double> parse, encode, decode;
  for (const std::string& json : specJsons) {
    parse.push_back(medianCallUs(51, [&] { sink += scenario::ScenarioSpec::fromJson(json).params.seed; }));
  }
  bool roundTrip = true;
  for (const Reference& ref : refs) {
    const std::string text = scenario::wire::toJson(ref.metrics);
    encode.push_back(medianCallUs(51, [&] { sink += scenario::wire::toJson(ref.metrics).size(); }));
    decode.push_back(medianCallUs(51, [&] {
      sink += scenario::wire::runMetricsFromJson(text).packetsDelivered;
    }));
    if (scenario::wire::toJson(scenario::wire::runMetricsFromJson(text)) != text) roundTrip = false;
  }
  ledger.metric("scenario.spec_parse_us", median(parse), "us");
  ledger.metric("scenario.wire_encode_us", median(encode), "us");
  ledger.metric("scenario.wire_decode_us", median(decode), "us");
  std::printf("info scenario checksum %zu\n", sink % 10);
  return roundTrip;
}

/// The sim/network/noc/core/workload layers from the exact work of one
/// round and the round's profile.
void engineLayers(Ledger& ledger, const Work& work, const Profile& profile,
                  std::uint64_t pollSteps, const std::vector<Reference>& refs) {
  double componentCycles = 0.0;
  for (const Reference& ref : refs) componentCycles += ref.componentCycles;
  ledger.metric("sim.component_steps", static_cast<double>(work.componentSteps), "count");
  ledger.metric("sim.wakes", static_cast<double>(work.wakes), "count");
  ledger.metric("sim.timers_scheduled", static_cast<double>(work.timersScheduled), "count");
  ledger.metric("sim.timers_fired", static_cast<double>(work.timersFired), "count");
  ledger.metric("sim.park_rate",
                1.0 - static_cast<double>(work.componentSteps) / componentCycles, "ratio");
  ledger.metric("sim.poll_component_steps", static_cast<double>(pollSteps), "count");
  ledger.metric("sim.gated_poll_step_ratio",
                static_cast<double>(work.componentSteps) / static_cast<double>(pollSteps),
                "ratio");
  static const std::array<const char*, obs::CycleProfiler::kPhaseCount> kPhaseMetric = {
      "sim.phase.timer_expire_ns", "sim.phase.wake_drain_ns", "sim.phase.evaluate_ns",
      "sim.phase.advance_ns", "sim.phase.park_scan_ns"};
  for (std::size_t p = 0; p < kPhaseMetric.size(); ++p) {
    ledger.metric(kPhaseMetric[p], static_cast<double>(profile.phaseNs[p]), "ns");
  }
  const auto kind = [&](obs::ComponentKind k, const std::string& prefix) {
    const std::size_t i = static_cast<std::size_t>(k);
    ledger.metric(prefix + ".steps", static_cast<double>(work.kindSteps[i]), "count");
    ledger.metric(prefix + ".ns", static_cast<double>(profile.kindNs[i]), "ns");
  };
  kind(obs::ComponentKind::kCore, "network.core");
  kind(obs::ComponentKind::kPhotonicRouter, "network.photonic_router");
  kind(obs::ComponentKind::kElectricalRouter, "noc.electrical_router");
  kind(obs::ComponentKind::kLink, "noc.link");
  kind(obs::ComponentKind::kPolicy, "core.policy");
  ledger.metric("network.reservations_issued", static_cast<double>(work.reservationsIssued), "count");
  ledger.metric("network.reservation_failures", static_cast<double>(work.reservationFailures), "count");
  ledger.metric("network.reservation_success_ratio",
                work.reservationsIssued > 0
                    ? 1.0 - static_cast<double>(work.reservationFailures) /
                                static_cast<double>(work.reservationsIssued)
                    : 0.0,
                "ratio");
  std::printf("info network.reservation_success_ratio base %llu reservations issued\n",
              static_cast<unsigned long long>(work.reservationsIssued));
  std::printf("info sim.gated_poll_step_ratio base %llu poll component steps\n",
              static_cast<unsigned long long>(pollSteps));
  ledger.metric("noc.flits_injected", static_cast<double>(work.flitsInjected), "count");
  ledger.metric("noc.flits_ejected", static_cast<double>(work.flitsEjected), "count");
  ledger.metric("noc.flits_in_flight", static_cast<double>(work.flitsInFlight), "count");
  std::uint64_t requests = 0;
  metrics::LatencyHistogram requestLatency;
  for (const Reference& ref : refs) {
    requests += ref.metrics.requestsCompleted;
    requestLatency += ref.metrics.requestLatency;
  }
  ledger.metric("workload.requests_completed", static_cast<double>(requests), "count");
  ledger.metric("workload.request_latency_p99_cycles",
                requests > 0 ? requestLatency.quantile(0.99) : 0.0, "cycles");
}

void printSamples(const char* what, std::size_t n) {
  // A p95 needs at least ten samples beyond it.
  std::printf("info samples %s %zu%s\n", what, n,
              n >= 200 ? "" : " (fewer than 10 beyond p95)");
}

// ------------------------------------------------------- in-process workloads

struct EpisodeShape {
  const char* pattern;
  double load;
  Cycle warmup;
  Cycle measure;
};

/// Sub-seed streams per run: each round runs one episode on each, so a
/// round's simulated work is fixed and seed-to-seed variance averages out.
constexpr std::size_t kStreams = 8;

std::vector<std::string> inProcessSpecs(const EpisodeShape& shape, std::uint64_t seed) {
  std::vector<std::string> out;
  for (std::size_t k = 0; k < kStreams; ++k) {
    scenario::ScenarioSpec spec;
    spec.set("arch", "dhetpnoc");
    spec.set("pattern", shape.pattern);
    spec.set("load", fmt(shape.load));
    spec.set("warmup", std::to_string(shape.warmup));
    spec.set("measure", std::to_string(shape.measure));
    spec.set("seed", std::to_string(subSeed(seed, k)));
    out.push_back(spec.toJson());
  }
  return out;
}

using NetworkSet = std::vector<std::unique_ptr<network::PhotonicNetwork>>;

struct RoundTiming {
  double seconds = 0.0;  // sum of episode (reset + run) times
  std::vector<double> resetMs, episodeMs;
  Profile profile;
};

int runInProcess(const Options& opt, const EpisodeShape& shape, const Pins& pins) {
  Ledger ledger;
  const std::vector<std::string> specJsons = inProcessSpecs(shape, opt.seed);
  std::vector<scenario::ScenarioSpec> specs;
  for (const std::string& json : specJsons) specs.push_back(scenario::ScenarioSpec::fromJson(json));

  NetworkSet nets;
  for (const scenario::ScenarioSpec& spec : specs) {
    nets.push_back(std::make_unique<network::PhotonicNetwork>(spec.params));
  }
  // Set-up samples: each timed round builds (and drops) one more network,
  // so the samples span the run like the episodes do and all see a warm
  // allocator; the first builds above fault in fresh pages and would make
  // the median depend on the run length.
  std::vector<double> buildSeconds;
  const auto timedBuild = [&](std::size_t k) {
    const double t0 = cpuSeconds();
    const network::PhotonicNetwork net(specs[k].params);
    buildSeconds.push_back(cpuSeconds() - t0);
  };

  std::vector<Reference> refs;
  Work roundWork;
  for (const scenario::ScenarioSpec& spec : specs) {
    refs.push_back(referenceRun(spec.params));
    roundWork += refs.back().work;
  }
  std::printf("work %s\n", roundWork.toJson().c_str());
  printPinLine(opt.workload, opt.seed, refs);
  const std::vector<JsonValue>* pinned = pins.units(opt.workload, opt.seed);
  std::printf("info pins %s\n", pinned != nullptr ? "checked for this seed" : "none for this seed");

  // Every episode: flit conservation, identity with its fresh reference
  // (digest and exact work; per-kind steps when profiled) and the pin.
  const auto checkEpisode = [&](network::PhotonicNetwork& net, const metrics::RunMetrics& m,
                                std::size_t k, const Profile* profile) {
    std::vector<std::string> failures;
    if (net.totalFlitsInjected() != net.totalFlitsEjected() + net.occupancy()) {
      failures.push_back("flit-conservation");
    }
    const std::string digest = digestOf(scenario::wire::toJson(m));
    Work work = workOf(net, m);
    work.kindSteps = profile != nullptr ? profile->kindSteps : refs[k].work.kindSteps;
    if (digest != refs[k].digest) failures.push_back("reset-equals-fresh-digest");
    if (work.toJson() != refs[k].work.toJson()) failures.push_back("reset-equals-fresh-work");
    const std::vector<std::string> pinFail = pinFailures(pinned, k, digest, work);
    failures.insert(failures.end(), pinFail.begin(), pinFail.end());
    ledger.op(failures);
  };

  // One round = one reset()+run() episode per stream.
  const auto runRound = [&](NetworkSet& set, bool profiled) {
    RoundTiming timing;
    for (std::size_t k = 0; k < kStreams; ++k) {
      network::PhotonicNetwork& net = *set[k];
      const double t0 = cpuSeconds();
      net.reset();
      const double t1 = cpuSeconds();
      const metrics::RunMetrics m = net.run();
      const double t2 = cpuSeconds();
      timing.seconds += t2 - t0;
      timing.resetMs.push_back((t1 - t0) * 1e3);
      timing.episodeMs.push_back((t2 - t0) * 1e3);
      if (profiled) {
        // reset() zeroes the profiler with the engine: the snapshot is the
        // episode's own profile.
        const Profile episode = Profile::of(net.profiler()->snapshot());
        timing.profile += episode;
        checkEpisode(net, m, k, &episode);
      } else {
        checkEpisode(net, m, k, nullptr);
      }
    }
    return timing;
  };

  NetworkSet tracedNets;
  if (opt.trace) {
    for (const scenario::ScenarioSpec& spec : specs) {
      network::SimulationParameters params = spec.params;
      params.profile = true;
      tracedNets.push_back(std::make_unique<network::PhotonicNetwork>(params));
    }
    runRound(tracedNets, true);
  }
  // Warm caches and lazily grown buffers before timing (checked, untimed).
  runRound(nets, false);

  std::vector<double> roundSeconds, tracedRoundSeconds, resetMs, episodeMs;
  std::vector<Profile> profiles;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(opt.seconds);
  while (Clock::now() < deadline || roundSeconds.size() < 3) {
    timedBuild(roundSeconds.size() % kStreams);
    const RoundTiming t = runRound(nets, false);
    roundSeconds.push_back(t.seconds);
    resetMs.insert(resetMs.end(), t.resetMs.begin(), t.resetMs.end());
    episodeMs.insert(episodeMs.end(), t.episodeMs.begin(), t.episodeMs.end());
    if (opt.trace) {
      // Alternate untraced and traced rounds so drift hits both alike.
      const RoundTiming traced = runRound(tracedNets, true);
      tracedRoundSeconds.push_back(traced.seconds);
      profiles.push_back(traced.profile);
    }
  }
  std::printf("info rounds %zu (%zu episodes of %llu cycles) in %.3f s\n", roundSeconds.size(),
              episodeMs.size(), static_cast<unsigned long long>(shape.warmup + shape.measure),
              secondsBetween(start, Clock::now()));
  printSamples("episodes", episodeMs.size());

  const double medianRound = median(roundSeconds);
  if (!opt.trace) {
    // A user's "job" here is one episode: done = its reset() + run() returned.
    ledger.metric("setup_s", median(buildSeconds), "s");
    ledger.metric("sim_cycles_per_s",
                  static_cast<double>(kStreams * (shape.warmup + shape.measure)) / medianRound, "1/s");
    ledger.metric("units_per_s", static_cast<double>(kStreams) / medianRound, "1/s");
    ledger.metric("job_done_ms_p50", quantile(episodeMs, 0.50), "ms");
    ledger.metric("job_done_ms_p95", quantile(episodeMs, 0.95), "ms");
    ledger.metric("peak_rss_mb", peakRssMb(RUSAGE_SELF), "MB");
  } else {
    std::uint64_t pollSteps = 0;
    for (std::size_t k = 0; k < kStreams; ++k) {
      const auto [steps, digest] = pollRun(specs[k].params);
      pollSteps += steps;
      ledger.op(digest == refs[k].digest ? std::vector<std::string>{}
                                         : std::vector<std::string>{"gated-equals-poll"});
    }
    engineLayers(ledger, roundWork, medianProfile(profiles), pollSteps, refs);
    ledger.metric("sim.ns_per_component_step",
                  medianRound * 1e9 / static_cast<double>(roundWork.componentSteps), "ns");
    ledger.metric("network.build_ms", median(buildSeconds) * 1e3, "ms");
    ledger.metric("network.reset_ms", median(resetMs), "ms");
    ledger.op(scenarioLayer(ledger, specJsons, refs) ? std::vector<std::string>{}
                                                     : std::vector<std::string>{"wire-round-trip"});
    ledger.metric("obs.trace_overhead_ratio", median(tracedRoundSeconds) / medianRound, "ratio");
    ledger.completePerLayer();
  }
  ledger.printResult();
  return 0;
}

// ---------------------------------------------------------------- served_grid

constexpr unsigned kWorkers = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kGrids = 4;
constexpr std::size_t kUnitsPerGrid = 8;
constexpr Cycle kUnitWarmup = 200;
constexpr Cycle kUnitMeasure = 2000;
/// Daemon spawns on each side of the window; setup_s is the median
/// spawn-to-ready time.
constexpr int kDaemonSpawns = 40;
const char* const kSocket = "serve.sock";

/// Grid `g`: both architectures, request-reply and open-loop units.
std::vector<std::string> gridSpecs(std::uint64_t seed, std::size_t g) {
  struct Mix {
    const char* pattern;
    const char* workload;
    const char* load;
  };
  static const std::array<Mix, 4> kMix = {{
      {"skewed3", "closed:window=4,think=20", "0.004"},
      {"skewed3", "chain:window=2,think=10", "0.004"},
      {"real-apps", "open", "0.004"},
      {"skewed3", "open", "0.006"},
  }};
  std::vector<std::string> out;
  for (std::size_t u = 0; u < kUnitsPerGrid; ++u) {
    const Mix& mix = kMix[(u + g) % kMix.size()];
    scenario::ScenarioSpec spec;
    spec.set("arch", u % 2 == 0 ? "dhetpnoc" : "firefly");
    spec.set("pattern", mix.pattern);
    spec.set("workload", mix.workload);
    spec.set("load", mix.load);
    spec.set("warmup", std::to_string(kUnitWarmup));
    spec.set("measure", std::to_string(kUnitMeasure));
    spec.set("seed", std::to_string(subSeed(seed, 1000 + g * kUnitsPerGrid + u)));
    out.push_back(spec.toJson());
  }
  return out;
}

/// A spawned pnoc_serve in the current directory; the destructor kills and
/// reaps it if it is still running.
class Daemon {
 public:
  Daemon(const std::string& journal, const std::string& tracePath) {
    std::vector<std::string> args = {PERFBENCH_SERVE_BIN, std::string("socket=") + kSocket,
                                     "journal=" + journal, "shards=" + std::to_string(kWorkers)};
    if (!tracePath.empty()) args.push_back("trace=" + tracePath);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until op=status reports every worker ready.
  void waitReady() const {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        throw std::runtime_error("pnoc_serve exited during start-up (see daemon.log)");
      }
      try {
        service::ServeClient client(kSocket);
        const JsonValue reply = client.request("{\"op\":\"status\"}");
        std::size_t ready = 0;
        for (const JsonValue& w : reply.at("workers").items()) {
          if (w.at("state").asString() == "ready") ++ready;
        }
        if (ready >= kWorkers) return;
      } catch (const std::runtime_error&) {
        // not listening yet
      }
      // Fine-grained polling: the wait is ~3 ms, and a coarse sleep would
      // quantize setup_s.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    throw std::runtime_error("pnoc_serve workers not ready within 30 s");
  }

  /// op=shutdown, then reaps the daemon (SIGKILL after 20 s).
  void shutdown() {
    try {
      service::ServeClient client(kSocket);
      client.request("{\"op\":\"shutdown\"}");
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: shutdown request failed: %s\n", error.what());
    }
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

struct JobSample {
  std::size_t index = 0;  // client-side job number; its grid is index % kGrids
  double ackMs = 0.0;
  double doneMs = 0.0;
  std::string state;
  std::uint64_t failedUnits = 0;
  std::string error;  // the failed check, when the job never completed
  Clock::time_point finished;
};

/// One closed-loop connection: submit, wait for the ack, watch to the
/// terminal event, repeat until the deadline.
void clientLoop(const std::vector<std::string>& gridArrays, const std::string& outDir,
                std::atomic<std::size_t>& nextJob, Clock::time_point deadline,
                std::vector<JobSample>& out) {
  try {
    service::ServeClient client(kSocket);
    while (Clock::now() < deadline) {
      JobSample s;
      s.index = nextJob.fetch_add(1);
      const std::string submit =
          "{\"op\":\"submit\",\"client\":\"perfbench\",\"mode\":\"run\",\"bench\":\"job" +
          std::to_string(s.index) + "\",\"dir\":\"" + outDir +
          "\",\"specs\":" + gridArrays[s.index % kGrids] + "}";
      const auto t0 = Clock::now();
      client.sendLine(submit);
      const JsonValue ack = JsonValue::parse(client.readLine());
      s.ackMs = secondsBetween(t0, Clock::now()) * 1e3;
      const JsonValue* ok = ack.find("ok");
      if (ok == nullptr || ok->asU64() != 1 || ack.find("job") == nullptr) {
        s.error = "submit-accepted";
        s.finished = Clock::now();
        out.push_back(s);
        continue;
      }
      client.sendLine("{\"op\":\"watch\",\"job\":" + std::to_string(ack.at("job").asU64()) + "}");
      while (s.state.empty() && s.error.empty()) {
        const JsonValue event = JsonValue::parse(client.readLine());
        const JsonValue* kind = event.find("event");
        if (kind == nullptr) {
          s.error = "watch-accepted";
        } else if (kind->asString() == "job") {
          s.state = event.at("state").asString();
          s.failedUnits = event.at("failed").asU64();
        }
      }
      s.finished = Clock::now();
      s.doneMs = secondsBetween(t0, s.finished) * 1e3;
      out.push_back(s);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: client: %s\n", error.what());
    JobSample s;
    s.error = "client-connection";
    s.finished = Clock::now();
    out.push_back(s);
  }
}

struct ServedRun {
  std::vector<JobSample> jobs;
  double windowSeconds = 0.0;
  JsonValue metrics;  // the op=metrics reply
};

/// Drives one daemon with kConnections closed-loop clients for `seconds`.
ServedRun serveWindow(const std::vector<std::string>& gridArrays,
                      const std::string& outDir, double seconds) {
  fs::create_directories(outDir);
  ServedRun run;
  std::atomic<std::size_t> nextJob{0};
  std::vector<std::vector<JobSample>> perConnection(kConnections);
  const auto start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back(clientLoop, std::cref(gridArrays), std::cref(outDir),
                           std::ref(nextJob), deadline, std::ref(perConnection[c]));
    }
    for (std::thread& t : threads) t.join();
  }
  Clock::time_point last = start;
  for (std::vector<JobSample>& samples : perConnection) {
    for (JobSample& s : samples) {
      last = std::max(last, s.finished);
      run.jobs.push_back(std::move(s));
    }
  }
  run.windowSeconds = secondsBetween(start, last);
  try {
    service::ServeClient client(kSocket);
    run.metrics = client.request("{\"op\":\"metrics\"}");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: op=metrics failed: %s\n", error.what());
  }
  return run;
}

/// The record lines of a BENCH file (JsonRecorder writes one per line).
std::vector<std::string> recordLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("  {", 0) != 0) continue;
    if (line.back() == ',') line.pop_back();
    out.push_back(line.substr(2));
  }
  return out;
}

/// Span durations in ms by span name, from a Chrome-trace file.
std::map<std::string, std::vector<double>> spanDurationsMs(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue root = JsonValue::parse(text.str());
  std::map<std::string, std::vector<double>> out;
  std::map<std::string, std::vector<std::pair<std::string, double>>> stacks;  // per thread
  std::map<std::string, double> asyncBegins;                                 // name/id -> ts
  for (const JsonValue& e : root.at("traceEvents").items()) {
    const std::string ph = e.at("ph").asString();
    if (ph == "B" || ph == "E") {
      auto& stack = stacks[e.at("pid").raw() + "/" + e.at("tid").raw()];
      const double ts = e.at("ts").asDouble();
      if (ph == "B") {
        stack.emplace_back(e.at("name").asString(), ts);
      } else if (!stack.empty()) {
        out[stack.back().first].push_back((ts - stack.back().second) / 1e3);
        stack.pop_back();
      }
    } else if (ph == "b" || ph == "e") {
      const std::string name = e.at("name").asString();
      const std::string key = name + "/" + e.at("id").asString();
      if (ph == "b") {
        asyncBegins[key] = e.at("ts").asDouble();
      } else if (const auto it = asyncBegins.find(key); it != asyncBegins.end()) {
        out[name].push_back((e.at("ts").asDouble() - it->second) / 1e3);
        asyncBegins.erase(it);
      }
    }
  }
  return out;
}

std::uint64_t counterFrom(const JsonValue& metricsReply, const std::string& name) {
  const JsonValue* m = metricsReply.find("metrics");
  const JsonValue* counters = m == nullptr ? nullptr : m->find("counters");
  const JsonValue* c = counters == nullptr ? nullptr : counters->find(name);
  return c == nullptr ? 0 : c->asU64();
}

/// Makes the driver the subreaper of everything it starts and, on scope exit
/// (error paths included), waits for every descendant to end.  Workers of a
/// killed daemon are reparented here and exit at the end of their input.
struct ReapDescendants {
  ReapDescendants() { ::prctl(PR_SET_CHILD_SUBREAPER, 1); }
  ~ReapDescendants() {
    while (::waitpid(-1, nullptr, 0) > 0 || errno == EINTR) {
    }
  }
  ReapDescendants(const ReapDescendants&) = delete;
  ReapDescendants& operator=(const ReapDescendants&) = delete;
};

int runServed(const Options& opt, const Pins& pins) {
  const ReapDescendants reaper;
  Ledger ledger;
  ::signal(SIGPIPE, SIG_IGN);

  std::vector<std::vector<std::string>> grids;
  std::vector<std::string> gridArrays;  // the "specs" array each submit carries
  std::vector<std::string> allSpecJsons;
  for (std::size_t g = 0; g < kGrids; ++g) {
    grids.push_back(gridSpecs(opt.seed, g));
    std::string array = "[";
    for (const std::string& spec : grids.back()) {
      array += (array.size() > 1 ? "," : "") + spec;
      allSpecJsons.push_back(spec);
    }
    gridArrays.push_back(array + "]");
  }

  // A private directory with short relative paths: Unix socket paths are
  // length-limited and the checkout may live anywhere.  It is left in place
  // (daemon.log, journals, BENCH files, trace.json): deleting its ~700 small
  // files on a discard-mounted disk can take tens of seconds, and that I/O
  // would spill into the next run's journal fsyncs.
  const fs::path dir = fs::absolute(opt.workDir) / ("served-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::current_path(dir);

  // Set-up probes run before and after the window, so a burst of host
  // load at either end cannot move their median.
  std::vector<double> setupSeconds;
  const auto probeSetup = [&](int spawns) {
    for (int i = 0; i < spawns; ++i) {
      const auto t0 = Clock::now();
      Daemon probe("setup" + std::to_string(setupSeconds.size()) + ".journal", "");
      probe.waitReady();
      setupSeconds.push_back(secondsBetween(t0, Clock::now()));
      probe.shutdown();
    }
  };
  if (!opt.trace) probeSetup(kDaemonSpawns);

  // With --trace 1 half the time runs untraced and half traced, so the
  // trace overhead is measured within one run.
  const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
  ServedRun run, tracedRun;
  {
    Daemon daemon("queue.journal", "");
    daemon.waitReady();
    run = serveWindow(gridArrays, "out", window);
    daemon.shutdown();
  }
  if (opt.trace) {
    Daemon daemon("traced.journal", "trace.json");
    daemon.waitReady();
    tracedRun = serveWindow(gridArrays, "out-traced", window);
    daemon.shutdown();
  } else {
    probeSetup(kDaemonSpawns);
  }

  // --- references: in-process records, digests and exact work per unit ---
  std::vector<std::vector<std::string>> expectedRecords(kGrids);
  std::vector<Reference> refs;
  Work roundWork;
  Profile roundProfile;
  std::uint64_t pollSteps = 0;
  double plainSeconds = 0.0;
  const std::vector<JsonValue>* pinned = pins.units(opt.workload, opt.seed);
  std::vector<std::vector<std::string>> gridFailures(kGrids);
  for (std::size_t g = 0; g < kGrids; ++g) {
    for (std::size_t u = 0; u < kUnitsPerGrid; ++u) {
      const scenario::ScenarioSpec spec = scenario::ScenarioSpec::fromJson(grids[g][u]);
      const auto t0 = Clock::now();
      const scenario::ScenarioOutcome outcome =
          scenario::executeJob(scenario::ScenarioJob{scenario::ScenarioJob::Op::kRun, spec});
      plainSeconds += secondsBetween(t0, Clock::now());
      expectedRecords[g].push_back(scenario::dispatch::serializedOutcomeRecord(outcome, u));
      refs.push_back(referenceRun(spec.params));
      const Reference& ref = refs.back();
      roundWork += ref.work;
      roundProfile += ref.profile;
      std::vector<std::string> f = pinFailures(pinned, refs.size() - 1, ref.digest, ref.work);
      if (digestOf(scenario::wire::toJson(outcome.metrics)) != ref.digest) {
        f.push_back("profiled-equals-plain");
      }
      if (opt.trace) {
        const auto [steps, digest] = pollRun(spec.params);
        pollSteps += steps;
        if (digest != ref.digest) f.push_back("gated-equals-poll");
      }
      gridFailures[g].insert(gridFailures[g].end(), f.begin(), f.end());
    }
  }
  std::printf("work %s\n", roundWork.toJson().c_str());
  printPinLine(opt.workload, opt.seed, refs);
  std::printf("info pins %s\n", pinned != nullptr ? "checked for this seed" : "none for this seed");

  // Every job: accepted, done with no failed unit, its records byte-identical
  // to in-process runs of the same specs, and its grid's references hold.
  const auto checkJobs = [&](const ServedRun& r, const std::string& outDir) {
    std::uint64_t units = 0;
    for (const JobSample& s : r.jobs) {
      std::vector<std::string> failures;
      if (!s.error.empty()) {
        failures.push_back(s.error);
      } else {
        const std::size_t g = s.index % kGrids;
        if (s.state != "done") failures.push_back("job-done");
        if (s.failedUnits != 0) failures.push_back("no-failed-units");
        if (recordLines(outDir + "/BENCH_job" + std::to_string(s.index) + ".json") !=
            expectedRecords[g]) {
          failures.push_back("served-equals-in-process");
        }
        failures.insert(failures.end(), gridFailures[g].begin(), gridFailures[g].end());
        units += kUnitsPerGrid;
      }
      ledger.op(failures);
    }
    return units;
  };
  const std::uint64_t units = checkJobs(run, "out");
  std::vector<double> ackMs, doneMs;
  for (const JobSample& s : run.jobs) {
    if (!s.error.empty()) continue;
    ackMs.push_back(s.ackMs);
    doneMs.push_back(s.doneMs);
  }
  std::printf("info jobs %zu (%llu units) in %.3f s\n", run.jobs.size(),
              static_cast<unsigned long long>(units), run.windowSeconds);
  printSamples("jobs", doneMs.size());

  if (!opt.trace) {
    ledger.metric("setup_s", median(setupSeconds), "s");
    ledger.metric("sim_cycles_per_s",
                  static_cast<double>(units * (kUnitWarmup + kUnitMeasure)) / run.windowSeconds,
                  "1/s");
    ledger.metric("units_per_s", static_cast<double>(units) / run.windowSeconds, "1/s");
    ledger.metric("job_done_ms_p50", quantile(doneMs, 0.50), "ms");
    ledger.metric("job_done_ms_p95", quantile(doneMs, 0.95), "ms");
    ledger.metric("peak_rss_mb", peakRssMb(RUSAGE_CHILDREN), "MB");
  } else {
    const std::uint64_t tracedUnits = checkJobs(tracedRun, "out-traced");
    engineLayers(ledger, roundWork, roundProfile, pollSteps, refs);
    ledger.metric("sim.ns_per_component_step",
                  plainSeconds * 1e9 / static_cast<double>(roundWork.componentSteps), "ns");
    ledger.op(scenarioLayer(ledger, allSpecJsons, refs) ? std::vector<std::string>{}
                                                        : std::vector<std::string>{"wire-round-trip"});
    const auto spans = spanDurationsMs("trace.json");
    const auto spanMedianMs = [&](const char* name) {
      const auto it = spans.find(name);
      const std::size_t n = it == spans.end() ? 0 : it->second.size();
      std::printf("info spans %s %zu\n", name, n);
      return n == 0 ? 0.0 : median(it->second);
    };
    ledger.metric("dispatch.worker_handshake_ms", spanMedianMs("worker-handshake"), "ms");
    ledger.metric("service.journal_fsync_us_p50", spanMedianMs("journal-fsync") * 1e3, "us");
    // Submit until {"ok":1,"job":N}, on the untraced half.  It is mostly the
    // journal fsync plus two cross-process wake-ups, so it follows the
    // host's disk and scheduler more than the program: a per-layer number,
    // not an end-to-end one (README, "Noise and run length").
    ledger.metric("service.submit_ack_ms_p50", quantile(ackMs, 0.50), "ms");
    ledger.metric("service.submit_ack_ms_p95", quantile(ackMs, 0.95), "ms");
    ledger.metric("service.queue_wait_ms_p50", spanMedianMs("queue-wait"), "ms");
    ledger.metric("service.unit_execution_ms_p50", spanMedianMs("unit-execution"), "ms");
    ledger.metric("service.checkpoint_flush_ms_p50", spanMedianMs("checkpoint-flush"), "ms");
    ledger.metric("service.dispatch_us_p50", spanMedianMs("dispatch") * 1e3, "us");
    double busyMs = 0.0;
    if (const auto it = spans.find("unit-execution"); it != spans.end()) {
      for (const double d : it->second) busyMs += d;
    }
    ledger.metric("service.worker_busy_ratio", busyMs / (tracedRun.windowSeconds * 1e3 * kWorkers),
                  "ratio");
    ledger.metric("service.retries",
                  static_cast<double>(counterFrom(tracedRun.metrics, "fleet_retries_total")), "count");
    ledger.metric("service.respawns",
                  static_cast<double>(counterFrom(tracedRun.metrics, "fleet_respawns_total")), "count");
    ledger.metric("service.protocol_deaths",
                  static_cast<double>(counterFrom(tracedRun.metrics, "fleet_protocol_deaths_total")),
                  "count");
    // Host time per served unit, traced over untraced.
    ledger.metric("obs.trace_overhead_ratio",
                  (tracedRun.windowSeconds / static_cast<double>(std::max<std::uint64_t>(tracedUnits, 1))) /
                      (run.windowSeconds / static_cast<double>(std::max<std::uint64_t>(units, 1))),
                  "ratio");
    ledger.completePerLayer();
  }
  ledger.printResult();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parseOptions(argc, argv);
    const Pins pins(opt.pinsPath);
    if (opt.workload == "lowload_uniform") {
      return runInProcess(opt, EpisodeShape{"uniform", 0.001, 1000, 20000}, pins);
    }
    if (opt.workload == "hotspot_saturation") {
      return runInProcess(opt, EpisodeShape{"skewed-hotspot2", 0.02, 1000, 5000}, pins);
    }
    if (opt.workload == "served_grid") return runServed(opt, pins);
    std::fprintf(stderr,
                 "perfbench: unknown workload '%s' (lowload_uniform | hotspot_saturation |"
                 " served_grid)\n",
                 opt.workload.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
