#include "scenario/scenario_runner.hpp"

namespace pnoc::scenario {

namespace {

JsonRecord& recordIdentity(JsonRecorder& recorder, const ScenarioSpec& spec,
                           const std::string& recordName) {
  JsonRecord& record = recorder.add(recordName);
  if (!spec.label.empty()) record.text("label", spec.label);
  record.text("arch", spec.get("arch")).text("pattern", spec.params.pattern);
  if (const auto set = bandwidthSetIndex(spec.params.bandwidthSet)) {
    record.integer("bandwidth_set", *set);
  }
  record.integer("seed", static_cast<long long>(spec.params.seed));
  return record;
}

}  // namespace

JsonRecord& recordRun(JsonRecorder& recorder, const ScenarioSpec& spec,
                      const metrics::RunMetrics& metrics,
                      const std::string& recordName) {
  JsonRecord& record =
      recordIdentity(recorder, spec, recordName)
          .number("load", spec.params.offeredLoad)
          .number("gbps", metrics.deliveredGbps())
          .number("acceptance", metrics.acceptance())
          .number("avg_latency_cycles", metrics.avgLatencyCycles())
          .number("energy_per_packet_pj", metrics.energyPerPacketPj());
  // Flow metrics only exist under a request--reply workload; keeping them out
  // of open-loop records leaves those byte-identical across workload builds.
  if (metrics.requestsIssued > 0 || metrics.requestsCompleted > 0) {
    record.integer("requests_issued", static_cast<long long>(metrics.requestsIssued))
        .integer("requests_completed", static_cast<long long>(metrics.requestsCompleted))
        .number("request_latency_avg", metrics.avgRequestLatencyCycles())
        .number("request_latency_p99", metrics.requestLatencyP99())
        .number("offered_req_per_kcycle", metrics.offeredRequestsPerKcycle())
        .number("achieved_req_per_kcycle", metrics.achievedRequestsPerKcycle());
  }
  return record;
}

JsonRecord& recordPeak(JsonRecorder& recorder, const ScenarioPeak& peak,
                       const std::string& recordName) {
  const metrics::RunMetrics& at = peak.search.peak.metrics;
  return recordIdentity(recorder, peak.spec, recordName)
      .number("offered_load", peak.search.peak.offeredLoad)
      .number("gbps", at.deliveredGbps())
      .number("energy_per_packet_pj", at.energyPerPacketPj())
      .integer("points_evaluated", static_cast<long long>(peak.search.sweep.size()));
}

JsonRecord& recordTiming(JsonRecorder& recorder, double wallSeconds,
                         std::size_t points) {
  return recorder.add("timing")
      .number("wall_seconds", wallSeconds)
      .integer("points", static_cast<long long>(points));
}

}  // namespace pnoc::scenario
