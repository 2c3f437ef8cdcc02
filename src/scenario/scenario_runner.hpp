// The BENCH record helpers: the single code path through which every bench
// binary (and the pnoc_run driver) emits its BENCH_*.json records.
//
// Batches themselves run through an ExecutionBackend (makeBackend) or, one
// spec at a time, through runScenario / findScenarioPeak
// (execution_backend.hpp); results are bit-identical either way.
#pragma once

#include <cstddef>
#include <string>

#include "metrics/metrics.hpp"
#include "scenario/execution_backend.hpp"
#include "scenario/json_record.hpp"
#include "scenario/scenario_spec.hpp"

namespace pnoc::scenario {

/// One "run" record: scenario identity (arch/set/pattern/seed/label) plus
/// the headline quantities of a fixed-load run.
JsonRecord& recordRun(JsonRecorder& recorder, const ScenarioSpec& spec,
                      const metrics::RunMetrics& metrics,
                      const std::string& recordName = "run");

/// One "peak" record: scenario identity plus the saturation-search result.
JsonRecord& recordPeak(JsonRecorder& recorder, const ScenarioPeak& peak,
                       const std::string& recordName = "peak");

/// The per-binary wall-time record CI trends ("timing": wall_seconds, points).
JsonRecord& recordTiming(JsonRecorder& recorder, double wallSeconds,
                         std::size_t points);

}  // namespace pnoc::scenario
