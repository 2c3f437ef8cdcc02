// The in-process side of the cross-process byte-identity oracle: every job
// through executeJob, in order, in this process — the code each fleet worker
// runs per job line.  Batches on the fleet must match it byte for byte.
#pragma once

#include <vector>

#include "scenario/execution_backend.hpp"

namespace pnoc::testsupport {

inline std::vector<scenario::ScenarioOutcome> executeSerially(
    const std::vector<scenario::ScenarioJob>& jobs) {
  std::vector<scenario::ScenarioOutcome> outcomes;
  outcomes.reserve(jobs.size());
  for (const scenario::ScenarioJob& job : jobs) {
    outcomes.push_back(scenario::executeJob(job));
  }
  return outcomes;
}

inline std::vector<scenario::ScenarioResult> runSerially(
    const std::vector<scenario::ScenarioSpec>& specs) {
  std::vector<scenario::ScenarioResult> results;
  results.reserve(specs.size());
  for (const scenario::ScenarioSpec& spec : specs) {
    results.push_back({spec, scenario::runScenario(spec)});
  }
  return results;
}

inline std::vector<scenario::ScenarioPeak> findPeaksSerially(
    const std::vector<scenario::ScenarioSpec>& specs) {
  std::vector<scenario::ScenarioPeak> peaks;
  peaks.reserve(specs.size());
  for (const scenario::ScenarioSpec& spec : specs) {
    peaks.push_back({spec, scenario::findScenarioPeak(spec)});
  }
  return peaks;
}

}  // namespace pnoc::testsupport
