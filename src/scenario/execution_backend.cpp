#include "scenario/execution_backend.hpp"

#include <cstdint>
#include <stdexcept>
#include <thread>

#include "network/network.hpp"
#include "scenario/dispatch/streaming_backend.hpp"
#include "scenario/in_process_backend.hpp"

namespace pnoc::scenario {
namespace {

/// The typed conveniences have nowhere to put a failed outcome (their result
/// structs carry metrics, not errors), so a fail-soft failure reaching them
/// is an error — callers that want structured failures use execute().
void requireNotFailed(const ScenarioOutcome& outcome) {
  if (outcome.failed) {
    throw std::runtime_error("scenario job failed: " + outcome.error);
  }
}

}  // namespace

std::vector<ScenarioResult> ExecutionBackend::run(
    const std::vector<ScenarioSpec>& specs) {
  std::vector<ScenarioJob> jobs;
  jobs.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    jobs.push_back(ScenarioJob{ScenarioJob::Op::kRun, spec});
  }
  std::vector<ScenarioOutcome> outcomes = execute(jobs);
  std::vector<ScenarioResult> results;
  results.reserve(outcomes.size());
  for (ScenarioOutcome& outcome : outcomes) {
    requireNotFailed(outcome);
    results.push_back(ScenarioResult{std::move(outcome.spec), outcome.metrics});
  }
  return results;
}

std::vector<ScenarioPeak> ExecutionBackend::findPeaks(
    const std::vector<ScenarioSpec>& specs) {
  std::vector<ScenarioJob> jobs;
  jobs.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    jobs.push_back(ScenarioJob{ScenarioJob::Op::kFindPeak, spec});
  }
  std::vector<ScenarioOutcome> outcomes = execute(jobs);
  std::vector<ScenarioPeak> peaks;
  peaks.reserve(outcomes.size());
  for (ScenarioOutcome& outcome : outcomes) {
    requireNotFailed(outcome);
    peaks.push_back(ScenarioPeak{std::move(outcome.spec), std::move(outcome.search)});
  }
  return peaks;
}

ScenarioOutcome executeJob(const ScenarioJob& job) {
  ScenarioOutcome outcome;
  outcome.op = job.op;
  outcome.spec = job.spec;
  if (job.op == ScenarioJob::Op::kRun) {
    outcome.metrics = runScenario(job.spec);
  } else {
    outcome.search = findScenarioPeak(job.spec);
  }
  return outcome;
}

metrics::RunMetrics runScenario(const ScenarioSpec& spec) {
  network::PhotonicNetwork net(spec.params);
  return net.run();
}

metrics::PeakSearchResult findScenarioPeak(const ScenarioSpec& spec) {
  const metrics::PeakSearchOptions options = peakOptionsFor(spec);
  // One build, many probes: every load point rewinds the same network.
  network::PhotonicNetwork net(spec.params);
  return metrics::findPeak(
      [&](double load) {
        net.setOfferedLoad(load);
        net.reset();
        return net.run();
      },
      options);
}

metrics::PeakSearchOptions peakOptionsFor(const ScenarioSpec& spec) {
  metrics::PeakSearchOptions options;
  // Larger wavelength budgets saturate at proportionally larger loads; start
  // low enough that set 1's knee is bracketed from below.
  const int setIndex = bandwidthSetIndex(spec.params.bandwidthSet).value_or(1);
  options.startLoad = 0.0002 * static_cast<double>(1 << (setIndex - 1));
  options.growthFactor = 1.5;
  options.acceptanceFloor = 0.90;
  options.maxRampSteps = 12;
  options.bisectionSteps = 3;
  return options;
}

unsigned resolveWorkerCount(unsigned requested, std::size_t jobCount) {
  unsigned workers = requested;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  if (jobCount < workers) workers = static_cast<unsigned>(jobCount);
  return workers == 0 ? 1 : workers;
}

BackendKind parseBackendKind(const std::string& value) {
  if (value == "threads") return BackendKind::kThreads;
  if (value == "stream" || value == "processes") return BackendKind::kStream;
  throw std::invalid_argument("'" + value +
                              "' is not a backend (threads | processes | stream)");
}

std::string toString(BackendKind kind) {
  return kind == BackendKind::kStream ? "stream" : "threads";
}

std::unique_ptr<ExecutionBackend> makeBackend(const BackendOptions& options) {
  if (options.kind == BackendKind::kStream) {
    // shards=N is the one-entry fleet [{"workers":N}], N resolved (0 = auto)
    // but not yet clamped: workersFor() clamps every fleet to its batch.
    std::vector<dispatch::HostEntry> hosts = options.hosts;
    if (hosts.empty()) {
      hosts.emplace_back().workers = resolveWorkerCount(options.workers, SIZE_MAX);
    }
    return std::make_unique<dispatch::StreamingBackend>(std::move(hosts),
                                                        options.policy);
  }
  return std::make_unique<InProcessBackend>(options.workers);
}

}  // namespace pnoc::scenario
