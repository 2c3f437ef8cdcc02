#include "scenario/execution_backend.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include <poll.h>

#include "network/network.hpp"
#include "scenario/dispatch/fleet.hpp"
#include "scenario/dispatch/hosts_file.hpp"
#include "sim/interrupt.hpp"

namespace pnoc::scenario {
namespace {

using dispatch::FleetManager;
using dispatch::FleetUnit;
using dispatch::steadyNowMs;
using dispatch::UnitKey;

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("pnoc dispatch: " + message);
}

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

unsigned resolveWorkerCount(unsigned requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

std::unique_ptr<ExecutionBackend> makeBackend(const BackendOptions& options) {
  // shards=N is the one-entry fleet [{"workers":N}], N resolved (0 = auto);
  // workersFor() clamps every fleet to its batch.
  std::vector<dispatch::HostEntry> hosts = options.hosts;
  if (hosts.empty()) {
    hosts.emplace_back().workers = resolveWorkerCount(options.workers);
  }
  return std::make_unique<ExecutionBackend>(std::move(hosts), options.policy);
}

ExecutionBackend::ExecutionBackend(std::vector<dispatch::HostEntry> hosts,
                                   dispatch::FaultPolicy policy)
    : hosts_(std::move(hosts)), policy_(policy) {}

unsigned ExecutionBackend::workersFor(std::size_t jobCount) const {
  // The fleet description states its size; more workers than jobs would
  // just idle.
  const std::size_t total = dispatch::totalWorkers(hosts_);
  const std::size_t clamped = jobCount < total ? jobCount : total;
  return clamped == 0 ? 1 : static_cast<unsigned>(clamped);
}

std::vector<ScenarioOutcome> ExecutionBackend::execute(
    const std::vector<ScenarioJob>& jobs) {
  if (jobs.empty()) return {};
  std::vector<ScenarioOutcome> outcomes(jobs.size());
  std::size_t dealt = 0;
  std::size_t done = 0;
  std::optional<std::string> loudFailure;

  FleetManager::Callbacks callbacks;
  callbacks.nextUnit = [&]() -> std::optional<FleetUnit> {
    if (dealt == jobs.size()) return std::nullopt;
    FleetUnit unit{UnitKey{0, dealt}, jobs[dealt]};
    ++dealt;
    return unit;
  };
  callbacks.unitDone = [&](const UnitKey& key, ScenarioOutcome outcome) {
    if (outcome.failed && !policy_.failSoft) {
      if (!loudFailure) {
        loudFailure = "job " + std::to_string(key.unit) + " failed: " + outcome.error;
      }
      return;
    }
    outcomes[key.unit] = std::move(outcome);
    ++done;
    if (observer_) observer_(key.unit, outcomes[key.unit]);
  };

  FleetManager fleet(policy_, std::move(callbacks));
  const auto captureStats = [&] {
    stats_ = fleet.stats();
    workers_ = fleet.workerStatus();
  };
  try {
    const std::vector<dispatch::WorkerTransport> transports =
        dispatch::transportsFor(hosts_);
    const unsigned workers = workersFor(jobs.size());
    for (std::size_t w = 0; w < workers && w < transports.size(); ++w) {
      fleet.addWorker(transports[w], steadyNowMs());
    }

    while (!loudFailure && done < jobs.size()) {
      // A SIGINT/SIGTERM (drivers install sim::installInterruptHandlers)
      // aborts the batch as a named failure: the fleet's destructor tears
      // the workers down and the driver's failure path flushes its
      // checkpoint, so the interrupted grid is resumable.
      if (sim::interruptRequested()) {
        fail("interrupted by signal; aborting the dispatch (completed jobs were"
             " delivered — resume=1 re-dispatches the rest)");
      }
      fleet.pump(steadyNowMs());
      if (loudFailure || done == jobs.size()) break;
      if (fleet.liveWorkers() == 0) {
        if (!policy_.failSoft) {
          fail("no live workers remain with " + std::to_string(jobs.size() - done) +
               " job(s) unfinished" +
               (fleet.lastDeath().empty() ? "" : " — " + fleet.lastDeath()));
        }
        fleet.failRemaining("no live workers remained");
        break;
      }

      std::vector<pollfd> fds = fleet.pollFds();
      int timeoutMs = -1;
      if (const auto deadline = fleet.nextDeadlineMs()) {
        const std::uint64_t now = steadyNowMs();
        timeoutMs = *deadline <= now ? 0 : static_cast<int>(*deadline - now) + 1;
      }
      if (::poll(fds.data(), fds.size(), timeoutMs) < 0) {
        // EINTR: back to the top, where an interrupt is noticed.
        if (errno == EINTR) continue;
        fail(std::string("poll failed: ") + std::strerror(errno));
      }
      for (const pollfd& fd : fds) {
        if (fd.revents != 0) fleet.onReadable(fd.fd, steadyNowMs());
      }
      fleet.onTick(steadyNowMs());
    }
    if (loudFailure) {
      // The unit's record detail is pid-free; the loud error also names the
      // worker whose death exhausted it.
      fail(*loudFailure + (fleet.lastDeath().empty()
                               ? ""
                               : " (last worker death: " + fleet.lastDeath() + ")"));
    }

    const std::vector<std::string> closeFailures = fleet.closeWorkers();
    if (!closeFailures.empty()) {
      fail(closeFailures[0] +
           (closeFailures.size() > 1
                ? " (+" + std::to_string(closeFailures.size() - 1) + " more failures)"
                : ""));
    }
  } catch (...) {
    captureStats();
    throw;
  }
  captureStats();
  return outcomes;
}

}  // namespace pnoc::scenario
