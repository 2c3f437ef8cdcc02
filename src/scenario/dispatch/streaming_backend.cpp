#include "scenario/dispatch/streaming_backend.hpp"

#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include <poll.h>

#include "sim/interrupt.hpp"

namespace pnoc::scenario::dispatch {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("pnoc dispatch: " + message);
}

}  // namespace

StreamingBackend::StreamingBackend(std::vector<HostEntry> hosts, FaultPolicy policy)
    : hosts_(std::move(hosts)), policy_(policy) {}

unsigned StreamingBackend::workersFor(std::size_t jobCount) const {
  // The fleet description states its size; more workers than jobs would
  // just idle, so clamp like every other backend.
  const std::size_t total = totalWorkers(hosts_);
  const std::size_t clamped = jobCount < total ? jobCount : total;
  return clamped == 0 ? 1 : static_cast<unsigned>(clamped);
}

std::vector<ScenarioOutcome> StreamingBackend::execute(
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
    const std::vector<WorkerTransport> transports = transportsFor(hosts_);
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

}  // namespace pnoc::scenario::dispatch
