#include "scenario/dispatch/fleet.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>

#include <sys/wait.h>
#include <unistd.h>

#include "obs/trace.hpp"
#include "scenario/wire.hpp"

namespace pnoc::scenario::dispatch {
namespace {

/// "job 3" for a batch unit, "job 7 unit 3" for a daemon unit.
std::string unitName(const UnitKey& key) {
  if (key.job == 0) return "job " + std::to_string(key.unit);
  return "job " + std::to_string(key.job) + " unit " + std::to_string(key.unit);
}

std::string describeWorker(const WorkerConnection& conn) {
  return conn.description + " (pid " + std::to_string(conn.pid) + ")";
}

}  // namespace

std::uint64_t steadyNowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

FleetManager::FleetManager(FaultPolicy policy, Callbacks callbacks,
                           obs::Registry* registry)
    : policy_(policy), callbacks_(std::move(callbacks)) {
  // A worker dying mid-write must surface as EPIPE, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  if (registry == nullptr) {
    ownedRegistry_ = std::make_unique<obs::Registry>();
    registry = ownedRegistry_.get();
  }
  statRetries_ = registry->counter("fleet_retries_total");
  statRespawns_ = registry->counter("fleet_respawns_total");
  statDeadlineKills_ = registry->counter("fleet_deadline_kills_total");
  statProtocolDeaths_ = registry->counter("fleet_protocol_deaths_total");
  statLaunchFailures_ = registry->counter("fleet_launch_failures_total");
  statFailedUnits_ = registry->counter("fleet_failed_units_total");
  statUnitsCompleted_ = registry->counter("fleet_units_completed_total");
  statMaxInFlight_ = registry->gauge("fleet_max_in_flight");
}

FleetManager::~FleetManager() {
  for (Slot& slot : slots_) {
    terminateWorker(slot.conn, policy_.graceMs);
  }
}

FleetStats FleetManager::stats() const {
  FleetStats s;
  s.retries = static_cast<unsigned>(statRetries_.value());
  s.respawns = static_cast<unsigned>(statRespawns_.value());
  s.deadlineKills = static_cast<unsigned>(statDeadlineKills_.value());
  s.protocolDeaths = static_cast<unsigned>(statProtocolDeaths_.value());
  s.launchFailures = static_cast<unsigned>(statLaunchFailures_.value());
  s.failedUnits = static_cast<unsigned>(statFailedUnits_.value());
  s.maxInFlight = static_cast<unsigned>(statMaxInFlight_.value());
  return s;
}

// Trace spans: worker-handshake (async, one per launch), dispatch (the job
// line write), unit-execution (async, keyed by the unit's fixed wire index,
// so successive attempts give sequential, never overlapping spans), and
// retry / retry-backoff / respawn instants.
void FleetManager::endHandshakeSpan(Slot& slot) {
  if (slot.handshakeSpanId == 0) return;
  if (obs::TraceWriter* writer = obs::trace()) {
    writer->asyncEnd("worker-handshake", "dispatch", slot.handshakeSpanId);
  }
  slot.handshakeSpanId = 0;
}

void FleetManager::endUnitSpan(const Flight& flight) {
  if (obs::TraceWriter* writer = obs::trace()) {
    writer->asyncEnd("unit-execution", "dispatch", flight.seq);
  }
}

void FleetManager::note(const std::string& text) {
  std::fprintf(stderr, "pnoc dispatch: %s\n", text.c_str());
}

void FleetManager::death(const std::string& text) {
  lastDeath_ = text;
  note(text);
}

std::uint64_t FleetManager::connectBudgetMs(const Slot& slot) const {
  if (slot.transport.connectTimeoutMs() != 0) {
    return slot.transport.connectTimeoutMs();
  }
  return policy_.connectTimeoutMs;
}

void FleetManager::startWorker(Slot& slot, std::uint64_t nowMs) {
  try {
    slot.conn = slot.transport.launch();
  } catch (const std::exception& error) {
    slot.state = SlotState::kDead;
    slot.launchFailed = true;
    statLaunchFailures_.inc();
    death(slot.transport.describe() + " failed to launch: " + error.what());
    return;
  }
  slot.state = SlotState::kConnecting;
  slot.buffer.clear();
  slot.waitStatus = -1;
  slot.connectDeadlineMs = nowMs + connectBudgetMs(slot);
  if (obs::TraceWriter* writer = obs::trace()) {
    slot.handshakeSpanId = ++nextHandshakeId_;
    writer->asyncBegin("worker-handshake", "dispatch", slot.handshakeSpanId);
  }
  // Handshake hello (carries this build's stamp); the ack is validated when
  // the worker's first line arrives.
  if (!writeAllToWorker(slot.conn.stdinFd, wire::streamHelloLine() + "\n")) {
    connectFailure(slot, describeWorker(slot.conn) + " died at the handshake");
  }
}

std::size_t FleetManager::addWorker(WorkerTransport transport, std::uint64_t nowMs) {
  slots_.emplace_back(std::move(transport));
  startWorker(slots_.back(), nowMs);
  return slots_.size() - 1;
}

bool FleetManager::removeWorker(std::size_t worker, std::string* error) {
  if (worker >= slots_.size()) {
    if (error != nullptr) {
      *error = "no worker " + std::to_string(worker) + " (fleet has " +
               std::to_string(slots_.size()) + " slot(s))";
    }
    return false;
  }
  Slot& slot = slots_[worker];
  if (slot.state == SlotState::kRemoved) {
    if (error != nullptr) {
      *error = "worker " + std::to_string(worker) + " was already removed";
    }
    return false;
  }
  // In-flight units return UNCHARGED — removal is an operator action, not a
  // fault of the unit.
  refundInFlight(slot);
  killSlot(slot, SlotState::kRemoved);
  note("removed " + slot.transport.describe() + " (worker " +
       std::to_string(worker) + ")");
  return true;
}

/// Kills a worker with SIGTERM-grace-SIGKILL escalation and records how it
/// ended.  Safe on already-exited workers (the reap returns at once) and on
/// already-reaped ones (the recorded status stays).
void FleetManager::killSlot(Slot& slot, SlotState endState) {
  endHandshakeSpan(slot);
  const int status = terminateWorker(slot.conn, policy_.graceMs);
  if (status >= 0) slot.waitStatus = status;
  slot.state = endState;
  slot.buffer.clear();
  slot.frontDeadlineMs = 0;
}

void FleetManager::refundInFlight(Slot& slot) {
  // Order-preserving reverse push_front: the refunded units re-deal in the
  // order the dead worker would have executed them.
  while (!slot.inFlight.empty()) {
    endUnitSpan(slot.inFlight.back());
    retryQueue_.push_front(std::move(slot.inFlight.back()));
    slot.inFlight.pop_back();
  }
}

/// A dead/corrupt/overdue worker loses its whole in-flight queue: the FRONT
/// unit — the one the worker was executing — is charged a retry; the
/// queued-behind units were never started and go back uncharged.  True
/// when the front unit exhausted its retries and completed as a failure.
bool FleetManager::chargeFrontRefundRest(Slot& slot, const std::string& loudWho,
                                         const std::string& recordDetail,
                                         std::uint64_t nowMs) {
  if (slot.inFlight.empty()) return false;
  Flight front = std::move(slot.inFlight.front());
  slot.inFlight.pop_front();
  endUnitSpan(front);
  refundInFlight(slot);
  return unitFaulted(std::move(front), loudWho, recordDetail, nowMs);
}

/// A fault cost `flight` its current dispatch: redispatch within the retry
/// budget (after exponential backoff), else complete it as a failure and
/// return true.  `loudWho` names worker and cause for stderr and loud
/// errors; `recordDetail` is the deterministic (pid-free) cause a record
/// carries.
bool FleetManager::unitFaulted(Flight flight, const std::string& loudWho,
                               const std::string& recordDetail,
                               std::uint64_t nowMs) {
  ++flight.attempts;
  death(loudWho + " while running " + unitName(flight.unit.key));
  if (flight.attempts <= policy_.retries) {
    statRetries_.inc();
    const std::uint64_t backoff = backoffMsForAttempt(policy_, flight.attempts);
    if (obs::TraceWriter* writer = obs::trace()) {
      writer->instant(backoff != 0 ? "retry-backoff" : "retry", "dispatch");
    }
    note("redispatching " + unitName(flight.unit.key) + " (attempt " +
         std::to_string(flight.attempts + 1) + " of " +
         std::to_string(policy_.retries + 1) +
         (backoff != 0 ? " after " + std::to_string(backoff) + " ms)" : ")"));
    if (backoff == 0) {
      retryQueue_.push_front(std::move(flight));
    } else {
      delayed_.push_back(DelayedFlight{std::move(flight), nowMs + backoff});
    }
    return false;
  }
  recordUnitFailure(flight, recordDetail + " (retry budget of " +
                                std::to_string(policy_.retries) + " exhausted)");
  return true;
}

/// The terminal failure state: the unit completes AS a failed outcome with
/// a deterministic error, so two identically-faulty runs record identical
/// failures.
void FleetManager::recordUnitFailure(const Flight& flight,
                                     const std::string& reason) {
  statFailedUnits_.inc();
  ScenarioOutcome outcome;
  outcome.op = flight.unit.job.op;
  outcome.spec = flight.unit.job.spec;
  outcome.failed = true;
  outcome.error = reason;
  note(unitName(flight.unit.key) + " failed: " + reason);
  if (callbacks_.unitDone) callbacks_.unitDone(flight.unit.key, std::move(outcome));
}

/// A connect-class death (launch, handshake write, ack timeout, bad ack):
/// the host never proved it can run units, so its slot is retired — no
/// respawn — and anything it held goes back uncharged.
void FleetManager::connectFailure(Slot& slot, const std::string& what) {
  killSlot(slot, SlotState::kDead);
  slot.launchFailed = true;
  statLaunchFailures_.inc();
  refundInFlight(slot);
  death(what + "; continuing on the remaining workers");
}

/// A worker whose protocol is corrupt cannot be trusted with further units:
/// kill it, charge the front unit a retry, and let the slot respawn.
void FleetManager::protocolDeath(Slot& slot, const std::string& what,
                                 const std::string& recordDetail,
                                 std::uint64_t nowMs) {
  statProtocolDeaths_.inc();
  const std::string who = describeWorker(slot.conn) + " " + what;
  killSlot(slot, SlotState::kDead);
  if (slot.inFlight.empty()) death(who + " while idle");
  const bool unitFailed = chargeFrontRefundRest(slot, who, recordDetail, nowMs);
  maybeRespawn(slot, unitFailed, nowMs);
}

/// Relaunches a dead slot through its original transport (bounded per
/// slot): the fleet heals to full width instead of shrinking by one worker
/// per crash.  Connect-class failures never respawn, and respawns=0 turns
/// respawning off.  A death that failed its unit (`unitFailed`: the retry
/// budget ran out) blames the unit, which that budget already bounds, so
/// it respawns without spending the slot's budget — else one poison unit
/// would strand every later unit of a one-worker fleet.
void FleetManager::maybeRespawn(Slot& slot, bool unitFailed, std::uint64_t nowMs) {
  if (slot.launchFailed || policy_.respawns == 0) return;
  if (!unitFailed) {
    if (slot.respawns >= policy_.respawns) return;
    ++slot.respawns;
  }
  statRespawns_.inc();
  if (obs::TraceWriter* writer = obs::trace()) {
    writer->instant("respawn", "dispatch");
  }
  note("respawning " + slot.transport.describe() +
       (unitFailed ? std::string(" after its unit failed (budget unspent)")
                   : " (respawn " + std::to_string(slot.respawns) + " of " +
                         std::to_string(policy_.respawns) + ")"));
  startWorker(slot, nowMs);
}

void FleetManager::pump(std::uint64_t nowMs) {
  releaseDelayed(nowMs);
  const unsigned depth = policy_.pipeline == 0 ? 1 : policy_.pipeline;
  for (Slot& slot : slots_) {
    // Ready workers only: a connecting worker has not proven its build
    // stamp yet, and dealing to it would race the handshake.
    while (slot.state == SlotState::kReady && slot.inFlight.size() < depth) {
      Flight flight;
      if (!retryQueue_.empty()) {
        flight = std::move(retryQueue_.front());
        retryQueue_.pop_front();
      } else {
        std::optional<FleetUnit> unit =
            callbacks_.nextUnit ? callbacks_.nextUnit() : std::nullopt;
        if (!unit) return;  // nothing pends — nothing to deal anywhere
        flight.unit = std::move(*unit);
        flight.seq = nextSeq_++;
      }
      const std::string line = wire::jobLine(flight.seq, flight.unit.job) + "\n";
      bool written;
      {
        const obs::ScopedSpan span("dispatch", "dispatch");
        written = writeAllToWorker(slot.conn.stdinFd, line);
      }
      if (written) {
        if (obs::TraceWriter* writer = obs::trace()) {
          writer->asyncBegin("unit-execution", "dispatch", flight.seq);
        }
        if (slot.inFlight.empty() && policy_.jobDeadlineMs != 0) {
          slot.frontDeadlineMs = nowMs + policy_.jobDeadlineMs;
        }
        slot.inFlight.push_back(std::move(flight));
        const auto inFlightNow = static_cast<unsigned>(slot.inFlight.size());
        slot.maxInFlight = std::max(slot.maxInFlight, inFlightNow);
        statMaxInFlight_.observeMax(inFlightNow);
      } else {
        // Died taking the line: this unit goes back untouched; the units
        // already on the worker are handled like any death.
        retryQueue_.push_front(std::move(flight));
        handleDeath(slot, nowMs);
      }
    }
  }
}

std::vector<pollfd> FleetManager::pollFds() const {
  std::vector<pollfd> fds;
  for (const Slot& slot : slots_) {
    // Idle workers are polled too: seeing an idle death's EOF promptly is
    // what keeps it a tolerated (and healed) anomaly.
    if (slot.state == SlotState::kConnecting || slot.state == SlotState::kReady) {
      fds.push_back(pollfd{slot.conn.stdoutFd, POLLIN, 0});
    }
  }
  return fds;
}

void FleetManager::onReadable(int fd, std::uint64_t nowMs) {
  for (Slot& slot : slots_) {
    if (slot.conn.stdoutFd != fd ||
        (slot.state != SlotState::kConnecting && slot.state != SlotState::kReady)) {
      continue;
    }
    char buffer[65536];
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) return;
    if (n <= 0) {
      handleDeath(slot, nowMs);
      return;
    }
    slot.buffer.append(buffer, static_cast<std::size_t>(n));
    std::size_t newline;
    while ((slot.state == SlotState::kConnecting ||
            slot.state == SlotState::kReady) &&
           (newline = slot.buffer.find('\n')) != std::string::npos) {
      const std::string line = slot.buffer.substr(0, newline);
      slot.buffer.erase(0, newline + 1);
      if (!line.empty()) handleLine(slot, line, nowMs);
    }
    return;
  }
}

void FleetManager::handleLine(Slot& slot, const std::string& line,
                              std::uint64_t nowMs) {
  if (slot.state == SlotState::kConnecting) {
    try {
      wire::checkStreamAck(line);
    } catch (const std::runtime_error& error) {
      // Bad ack — wrong protocol version or mismatched build stamp: the
      // host runs SOMETHING, but not this build; retire it.
      connectFailure(slot, describeWorker(slot.conn) + ": " + error.what());
      return;
    }
    slot.state = SlotState::kReady;
    endHandshakeSpan(slot);
    return;
  }
  wire::WorkerReply reply;
  try {
    reply = wire::parseReplyLine(line);
  } catch (const std::exception& error) {
    protocolDeath(slot, std::string("sent an unparseable reply: ") + error.what(),
                  "worker-protocol death: unparseable reply", nowMs);
    return;
  }
  // In-order pipeline: the reply must answer the FRONT of this worker's
  // queue (it executes stdin lines sequentially) — anything else is
  // corruption.
  if (slot.inFlight.empty() || reply.index != slot.inFlight.front().seq) {
    protocolDeath(slot,
                  "replied for wire index " + std::to_string(reply.index) +
                      " while " +
                      (slot.inFlight.empty()
                           ? std::string("none")
                           : std::to_string(slot.inFlight.front().seq)) +
                      " was in flight",
                  "worker-protocol death: out-of-order reply", nowMs);
    return;
  }
  Flight flight = std::move(slot.inFlight.front());
  slot.inFlight.pop_front();
  endUnitSpan(flight);
  statUnitsCompleted_.inc();
  // The next queued unit is now the one the worker is executing: its
  // deadline budget starts here.
  slot.frontDeadlineMs = !slot.inFlight.empty() && policy_.jobDeadlineMs != 0
                             ? nowMs + policy_.jobDeadlineMs
                             : 0;
  ++slot.completed;
  if (!reply.ok) {
    // In-band simulation failure: deterministic, never retried.
    recordUnitFailure(flight, "job error: " + reply.error);
    return;
  }
  reply.outcome.spec = flight.unit.job.spec;
  if (callbacks_.unitDone) {
    callbacks_.unitDone(flight.unit.key, std::move(reply.outcome));
  }
}

void FleetManager::handleDeath(Slot& slot, std::uint64_t nowMs) {
  const std::string who = describeWorker(slot.conn);
  const bool connecting = slot.state == SlotState::kConnecting;
  const bool truncated = !slot.buffer.empty();
  killSlot(slot, SlotState::kDead);
  const std::string end = slot.waitStatus >= 0
                              ? describeWaitStatus(slot.waitStatus)
                              : std::string("could not be reaped");
  if (connecting) {
    connectFailure(slot, who + " " + end + " before the handshake ack");
    return;
  }
  if (truncated) statProtocolDeaths_.inc();
  const std::string how = end + (truncated ? " with a truncated reply line" : "");
  // Idle death loses no unit: reported, healed, never costs the run.
  if (slot.inFlight.empty()) death(who + " " + how + " while idle");
  const bool unitFailed =
      chargeFrontRefundRest(slot, who + " " + how, "worker death: " + how, nowMs);
  maybeRespawn(slot, unitFailed, nowMs);
}

void FleetManager::releaseDelayed(std::uint64_t nowMs) {
  for (std::size_t d = 0; d < delayed_.size();) {
    if (nowMs >= delayed_[d].readyAtMs) {
      retryQueue_.push_front(std::move(delayed_[d].flight));
      delayed_[d] = std::move(delayed_.back());
      delayed_.pop_back();
    } else {
      ++d;
    }
  }
}

void FleetManager::onTick(std::uint64_t nowMs) {
  releaseDelayed(nowMs);
  for (Slot& slot : slots_) {
    if (slot.state == SlotState::kConnecting && nowMs >= slot.connectDeadlineMs) {
      connectFailure(slot, describeWorker(slot.conn) +
                               " did not acknowledge the streaming protocol"
                               " within " +
                               std::to_string(connectBudgetMs(slot)) +
                               " ms — a worker from an older build?");
      continue;
    }
    if (slot.state == SlotState::kReady && !slot.inFlight.empty() &&
        slot.frontDeadlineMs != 0 && nowMs >= slot.frontDeadlineMs) {
      statDeadlineKills_.inc();
      const std::string who = describeWorker(slot.conn);
      const std::string limit = std::to_string(policy_.jobDeadlineMs) + " ms";
      killSlot(slot, SlotState::kDead);
      const bool unitFailed = chargeFrontRefundRest(
          slot, who + " exceeded the " + limit + " job deadline",
          "job deadline exceeded (" + limit + ")", nowMs);
      maybeRespawn(slot, unitFailed, nowMs);
    }
  }
}

std::optional<std::uint64_t> FleetManager::nextDeadlineMs() const {
  std::optional<std::uint64_t> soonest;
  const auto consider = [&](std::uint64_t when) {
    if (!soonest || when < *soonest) soonest = when;
  };
  for (const Slot& slot : slots_) {
    if (slot.state == SlotState::kConnecting) consider(slot.connectDeadlineMs);
    if (slot.state == SlotState::kReady && !slot.inFlight.empty() &&
        slot.frontDeadlineMs != 0) {
      consider(slot.frontDeadlineMs);
    }
  }
  for (const DelayedFlight& delayed : delayed_) consider(delayed.readyAtMs);
  return soonest;
}

void FleetManager::dropUnitsForJob(std::uint64_t jobId) {
  const auto gone = [&](const Flight& flight) {
    return flight.unit.key.job == jobId;
  };
  retryQueue_.erase(std::remove_if(retryQueue_.begin(), retryQueue_.end(), gone),
                    retryQueue_.end());
  delayed_.erase(std::remove_if(delayed_.begin(), delayed_.end(),
                                [&](const DelayedFlight& d) {
                                  return gone(d.flight);
                                }),
                 delayed_.end());
}

void FleetManager::failRemaining(const std::string& reason) {
  std::deque<Flight> stranded = std::move(retryQueue_);
  retryQueue_.clear();
  for (DelayedFlight& delayed : delayed_) stranded.push_back(std::move(delayed.flight));
  delayed_.clear();
  for (const Flight& flight : stranded) recordUnitFailure(flight, reason);
  while (callbacks_.nextUnit) {
    std::optional<FleetUnit> unit = callbacks_.nextUnit();
    if (!unit) break;
    Flight flight;
    flight.unit = std::move(*unit);
    recordUnitFailure(flight, reason);
  }
}

std::vector<std::string> FleetManager::closeWorkers() {
  for (Slot& slot : slots_) {
    if (slot.state == SlotState::kReady) closeConnection(slot.conn);
    if (slot.state == SlotState::kConnecting) killSlot(slot, SlotState::kRemoved);
  }
  std::vector<std::string> failures;
  for (Slot& slot : slots_) {
    if (slot.state != SlotState::kReady) continue;
    const std::string who = describeWorker(slot.conn);
    bool killed = false;
    const int status = reapWorkerWithin(slot.conn, policy_.graceMs, &killed);
    slot.state = SlotState::kRemoved;
    if (status < 0) {
      failures.push_back(who + " could not be reaped");
    } else if (killed) {
      failures.push_back(who + " did not exit within " +
                         std::to_string(policy_.graceMs) + " ms of EOF (killed)");
    } else if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      failures.push_back(who + " " + describeWaitStatus(status));
    }
  }
  return failures;
}

bool FleetManager::idle() const {
  if (!retryQueue_.empty() || !delayed_.empty()) return false;
  for (const Slot& slot : slots_) {
    if (!slot.inFlight.empty()) return false;
  }
  return true;
}

std::size_t FleetManager::readyWorkers() const {
  std::size_t count = 0;
  for (const Slot& slot : slots_) count += slot.state == SlotState::kReady ? 1 : 0;
  return count;
}

std::size_t FleetManager::liveWorkers() const {
  std::size_t count = 0;
  for (const Slot& slot : slots_) {
    count += slot.state == SlotState::kReady ||
                     slot.state == SlotState::kConnecting
                 ? 1
                 : 0;
  }
  return count;
}

std::vector<WorkerStatus> FleetManager::workerStatus() const {
  std::vector<WorkerStatus> statuses;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const Slot& slot = slots_[s];
    WorkerStatus status;
    status.worker = s;
    status.description = slot.transport.describe();
    switch (slot.state) {
      case SlotState::kConnecting: status.state = "connecting"; break;
      case SlotState::kReady: status.state = "ready"; break;
      case SlotState::kDead: status.state = "dead"; break;
      case SlotState::kRemoved: status.state = "removed"; break;
    }
    status.completed = slot.completed;
    status.inFlight = slot.inFlight.size();
    status.maxInFlight = slot.maxInFlight;
    status.respawns = slot.respawns;
    statuses.push_back(std::move(status));
  }
  return statuses;
}

}  // namespace pnoc::scenario::dispatch
