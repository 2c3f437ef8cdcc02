// FleetManager: the one parent-side implementation of the worker protocol.
//
// Both dispatch drivers run on it: ExecutionBackend (every batch pnoc_run
// and the scenario binaries run) feeds it a fixed job vector, and the
// pnoc_serve daemon feeds it an open-ended stream of units pulled from its
// job queue.
// It owns persistent protocol workers, the build-stamp handshake, pipelined
// in-order dealing, retry/backoff, deadline kills and respawns, all as
// non-blocking event-loop calls driven from the caller's poll loop:
//
//   FleetManager fleet(policy, callbacks);
//   fleet.addWorker(std::move(transport), nowMs);  // repeatable at runtime
//   loop {
//     fleet.pump(nowMs);                         // deal units to capacity
//     poll(fleet.pollFds() + your own fds, min(fleet.nextDeadlineMs(), ...));
//     for (ready worker fd) fleet.onReadable(fd, nowMs);
//     fleet.onTick(nowMs);                       // deadlines, respawn backoff
//   }
//
// Session shape (per worker, over any WorkerTransport):
//
//   parent -> worker   {"pnoc_stream_hello":1,...}     handshake (wire.hpp)
//   worker -> parent   {"pnoc_stream_ack":1,...}       build stamp checked
//   parent -> worker   job lines, up to policy.pipeline in flight
//   worker -> parent   one reply line per job, in order
//   parent -> worker   stdin EOF (closeWorkers) -> worker exits 0
//
// Units go only to workers whose ack (with a matching build stamp) has
// arrived.  A unit keeps the wire index it was first dealt under across
// retries and refunds, so a batch dealt in index order has wire index ==
// job index.
//
// Units enter via callbacks.nextUnit and leave via callbacks.unitDone —
// ALWAYS: the fleet is fail-soft per unit.  A unit that exhausts its retry
// budget completes as a failed ScenarioOutcome with a deterministic,
// pid-free cause ("worker death: exited with status 57 (retry budget of 1
// exhausted)"); whether that aborts anything is the driver's choice.
// Workers join with addWorker() and leave with removeWorker(); a removed or
// dead worker's in-flight units are refunded, so elasticity never drops a
// unit.  Failure semantics per knob: dispatch/fault_policy.hpp.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <poll.h>

#include "obs/registry.hpp"
#include "scenario/dispatch/fault_policy.hpp"
#include "scenario/dispatch/fleet_stats.hpp"
#include "scenario/dispatch/worker_transport.hpp"
#include "scenario/execution_backend.hpp"

namespace pnoc::scenario::dispatch {

/// Steady-clock milliseconds: the time base of every `nowMs` here and of
/// BenchCheckpoint's flush throttle.
std::uint64_t steadyNowMs();

/// Names one unit: the job that owns it and its index in that job's grid.
/// A batch (ExecutionBackend) is job 0; the daemon's job ids start at 1.
struct UnitKey {
  std::uint64_t job = 0;
  std::size_t unit = 0;
};

/// One schedulable unit with its payload.
struct FleetUnit {
  UnitKey key;
  ScenarioJob job;
};

class FleetManager {
 public:
  struct Callbacks {
    /// Pulls the next unit to dispatch; std::nullopt when nothing pends.
    std::function<std::optional<FleetUnit>()> nextUnit;
    /// A unit completed — successfully or as a failed outcome.  Fires on
    /// the loop thread.
    std::function<void(const UnitKey&, ScenarioOutcome)> unitDone;
  };

  /// `registry` hosts the fleet_* metrics (the daemon passes its own so one
  /// snapshot covers queue+fleet+journal); nullptr makes the fleet own a
  /// private registry.
  FleetManager(FaultPolicy policy, Callbacks callbacks,
               obs::Registry* registry = nullptr);
  ~FleetManager();  // terminates every live worker (bounded escalation)
  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;

  /// Spawns one worker through `transport` and starts its handshake; the
  /// slot becomes ready when the ack arrives within the connect budget
  /// (the transport's own budget, else policy.connectTimeoutMs).  Returns
  /// the slot index.
  std::size_t addWorker(WorkerTransport transport, std::uint64_t nowMs);

  /// Removes one worker: its in-flight units are refunded UNCHARGED and the
  /// process is terminated.  False (with *error named) when the index is
  /// unknown or already removed.
  bool removeWorker(std::size_t worker, std::string* error);

  /// Deals queued retries and fresh units to every ready worker with
  /// pipeline capacity.
  void pump(std::uint64_t nowMs);

  /// The worker fds to poll for readability.
  std::vector<pollfd> pollFds() const;

  /// Handles a readable worker fd (replies, handshake acks, EOF deaths).
  void onReadable(int fd, std::uint64_t nowMs);

  /// Time-based work: connect/job deadlines, backoff expiry.  Call once per
  /// loop iteration, after the poll.
  void onTick(std::uint64_t nowMs);

  /// The soonest pending deadline (connect, front-job, retry backoff), as
  /// an absolute nowMs-scale time; std::nullopt when nothing is armed.
  std::optional<std::uint64_t> nextDeadlineMs() const;

  /// Drops every queued-but-undealt retry of `jobId`; in-flight units of a
  /// canceled job finish on their workers and the caller discards them.
  void dropUnitsForJob(std::uint64_t jobId);

  /// Completes every unit that is neither done nor in flight — queued
  /// retries, backed-off units, and everything nextUnit still yields — as a
  /// failed outcome carrying `reason`.  A batch driver's answer to a fleet
  /// with no live worker left.
  void failRemaining(const std::string& reason);

  /// Success-path close: stdin EOF to every live worker, then a reap
  /// bounded by policy.graceMs (SIGKILL past it).  Returns one line per
  /// ready worker that exited nonzero, had to be killed, or could not be
  /// reaped — a worker that corrupted its protocol must not pass silently
  /// just because every unit has a result.  Workers still connecting are
  /// terminated without complaint.
  std::vector<std::string> closeWorkers();

  /// True when no unit is in flight and no retry is queued.
  bool idle() const;

  std::size_t readyWorkers() const;
  std::size_t liveWorkers() const;  // ready + connecting
  std::vector<WorkerStatus> workerStatus() const;
  FleetStats stats() const;

  /// The most recent worker death or connect failure, naming the worker
  /// (pid included) — for loud errors; "" while none happened.
  const std::string& lastDeath() const { return lastDeath_; }

 private:
  struct Flight {
    FleetUnit unit;
    unsigned attempts = 0;  // faulted dispatches so far
    std::size_t seq = 0;    // wire index, fixed at the first deal
  };

  enum class SlotState { kConnecting, kReady, kDead, kRemoved };

  struct Slot {
    explicit Slot(WorkerTransport how) : transport(std::move(how)) {}
    WorkerTransport transport;
    WorkerConnection conn;
    SlotState state = SlotState::kConnecting;
    std::string buffer;           // partial reply-line accumulation
    std::deque<Flight> inFlight;  // front is the unit the worker is executing
    std::uint64_t connectDeadlineMs = 0;  // while connecting
    /// Job deadline for front(): re-armed whenever a unit becomes the front
    /// (dealt onto an empty queue, or promoted by the reply ahead of it) —
    /// queued-behind time never counts against a unit's budget.  0: none.
    std::uint64_t frontDeadlineMs = 0;
    int waitStatus = -1;  // how the last process ended; -1: not reaped
    unsigned completed = 0;
    unsigned maxInFlight = 0;
    unsigned respawns = 0;      // respawns charged to the policy's budget
    bool launchFailed = false;  // connect-class death: never respawn
    std::uint64_t handshakeSpanId = 0;  // open worker-handshake trace span
  };

  struct DelayedFlight {
    Flight flight;
    std::uint64_t readyAtMs = 0;
  };

  std::uint64_t connectBudgetMs(const Slot& slot) const;
  void startWorker(Slot& slot, std::uint64_t nowMs);
  void killSlot(Slot& slot, SlotState endState);
  void refundInFlight(Slot& slot);
  bool chargeFrontRefundRest(Slot& slot, const std::string& loudWho,
                             const std::string& recordDetail,
                             std::uint64_t nowMs);
  bool unitFaulted(Flight flight, const std::string& loudWho,
                   const std::string& recordDetail, std::uint64_t nowMs);
  void recordUnitFailure(const Flight& flight, const std::string& reason);
  void connectFailure(Slot& slot, const std::string& what);
  void protocolDeath(Slot& slot, const std::string& what,
                     const std::string& recordDetail, std::uint64_t nowMs);
  void maybeRespawn(Slot& slot, bool unitFailed, std::uint64_t nowMs);
  void handleLine(Slot& slot, const std::string& line, std::uint64_t nowMs);
  void handleDeath(Slot& slot, std::uint64_t nowMs);
  void releaseDelayed(std::uint64_t nowMs);
  void note(const std::string& text);
  void death(const std::string& text);
  void endHandshakeSpan(Slot& slot);
  void endUnitSpan(const Flight& flight);

  FaultPolicy policy_;
  Callbacks callbacks_;
  std::vector<Slot> slots_;
  std::deque<Flight> retryQueue_;       // refunded/retried units, dealt first
  std::vector<DelayedFlight> delayed_;  // units waiting out a backoff
  std::size_t nextSeq_ = 0;             // wire index generator
  std::uint64_t nextHandshakeId_ = 0;   // trace span ids across respawns
  std::string lastDeath_;

  // Registry-backed fault counters (see FleetStats); the registry outlives
  // the handles: either `registry` from the ctor or ownedRegistry_.
  std::unique_ptr<obs::Registry> ownedRegistry_;
  obs::Counter statRetries_;
  obs::Counter statRespawns_;
  obs::Counter statDeadlineKills_;
  obs::Counter statProtocolDeaths_;
  obs::Counter statLaunchFailures_;
  obs::Counter statFailedUnits_;
  obs::Counter statUnitsCompleted_;
  obs::Gauge statMaxInFlight_;
};

}  // namespace pnoc::scenario::dispatch
