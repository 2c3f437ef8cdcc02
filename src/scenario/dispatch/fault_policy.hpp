// FaultPolicy: the explicit failure semantics of the dispatch layer.
//
// PR 4's streaming pool had one hard-coded behavior per failure class:
// retry a lost job exactly once, never respawn a dead worker, no deadline
// after the handshake, abort the grid on the first exhausted job.  This
// struct makes every one of those choices a knob, settable three ways with
// one shared key set (fault_policy.cpp's setPolicyField):
//
//   * CLI keys on every scenario binary and pnoc_run (scenario::Cli):
//       retries=1 respawns=1 backoff_ms=200 job_deadline_ms=0 grace_ms=2000
//       connect_timeout_ms=30000 fail_soft=0
//   * a hosts file's top-level "policy" object (hosts=@hosts.json), with
//     CLI keys overriding the file's values key by key;
//   * code, for tests and embedders (ExecutionBackend's and FleetManager's
//     constructors).
//
// The semantics each knob buys (implemented in fleet.cpp; the fail-soft
// choice in execution_backend.cpp):
//
//   retries        redispatches a job gets after a fault killed its worker
//                  (worker death, protocol corruption, deadline kill) before
//                  the job counts as failed.  In-band simulation errors are
//                  deterministic and are never retried.
//   respawns       worker relaunches per slot through the slot's ORIGINAL
//                  transport, so a fleet heals to full width instead of
//                  shrinking by one worker per crash; 0 never relaunches.
//                  A death that exhausts its unit's `retries` (the unit is
//                  recorded as failed) blames the unit, not the slot: it
//                  respawns without spending this budget, so one poison
//                  unit cannot strand the rest of a one-worker grid.
//                  Launch/handshake failures never respawn — a host that
//                  cannot connect once is not reconnected job after job.
//   backoff_ms     base of the exponential backoff (doubling per attempt,
//                  capped at backoff_cap_ms) a faulted job waits before it
//                  is redispatched — a spec that reliably kills workers must
//                  not saw through the fleet at full speed.
//   job_deadline_ms  wall-clock budget per dispatched job, measured from the
//                  deal; 0 disables.  An overdue worker is escalated
//                  (SIGTERM, grace_ms, SIGKILL), its job redispatched per
//                  `retries`, its slot respawned per `respawns`.
//   grace_ms       SIGTERM-to-SIGKILL grace everywhere a worker is killed
//                  (deadline kills, protocol deaths, teardown) and the
//                  bound on the success path's reap — a wedged worker can
//                  never hang the dispatcher indefinitely.
//   connect_timeout_ms  launch-to-handshake-ack budget per worker (per-host
//                  override via a host entry's own connect_timeout_ms).
//                  Launches are non-blocking fork/execs, so an N-host ssh
//                  fleet starts in max, not sum, of connect times.
//   fail_soft      1: a job that exhausts `retries` (or fails in-band, or
//                  outlives the whole fleet) becomes a structured per-job
//                  failure outcome — the grid continues, pnoc_run records
//                  the failure in the BENCH checkpoint, and resume=1 later
//                  re-dispatches exactly those indices.  0 (default): the
//                  first failed job aborts the dispatch.  (The pnoc_serve
//                  daemon is always fail-soft per unit.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pnoc::scenario::dispatch {

struct FaultPolicy {
  unsigned retries = 1;
  unsigned respawns = 1;
  std::uint64_t backoffBaseMs = 200;
  std::uint64_t backoffCapMs = 5000;
  std::uint64_t jobDeadlineMs = 0;  // 0: no per-job deadline
  std::uint64_t graceMs = 2000;
  std::uint64_t connectTimeoutMs = 30000;
  bool failSoft = false;
  /// Jobs kept in flight per worker (>= 1).  A worker executes its lines in
  /// order, so pipelining trades ordering risk for hidden round-trip time:
  /// while job N simulates, job N+1's line is already queued on the worker's
  /// stdin — the win that matters on high-RTT transports (ssh fleets) and
  /// the pnoc_serve fleet's default.  Dispatch deadlines apply to the FRONT
  /// job of a worker's queue; a death charges the front job its retry and
  /// refunds the queued ones uncharged.
  unsigned pipeline = 1;
};

/// True for keys settable via setPolicyField (the shared CLI / hosts-file
/// key set): retries, respawns, backoff_ms, backoff_cap_ms, job_deadline_ms,
/// grace_ms, connect_timeout_ms, fail_soft, pipeline.
bool isPolicyKey(const std::string& key);

/// The shared key set itself, for callers that iterate it (Cli layers each
/// present CLI key over the hosts-file policy).
const std::vector<std::string>& policyKeys();

/// Sets one policy field by its shared key name; values are the
/// non-negative integers the CLI and hosts files carry (fail_soft: 0/1).
/// Throws std::invalid_argument on unknown keys or out-of-domain values.
void setPolicyField(FaultPolicy& policy, const std::string& key,
                    std::uint64_t value);

/// The backoff before redispatching a job on its Nth faulted attempt
/// (attempt >= 1): backoffBaseMs doubled per prior attempt, capped.
std::uint64_t backoffMsForAttempt(const FaultPolicy& policy, unsigned attempt);

/// One help line per policy key (scenario::Cli's help=1 listing).
std::string policyHelpText();

}  // namespace pnoc::scenario::dispatch
