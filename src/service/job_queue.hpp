// JobQueue: the daemon's durable priority queue of accepted grid jobs.
//
// A JOB is one submitted spec grid (what a single pnoc_run invocation would
// dispatch); a UNIT is one spec of that grid — the granularity the shared
// fleet schedules at, so many jobs interleave across one fleet instead of
// queueing whole-grid behind whole-grid.
//
// nextUnit() implements the scheduling policy:
//
//   * higher `priority` first (among jobs that still have pending units);
//   * within a priority tier, clients take strict turns: the client served
//     LEAST RECENTLY is picked next, so one client streaming hundreds of
//     jobs cannot freeze out a client with one (per-client fairness);
//   * within a client, jobs run oldest first (FIFO by job id), units in
//     grid order;
//   * anti-starvation aging: every 4th dispatch ignores priority and serves
//     the OLDEST job with pending units, so a steady stream of high-priority
//     work can delay background jobs but never starve them.
//
// The queue holds pure state — no sockets, no processes, no clock — which
// is what makes the scheduling policy unit-testable, and what lets the
// journal rebuild it on daemon restart by replaying submits and re-marking
// checkpointed units done.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "scenario/dispatch/fleet.hpp"
#include "scenario/execution_backend.hpp"

namespace pnoc::service {

/// A unit is named by the fleet's {job id, index into that job's grid} key.
using scenario::dispatch::UnitKey;

enum class UnitState { kPending, kDispatched, kDone, kCanceled };

enum class JobState { kQueued, kRunning, kDone, kFailed, kCanceled };
std::string toString(JobState state);

struct GridJob {
  std::uint64_t id = 0;
  // The description (gridJobMembers / parseGridJob); the initializers are
  // the defaults of members a submit request omits.
  std::string client;
  std::uint64_t priority = 0;  // larger runs sooner
  scenario::ScenarioJob::Op op = scenario::ScenarioJob::Op::kRun;
  std::string benchName = "pnoc_run";  // BENCH_<benchName>.json
  std::string outDir = ".";            // directory the BENCH file lands in
  std::vector<scenario::ScenarioSpec> grid;

  // Per-unit progress, indexed like `grid`.  The units' BENCH records live
  // in the daemon's per-job checkpoint, not here.
  std::vector<UnitState> unitStates;
  std::vector<bool> unitFailed;

  JobState state = JobState::kQueued;
  std::string benchPath;  // set once the final BENCH file is written

  std::size_t unitCount() const { return grid.size(); }
  std::size_t doneUnits() const;
  std::size_t pendingUnits() const;
  std::size_t dispatchedUnits() const;
  std::size_t failedUnits() const;
  bool terminal() const {
    return state == JobState::kDone || state == JobState::kFailed ||
           state == JobState::kCanceled;
  }
};

/// The one codec of a job's description: its JSON object members, without
/// braces — "client","priority","mode","bench","dir","specs" in that order,
/// specs in ScenarioSpec::toJson() form.  A submit request is
/// {"op":"submit",<members>}; a journal submit event is
/// {"event":"submit","job":N,<members>}.
std::string gridJobMembers(const GridJob& job);

/// Reads the members back; absent ones keep GridJob's defaults and each
/// spec layers over ScenarioSpec's.  Specs are parsed, not validated.
/// Throws std::invalid_argument on a bad mode, a missing or empty "specs"
/// array, or a malformed spec ("bad spec: ...").
GridJob parseGridJob(const scenario::JsonValue& object);

class JobQueue {
 public:
  /// Accepts a job; assigns the next id when job.id == 0 (restart replay
  /// passes journaled ids through, and later fresh ids continue above them).
  /// Initializes the per-unit state; returns the id.  Throws
  /// std::invalid_argument on an empty grid or a duplicate id.
  std::uint64_t submit(GridJob job);

  GridJob* find(std::uint64_t id);
  const GridJob* find(std::uint64_t id) const;

  /// Picks the next unit per the scheduling policy and marks it dispatched;
  /// std::nullopt when nothing is pending.
  std::optional<UnitKey> nextUnit();

  /// Returns a dispatched (or pending) unit to pending — a fleet refund
  /// after a worker death or removal.  No-op for done/canceled units.
  void requeueUnit(const UnitKey& ref);

  /// Completes one unit (`failed`: it ended as a failure record).  Ignored
  /// when the job is gone or canceled — a canceled job's in-flight results
  /// are discarded, not recorded.  Returns true when this completion made
  /// the job terminal.
  bool unitDone(const UnitKey& ref, bool failed);

  /// Cancels a job: pending units -> canceled, the job goes terminal NOW
  /// (dispatched units finish on their workers; their results are
  /// discarded).  False when the id is unknown or already terminal.
  bool cancel(std::uint64_t id);

  /// Pending (not dispatched) units across all live jobs — the queue depth.
  std::size_t pendingUnits() const;
  /// Dispatched-but-unfinished units across all live jobs.
  std::size_t dispatchedUnits() const;
  bool drained() const { return pendingUnits() == 0 && dispatchedUnits() == 0; }

  const std::map<std::uint64_t, GridJob>& jobs() const { return jobs_; }

 private:
  std::map<std::uint64_t, GridJob> jobs_;  // ordered: id order IS age order
  std::map<std::string, std::uint64_t> lastServed_;  // client -> dispatch seq
  std::uint64_t nextId_ = 1;
  std::uint64_t dispatchSeq_ = 0;
};

}  // namespace pnoc::service
