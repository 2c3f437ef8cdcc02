// QueueJournal: the durability half of the service queue.
//
// Every job pnoc_serve ACCEPTS is journaled before its submit is
// acknowledged, as one NDJSON event line fsync'd to disk:
//
//   {"event":"submit","job":3,"client":"a","priority":2,"mode":"run",
//    "bench":"x","dir":"out","specs":[{...},{...}]}
//   {"event":"cancel","job":3}
//   {"event":"done","job":3}
//
// A submit event is the submit request's members (gridJobMembers, the one
// GridJob codec in service/job_queue.hpp) behind "event" and "job".  Its
// specs are the FULL canonical spec JSONs (ScenarioSpec::toJson, which
// round-trips byte-identically), so a daemon restart reconstructs every
// accepted job exactly — no reference back to client-side files that may
// have changed — and compaction rewrites a live submit byte for byte.
// `done` marks a job whose final BENCH file is on disk (failed jobs
// included: their records are written too); `cancel` marks an operator
// cancel.  Replay folds the events: live jobs are submits without a
// terminal event.  Replay does not re-validate specs (ScenarioSpec::
// validate): a job accepted once always restarts.
//
// Unit-level progress is deliberately NOT journaled — each job's partial
// results live in its own BENCH checkpoint file (dispatch/checkpoint),
// throttle-flushed as units complete.  On restart the daemon replays the
// journal, loads each live job's checkpoint, marks the recorded units done
// with their VERBATIM bytes, and re-dispatches only the rest.
//
// Crash tolerance matches the checkpoint loader's: a truncated or garbage
// TRAILING line (the one damage shape an fsync'd append stream can suffer)
// is dropped with a warning; corruption anywhere else throws.  open()
// compacts the file — terminal jobs' events are rewritten away — so the
// journal stays proportional to the live queue, not to history.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "service/job_queue.hpp"

namespace pnoc::service {

/// Serializes one job as its submit event line (no trailing newline).
std::string submitEventLine(const GridJob& job);

/// Replays journal `text`: returns the live jobs (submit order, ids set),
/// tolerating a truncated/garbage trailing line.  Throws
/// std::invalid_argument on corruption anywhere else, duplicate ids, or
/// terminal events for unknown jobs; `origin` names the journal in errors.
std::vector<GridJob> replayJournalText(const std::string& text,
                                       const std::string& origin);

class QueueJournal {
 public:
  QueueJournal() = default;
  ~QueueJournal();
  QueueJournal(const QueueJournal&) = delete;
  QueueJournal& operator=(const QueueJournal&) = delete;

  /// Opens (creating if absent) the journal at `path`: replays existing
  /// events, COMPACTS the file to the live jobs' submit events (atomic
  /// temp + rename), and leaves it open for appends.  Returns the live
  /// jobs.  Throws std::runtime_error on I/O failure,
  /// std::invalid_argument on corruption (see replayJournalText).
  std::vector<GridJob> open(const std::string& path);

  /// Appends one event, flushed AND fsync'd before returning — an
  /// acknowledged submit survives any crash after the ack.
  void appendSubmit(const GridJob& job);
  void appendCancel(std::uint64_t id);
  void appendDone(std::uint64_t id);

  /// Registers the journal's metrics in `registry` (nullptr detaches):
  /// journal_appends_total / journal_fsync_us (per-event append+fsync
  /// latency histogram), journal_compactions_total / journal_compact_us,
  /// and the journal_live_jobs gauge from the last compaction.  Call before
  /// open() to capture the startup compaction.
  void bindMetrics(obs::Registry* registry);

  void close();

 private:
  void appendLine(const std::string& line);

  std::FILE* file_ = nullptr;
  std::string path_;
  obs::Counter appends_;
  obs::Histogram fsyncUs_;
  obs::Counter compactions_;
  obs::Histogram compactUs_;
  obs::Gauge liveJobs_;
};

}  // namespace pnoc::service
